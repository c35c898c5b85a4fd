//! Deterministic fault injection for the transport's syscall edges.
//!
//! The error paths that matter in production — `EMFILE` on accept,
//! `ECONNRESET` mid-response, short writes — are exactly the ones the
//! kernel only produces under real resource pressure, so they are
//! untestable by normal means. This module routes the transport's
//! accept/read/write edges through an injectable shim:
//!
//! - **Feature off (the default):** every function is a `#[inline]`
//!   passthrough to the underlying socket operation. No queues, no locks,
//!   no branches beyond what the optimizer removes — the hot path is
//!   byte-for-byte the direct call.
//! - **Feature `fault-injection` on:** each operation first consults a
//!   global FIFO script of faults (one consumed per call); an empty
//!   script is a passthrough. Tests script exact sequences —
//!   "next accept fails `EMFILE`", "next write delivers only 3 bytes",
//!   "next write resets the connection" — and get the same fault on the
//!   same operation every run, with no sleeps or kernel cooperation.
//!
//! The script is process-global, so chaos tests serialize themselves
//! (single connection, one shard) to keep consumption deterministic.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Accepts a connection from `listener`, consuming one scripted accept
/// fault first when the `fault-injection` feature is enabled.
#[cfg(not(feature = "fault-injection"))]
#[inline]
pub(crate) fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
    listener.accept()
}

/// A transparent [`Read`] + [`Write`] adapter over a socket (or half of
/// one). With `fault-injection` off it forwards every call — including
/// `write_vectored`, preserving the transport's single-`writev` responses
/// — at zero cost; with the feature on it consults the fault script
/// before touching the socket.
#[derive(Debug)]
pub(crate) struct FaultStream<'a, S>(pub(crate) &'a mut S);

#[cfg(not(feature = "fault-injection"))]
impl<S: Read> Read for FaultStream<'_, S> {
    #[inline]
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

#[cfg(not(feature = "fault-injection"))]
impl<S: Write> Write for FaultStream<'_, S> {
    #[inline]
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    #[inline]
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.0.write_vectored(bufs)
    }

    #[inline]
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// The [`StoreIo`](uops_db::store::StoreIo) implementation the server
/// routes [`GenerationStore`](uops_db::GenerationStore) publishes through.
/// With `fault-injection` off this is the real-syscall implementation —
/// zero interposition; with the feature on, each filesystem mutation
/// first consults the scripted FIFO of [`FsFault`]s for its operation.
#[cfg(not(feature = "fault-injection"))]
#[inline]
pub fn store_io() -> &'static dyn uops_db::store::StoreIo {
    &uops_db::store::RealStoreIo
}

#[cfg(feature = "fault-injection")]
pub(crate) use enabled::accept;
#[cfg(feature = "fault-injection")]
pub use enabled::{
    inject_accept_error, inject_fs, inject_fs_from_env, inject_read, inject_write, reset, store_io,
    FsFault, FsOp, ReadFault, WriteFault, ECONNRESET, EIO, EMFILE, ENOSPC,
};

#[cfg(feature = "fault-injection")]
mod enabled {
    use super::*;
    use std::sync::Mutex;

    /// `errno` for "too many open files" — the accept-storm fault.
    pub const EMFILE: i32 = 24;
    /// `errno` for "connection reset by peer" — the mid-response fault.
    pub const ECONNRESET: i32 = 104;
    /// `errno` for an I/O error — the failing-disk fault.
    pub const EIO: i32 = 5;
    /// `errno` for "no space left on device" — the full-disk fault.
    pub const ENOSPC: i32 = 28;

    /// A filesystem mutation the store-publish path performs; each has
    /// its own scripted fault FIFO.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FsOp {
        /// Creating + writing a temp file.
        Write,
        /// `fsync` on a file.
        Fsync,
        /// `rename` into place.
        Rename,
        /// `fsync` on the directory.
        DirSync,
    }

    const FS_OPS: usize = 4;

    impl FsOp {
        fn index(self) -> usize {
            match self {
                FsOp::Write => 0,
                FsOp::Fsync => 1,
                FsOp::Rename => 2,
                FsOp::DirSync => 3,
            }
        }
    }

    /// One scripted fault for a filesystem operation.
    #[derive(Debug, Clone, Copy)]
    pub enum FsFault {
        /// Consume this script slot but perform the operation normally —
        /// the counter that lets a script target the Nth call.
        Pass,
        /// Fail with this raw `errno` (e.g. [`ENOSPC`], [`EIO`]) without
        /// touching the filesystem.
        Errno(i32),
        /// Sleep this many milliseconds *before* performing the operation
        /// — the window a kill-9 test aims SIGKILL into.
        Stall(u64),
    }

    /// One scripted fault for a read call.
    #[derive(Debug, Clone, Copy)]
    pub enum ReadFault {
        /// Return `ECONNRESET` without touching the socket.
        Reset,
        /// Return `Ok(0)` (peer closed) without touching the socket.
        Eof,
    }

    /// One scripted fault for a write call.
    #[derive(Debug, Clone, Copy)]
    pub enum WriteFault {
        /// Deliver at most this many bytes of the requested buffer to the
        /// real socket (a genuine short write: the bytes do go out).
        Short(usize),
        /// Return `ECONNRESET` without writing anything.
        Reset,
    }

    /// The global fault script: FIFO per operation, consumed one entry
    /// per call, passthrough when empty.
    struct Script {
        accept_errors: Vec<i32>,
        reads: Vec<ReadFault>,
        writes: Vec<WriteFault>,
        fs: [Vec<FsFault>; FS_OPS],
    }

    static SCRIPT: Mutex<Script> = Mutex::new(Script {
        accept_errors: Vec::new(),
        reads: Vec::new(),
        writes: Vec::new(),
        fs: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
    });

    /// Scripts the next `accept` to fail with this raw `errno`
    /// (e.g. [`EMFILE`]).
    pub fn inject_accept_error(raw_os: i32) {
        SCRIPT.lock().expect("fault script").accept_errors.push(raw_os);
    }

    /// Scripts a fault for the next read call on any [`FaultStream`].
    pub fn inject_read(fault: ReadFault) {
        SCRIPT.lock().expect("fault script").reads.push(fault);
    }

    /// Scripts a fault for the next write call on any [`FaultStream`].
    pub fn inject_write(fault: WriteFault) {
        SCRIPT.lock().expect("fault script").writes.push(fault);
    }

    /// Scripts a fault for the next filesystem call of `op` performed by
    /// the [`store_io`] shim (FIFO per operation).
    pub fn inject_fs(op: FsOp, fault: FsFault) {
        SCRIPT.lock().expect("fault script").fs[op.index()].push(fault);
    }

    /// Parses a comma-separated fault spec into the filesystem script —
    /// the `UOPS_FAULT_FS` environment-variable format the `serve` binary
    /// consumes at boot so an external harness (the kill-9 recovery test)
    /// can script publish-path faults inside a child process.
    ///
    /// Each token is `op:action` where `op` is `write`, `fsync`,
    /// `rename`, or `dirsync`, and `action` is `pass`, `eio`, `enospc`,
    /// a raw errno number, `stall` (60 s), or `stall=MILLIS`. Unparseable
    /// tokens are ignored.
    ///
    /// Example: `rename:pass,rename:stall=60000` stalls the *second*
    /// rename of a publish (the manifest rename) after letting the
    /// segment rename through.
    pub fn inject_fs_from_env(spec: &str) {
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let Some((op, action)) = token.split_once(':') else { continue };
            let op = match op {
                "write" => FsOp::Write,
                "fsync" => FsOp::Fsync,
                "rename" => FsOp::Rename,
                "dirsync" => FsOp::DirSync,
                _ => continue,
            };
            let fault = match action {
                "pass" => FsFault::Pass,
                "eio" => FsFault::Errno(EIO),
                "enospc" => FsFault::Errno(ENOSPC),
                "stall" => FsFault::Stall(60_000),
                _ => {
                    if let Some(ms) = action.strip_prefix("stall=") {
                        match ms.parse() {
                            Ok(ms) => FsFault::Stall(ms),
                            Err(_) => continue,
                        }
                    } else {
                        match action.parse() {
                            Ok(errno) => FsFault::Errno(errno),
                            Err(_) => continue,
                        }
                    }
                }
            };
            inject_fs(op, fault);
        }
    }

    /// Clears every pending scripted fault (test teardown).
    pub fn reset() {
        let mut script = SCRIPT.lock().expect("fault script");
        script.accept_errors.clear();
        script.reads.clear();
        script.writes.clear();
        for queue in &mut script.fs {
            queue.clear();
        }
    }

    pub(crate) fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        let fault = {
            let mut script = SCRIPT.lock().expect("fault script");
            if script.accept_errors.is_empty() {
                None
            } else {
                Some(script.accept_errors.remove(0))
            }
        };
        match fault {
            Some(errno) => Err(io::Error::from_raw_os_error(errno)),
            None => listener.accept(),
        }
    }

    fn next_read() -> Option<ReadFault> {
        let mut script = SCRIPT.lock().expect("fault script");
        if script.reads.is_empty() {
            None
        } else {
            Some(script.reads.remove(0))
        }
    }

    fn next_write() -> Option<WriteFault> {
        let mut script = SCRIPT.lock().expect("fault script");
        if script.writes.is_empty() {
            None
        } else {
            Some(script.writes.remove(0))
        }
    }

    impl<S: Read> Read for FaultStream<'_, S> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match next_read() {
                None => self.0.read(buf),
                Some(ReadFault::Reset) => Err(io::Error::from_raw_os_error(ECONNRESET)),
                Some(ReadFault::Eof) => Ok(0),
            }
        }
    }

    impl<S: Write> Write for FaultStream<'_, S> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match next_write() {
                None => self.0.write(buf),
                Some(WriteFault::Short(limit)) => {
                    let take = limit.min(buf.len());
                    if take == 0 {
                        return Ok(0);
                    }
                    self.0.write(&buf[..take])
                }
                Some(WriteFault::Reset) => Err(io::Error::from_raw_os_error(ECONNRESET)),
            }
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            match next_write() {
                None => self.0.write_vectored(bufs),
                Some(fault) => {
                    // A faulted vectored write degrades to the first
                    // non-empty slice, mirroring a kernel short-writev.
                    let first = bufs.iter().find(|b| !b.is_empty()).map(|b| &**b).unwrap_or(&[]);
                    match fault {
                        WriteFault::Short(limit) => {
                            let take = limit.min(first.len());
                            if take == 0 {
                                return Ok(0);
                            }
                            self.0.write(&first[..take])
                        }
                        WriteFault::Reset => Err(io::Error::from_raw_os_error(ECONNRESET)),
                    }
                }
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.0.flush()
        }
    }

    fn next_fs(op: FsOp) -> Option<FsFault> {
        let mut script = SCRIPT.lock().expect("fault script");
        let queue = &mut script.fs[op.index()];
        if queue.is_empty() {
            None
        } else {
            Some(queue.remove(0))
        }
    }

    /// Runs one scripted fault (if any) ahead of a real filesystem call.
    /// `Pass` and an empty queue fall through; `Stall` sleeps first (the
    /// kill-9 window) then falls through; `Errno` short-circuits.
    fn fs_gate(op: FsOp) -> io::Result<()> {
        match next_fs(op) {
            None | Some(FsFault::Pass) => Ok(()),
            Some(FsFault::Errno(errno)) => Err(io::Error::from_raw_os_error(errno)),
            Some(FsFault::Stall(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
        }
    }

    /// [`StoreIo`](uops_db::store::StoreIo) that consults the fault
    /// script before each real filesystem mutation.
    struct FaultFs;

    static FAULT_FS: FaultFs = FaultFs;

    impl uops_db::store::StoreIo for FaultFs {
        fn write_file(&self, path: &std::path::Path, bytes: &[u8]) -> io::Result<()> {
            fs_gate(FsOp::Write)?;
            uops_db::store::RealStoreIo.write_file(path, bytes)
        }

        fn fsync_file(&self, path: &std::path::Path) -> io::Result<()> {
            fs_gate(FsOp::Fsync)?;
            uops_db::store::RealStoreIo.fsync_file(path)
        }

        fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> io::Result<()> {
            fs_gate(FsOp::Rename)?;
            uops_db::store::RealStoreIo.rename(from, to)
        }

        fn fsync_dir(&self, dir: &std::path::Path) -> io::Result<()> {
            fs_gate(FsOp::DirSync)?;
            uops_db::store::RealStoreIo.fsync_dir(dir)
        }
    }

    /// The script-consulting [`StoreIo`](uops_db::store::StoreIo) —
    /// fault-injection builds route every store publish through here.
    pub fn store_io() -> &'static dyn uops_db::store::StoreIo {
        &FAULT_FS
    }
}
