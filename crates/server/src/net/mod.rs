//! The server's transport: epoll reactor shards.
//!
//! `N` reactor shards (`reactor`), each a single thread running an
//! edge-triggered `epoll` loop over its own `SO_REUSEPORT` listener
//! (`listener`) and a slab of non-blocking connection state machines.
//! A parked connection costs a slab entry and an fd — buffers are
//! allocated lazily on first byte — so tens of thousands of idle
//! keep-alive connections fit in a few megabytes, while a busy pipelined
//! connection keeps its shard hot. A request is answered on the shard
//! that owns its connection; an uncached query executes there inline,
//! and only an ingest's publish is handed to a separate thread.
//! Idle-timeout eviction rides a coarse lazy timer wheel (`timer`)
//! ticked from the `epoll_wait` timeout.
//!
//! Everything sits on hand-declared syscall bindings in `sys` — std
//! already links libc, so the prototypes are declared and called
//! directly — because `std` exposes neither epoll nor `SO_REUSEPORT`.
//! No external crates.

pub(crate) mod listener;
pub(crate) mod reactor;
pub(crate) mod sys;
pub(crate) mod timer;

pub use sys::{SignalPipe, SIGINT, SIGTERM};

/// Raises the process `RLIMIT_NOFILE` soft limit toward `want` and
/// returns the soft limit actually in effect afterwards.
///
/// Each reactor connection holds an fd, so a 10k-connection target needs
/// headroom beyond the common 1024-soft default. Raising the soft limit
/// up to the hard limit needs no privilege; going past the hard limit is
/// attempted too (it works when running as root) but failure is not an
/// error — the caller sizes its ambitions to the returned value. Public
/// for the bench harness.
pub fn raise_nofile_limit(want: u64) -> u64 {
    sys::raise_nofile_limit(want)
}

/// This process's resident set size in bytes (from `/proc/self/statm`),
/// or `None` if it cannot be read. Public for the bench harness, which
/// gates per-connection memory of the reactor under 10k idle
/// connections.
pub fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    let page_size = sys::page_size();
    Some(resident_pages * page_size)
}

#[cfg(test)]
mod tests {
    use crate::http::{write_resumable, WriteProgress};
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn rss_is_readable_and_plausible() {
        let rss = super::rss_bytes().expect("statm");
        assert!(rss > 64 * 1024, "a Rust test binary resident set is >64KiB, got {rss}");
    }

    /// Satellite for the resumable-write path: drive a response into a
    /// socket whose send buffer is genuinely full, observe the
    /// `WouldBlock` park, drain the peer, and resume from the cursor —
    /// the bytes on the wire must come out exactly once and in order.
    #[test]
    fn full_send_buffer_parks_write_and_resumes_from_cursor() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut tx = TcpStream::connect(addr).expect("connect");
        let (rx, _) = listener.accept().expect("accept");

        // Shrink the send buffer so it fills fast (the kernel doubles and
        // clamps the value; whatever it lands on, the payload below is
        // far larger), then go non-blocking so a full buffer surfaces as
        // EAGAIN instead of parking the thread.
        super::sys::set_socket_option(tx.as_raw_fd(), super::sys::SO_SNDBUF, 4 * 1024)
            .expect("SO_SNDBUF");
        tx.set_nonblocking(true).expect("nonblocking");

        let head = b"HTTP/1.1 200 OK\r\ncontent-length: 1048576\r\n\r\n".to_vec();
        let body = vec![0xA5u8; 1 << 20];
        let total = head.len() + body.len();

        let mut cursor = 0;
        let mut parks = 0;
        let mut received = Vec::with_capacity(total);
        let mut scratch = vec![0u8; 64 * 1024];
        let mut rx_nonblocking = rx;
        rx_nonblocking.set_nonblocking(true).expect("nonblocking rx");
        loop {
            match write_resumable(&mut tx, &head, &body, &mut cursor).expect("write") {
                WriteProgress::Complete => break,
                WriteProgress::Pending => {
                    parks += 1;
                    assert!(cursor < total, "pending implies bytes remain");
                    // Drain whatever the peer has, freeing send-buffer
                    // space so the resumed write can progress.
                    loop {
                        match rx_nonblocking.read(&mut scratch) {
                            Ok(0) => panic!("peer closed early"),
                            Ok(n) => received.extend_from_slice(&scratch[..n]),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) => panic!("read: {e}"),
                        }
                    }
                }
            }
        }
        assert!(parks > 0, "a 1MiB response through a ~8KiB send buffer must park");
        drop(tx);
        rx_nonblocking.set_nonblocking(false).expect("blocking rx");
        rx_nonblocking.read_to_end(&mut received).expect("drain tail");

        assert_eq!(received.len(), total);
        assert_eq!(&received[..head.len()], &head[..]);
        assert_eq!(&received[head.len()..], &body[..]);
    }
}
