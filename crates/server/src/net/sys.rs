//! Hand-declared Linux kernel-interface bindings for the event-driven
//! transport: `epoll`, `eventfd`, raw socket setup (`SO_REUSEPORT` must
//! be set *before* `bind`, which `std` cannot do), `fcntl(O_NONBLOCK)`,
//! and `RLIMIT_NOFILE`.
//!
//! The build is std-only with no crates.io access, so instead of the
//! `libc` crate this module declares the C-library symbols it needs
//! directly — `std` already links libc on Linux, so no extra linkage is
//! required. `epoll`,
//! `eventfd`, and these constant values are Linux-specific, which is why
//! the whole crate refuses to build on other targets.
//!
//! The one ABI subtlety worth calling out: `struct epoll_event` is
//! `__attribute__((packed))` on x86/x86-64 (a 12-byte struct) but
//! naturally aligned (16 bytes) everywhere else, so [`EpollEvent`]
//! mirrors that with `cfg_attr` — getting it wrong corrupts the `data`
//! tokens the reactor uses to find connections.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicI32, Ordering};

use core::ffi::c_void;

// epoll_create1 / eventfd flags (octal 0o2000000 == O_CLOEXEC).
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

// epoll_ctl ops.
const EPOLL_CTL_ADD: i32 = 1;

/// Readable readiness.
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Peer shut down its write half (half-close detection without a read).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub(crate) const EPOLLET: u32 = 1 << 31;

// fcntl.
const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0o4000;

// socket(2) / setsockopt(2).
const AF_INET: i32 = 2;
const AF_INET6: i32 = 10;
const SOCK_STREAM: i32 = 1;
const SOCK_CLOEXEC: i32 = 0o2000000;
const SOL_SOCKET: i32 = 1;
const SO_REUSEADDR: i32 = 2;
/// `SO_SNDBUF` (exposed for tests that shrink a socket's send buffer to
/// force mid-response `EAGAIN`).
#[cfg(test)]
pub(crate) const SO_SNDBUF: i32 = 7;
const SO_REUSEPORT: i32 = 15;

// getrlimit/setrlimit resource.
const RLIMIT_NOFILE: i32 = 7;

// signal(2) numbers for the serve binary's graceful-shutdown path.
/// `SIGINT` (interactive interrupt, Ctrl-C).
pub const SIGINT: i32 = 2;
/// `SIGTERM` (polite termination, e.g. from an orchestrator).
pub const SIGTERM: i32 = 15;
// pipe2 flag (same octal value as the CLOEXEC flags above).
const O_CLOEXEC: i32 = 0o2000000;

// sysconf name.
const SC_PAGESIZE: i32 = 30;

/// One `struct epoll_event`: interest/readiness flags plus the caller's
/// 64-bit token. Packed on x86/x86-64, naturally aligned elsewhere — see
/// the module docs.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpollEvent {
    /// `EPOLLIN | EPOLLOUT | ...` interest (in) or readiness (out) bits.
    pub events: u32,
    /// Caller-owned token, returned verbatim with each event.
    pub data: u64,
}

/// `struct rlimit` on 64-bit Linux (`rlim_t` is `u64`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

/// `struct sockaddr_in`; `sin_port`/`sin_addr` are big-endian.
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// `struct sockaddr_in6`; `sin6_port`/`sin6_addr` are big-endian.
#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const c_void, optlen: u32) -> i32;
    fn bind(fd: i32, addr: *const c_void, addrlen: u32) -> i32;
    fn listen(fd: i32, backlog: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn sysconf(name: i32) -> i64;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
    fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
}

/// The system page size (`sysconf(_SC_PAGESIZE)`), for converting
/// `/proc/self/statm` page counts to bytes; falls back to 4096.
pub(crate) fn page_size() -> u64 {
    // SAFETY: plain sysconf; -1 (error) falls back to the x86-64 default.
    let size = unsafe { sysconf(SC_PAGESIZE) };
    if size > 0 {
        size as u64
    } else {
        4096
    }
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Puts `fd` into non-blocking mode via `fcntl(F_SETFL, ... | O_NONBLOCK)`.
pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: plain fcntl on a caller-owned fd; errors surface as -1.
    let flags = check(unsafe { fcntl(fd, F_GETFL) })?;
    // SAFETY: as above; the third variadic argument is an int, as the
    // F_SETFL contract requires.
    check(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
    Ok(())
}

/// Sets an integer socket option (`setsockopt(fd, SOL_SOCKET, opt, &value)`).
pub(crate) fn set_socket_option(fd: RawFd, option: i32, value: i32) -> io::Result<()> {
    // SAFETY: optval points at a live i32 for the duration of the call,
    // with optlen matching its size.
    check(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            option,
            std::ptr::addr_of!(value).cast::<c_void>(),
            std::mem::size_of::<i32>() as u32,
        )
    })?;
    Ok(())
}

/// Creates a non-blocking TCP socket with `SO_REUSEADDR` + `SO_REUSEPORT`
/// set, bound to `addr` and listening — everything `std`'s
/// `TcpListener::bind` does, except the reuse-port option lands *before*
/// `bind` (the only order the kernel accepts), which is what lets N
/// acceptor shards own N distinct listening sockets on one port.
pub(crate) fn bind_reuseport_listener(
    addr: std::net::SocketAddr,
    backlog: i32,
) -> io::Result<OwnedFd> {
    let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
    // SAFETY: plain socket(2); a negative return is an error, a
    // non-negative one is a fresh fd we immediately take ownership of.
    let raw = check(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
    // SAFETY: `raw` is a live fd owned by nobody else yet.
    let fd = unsafe { OwnedFd::from_raw_fd(raw) };
    set_socket_option(fd.as_raw_fd(), SO_REUSEADDR, 1)?;
    set_socket_option(fd.as_raw_fd(), SO_REUSEPORT, 1)?;
    match addr {
        std::net::SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: `sa` is a properly populated sockaddr_in living
            // across the call, with addrlen matching its size.
            check(unsafe {
                bind(
                    fd.as_raw_fd(),
                    std::ptr::addr_of!(sa).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            })?;
        }
        std::net::SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo().to_be(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            // SAFETY: as for the v4 arm.
            check(unsafe {
                bind(
                    fd.as_raw_fd(),
                    std::ptr::addr_of!(sa).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            })?;
        }
    }
    // SAFETY: listen on our own bound fd.
    check(unsafe { listen(fd.as_raw_fd(), backlog) })?;
    set_nonblocking(fd.as_raw_fd())?;
    Ok(fd)
}

/// Raises the soft `RLIMIT_NOFILE` toward `want` (capped by the hard
/// limit, which a privileged process may also raise), returning the soft
/// limit actually in force afterwards. Never errors: on any failure the
/// current (unchanged) limit is returned — callers scale their fd use to
/// the returned value.
pub(crate) fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = Rlimit { rlim_cur: 0, rlim_max: 0 };
    // SAFETY: getrlimit writes into a live struct of the right layout.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 1024; // the conventional default soft limit
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    let target = Rlimit { rlim_cur: want.min(lim.rlim_max), rlim_max: lim.rlim_max };
    if target.rlim_max < want {
        // Only root may raise the hard limit; try, and fall back to the
        // existing hard limit if the kernel says no.
        let raised = Rlimit { rlim_cur: want, rlim_max: want };
        // SAFETY: setrlimit reads a live struct of the right layout.
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            return want;
        }
    }
    // SAFETY: as above.
    if unsafe { setrlimit(RLIMIT_NOFILE, &target) } == 0 {
        target.rlim_cur
    } else {
        lim.rlim_cur
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: plain epoll_create1; non-negative return is a fresh fd.
        let raw = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `raw` is a live fd owned by nobody else.
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(raw) } })
    }

    /// Registers `fd` for `events`, tagging its readiness reports with
    /// `token`. Registration happens exactly once per connection — with
    /// `EPOLLIN | EPOLLOUT | EPOLLET` the reactor never issues per-state
    /// `epoll_ctl` calls afterwards.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data: token };
        // SAFETY: `event` is a live, properly laid out epoll_event; the
        // kernel copies it before returning.
        check(unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) })?;
        Ok(())
    }

    /// Waits up to `timeout_ms` for readiness, filling `events` from the
    /// front; returns how many entries are valid. `EINTR` reports as zero
    /// events rather than an error (the reactor's timer tick handles the
    /// early return).
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a live, writable, properly laid out array of
        // epoll_events; maxevents matches its length.
        let n = unsafe {
            epoll_wait(
                self.fd.as_raw_fd(),
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

/// An `eventfd(2)`-backed wakeup channel: any thread may
/// [`EventFd::notify`] to make the owning reactor's `epoll_wait` return
/// (the shutdown path). Non-blocking on both ends.
#[derive(Debug)]
pub(crate) struct EventFd {
    file: File,
}

impl EventFd {
    /// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub(crate) fn new() -> io::Result<EventFd> {
        // SAFETY: plain eventfd; non-negative return is a fresh fd.
        let raw = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: `raw` is a live fd owned by nobody else; File's Drop
        // closes it.
        Ok(EventFd { file: unsafe { File::from_raw_fd(raw) } })
    }

    /// The fd to register with epoll.
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Adds 1 to the counter, waking any epoll waiting on it. Failures
    /// (counter saturation) are ignored: the waiter is awake either way.
    pub(crate) fn notify(&self) {
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Drains the counter so the readable edge can fire again.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

/// Write end of the self-pipe, stashed for the signal handler (`-1`
/// until [`SignalPipe::install`] runs). Intentionally never closed: the
/// handler may fire at any point for the rest of the process.
static SIGNAL_WRITE_FD: AtomicI32 = AtomicI32::new(-1);
/// The most recently delivered signal number.
static LAST_SIGNAL: AtomicI32 = AtomicI32::new(0);

/// The signal handler: async-signal-safe by construction — two atomic
/// operations and one `write(2)` of a single byte into the self-pipe.
extern "C" fn on_signal(signum: i32) {
    LAST_SIGNAL.store(signum, Ordering::SeqCst);
    let fd = SIGNAL_WRITE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: write(2) is on the async-signal-safe list; the fd is
        // kept open for the life of the process.
        unsafe { write(fd, std::ptr::addr_of!(byte).cast::<c_void>(), 1) };
    }
}

/// `SIGTERM`/`SIGINT` notification via the classic self-pipe trick: the
/// handler writes one byte into a pipe, and [`SignalPipe::wait`] blocks
/// reading the other end — keeping all real work out of signal context.
///
/// Used by the `serve` binary for graceful drain; install once per
/// process (a second install replaces the first pipe's write end).
pub struct SignalPipe {
    read: File,
}

impl SignalPipe {
    /// Creates the pipe and installs the handler for `SIGTERM` and
    /// `SIGINT`.
    ///
    /// # Errors
    ///
    /// Propagates `pipe2(2)` failure.
    pub fn install() -> io::Result<SignalPipe> {
        let mut fds = [-1i32; 2];
        // SAFETY: pipe2 writes two fds into a live array of two i32s.
        check(unsafe { pipe2(fds.as_mut_ptr(), O_CLOEXEC) })?;
        SIGNAL_WRITE_FD.store(fds[1], Ordering::SeqCst);
        // SAFETY: installing a handler that performs only
        // async-signal-safe operations (see `on_signal`).
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
        // SAFETY: fds[0] is a fresh fd owned by nobody else; File's Drop
        // closes it.
        Ok(SignalPipe { read: unsafe { File::from_raw_fd(fds[0]) } })
    }

    /// Blocks until a signal arrives, then returns its number
    /// (`SIGTERM`/`SIGINT`).
    pub fn wait(&mut self) -> i32 {
        let mut byte = [0u8; 1];
        loop {
            match self.read.read(&mut byte) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A read byte, EOF, or a hard error all mean "stop
                // waiting"; the atomic carries the signal number.
                _ => return LAST_SIGNAL.load(Ordering::SeqCst),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_layout_matches_the_kernel_abi() {
        // 12 packed bytes on x86/x86-64, 16 aligned bytes elsewhere.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 12);
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        assert_eq!(std::mem::size_of::<EpollEvent>(), 16);
    }

    #[test]
    fn eventfd_wakes_an_epoll_wait() {
        let epoll = Epoll::new().expect("epoll");
        let wake = EventFd::new().expect("eventfd");
        epoll.add(wake.raw_fd(), EPOLLIN, 7).expect("add");

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0, "nothing pending yet");

        wake.notify();
        let n = epoll.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 7);

        wake.drain();
        assert_eq!(epoll.wait(&mut events, 0).expect("wait"), 0, "drained");
    }

    #[test]
    fn reuseport_listeners_share_a_port() {
        let first = bind_reuseport_listener("127.0.0.1:0".parse().expect("addr"), 64)
            .map(|fd| {
                // SAFETY: transferring sole ownership of the bound fd.
                unsafe {
                    std::net::TcpListener::from_raw_fd(std::os::fd::IntoRawFd::into_raw_fd(fd))
                }
            })
            .expect("bind first");
        let addr = first.local_addr().expect("addr");
        // A second listener on the *same* concrete port must succeed —
        // that is the whole point of SO_REUSEPORT.
        let second = bind_reuseport_listener(addr, 64).expect("bind second");
        drop(second);
        drop(first);
    }

    #[test]
    fn nofile_limit_reports_a_sane_value() {
        let limit = raise_nofile_limit(1024);
        assert!(limit >= 256, "soft fd limit suspiciously low: {limit}");
    }
}
