//! Workspace-local readiness poller in the style of `mio`'s `Poll`.
//!
//! On Linux this wraps the raw `epoll_create1`/`epoll_ctl`/`epoll_wait`
//! syscalls (declared via `extern "C"` against the libc that `std` already
//! links — no external crate). Everywhere else it falls back to `poll(2)`
//! with an internal registration table, which is slower per wakeup but
//! semantically identical for the level-triggered subset used here. The
//! libc constant values are audited per-OS (linux, macos/ios, freebsd);
//! any other target fails to compile rather than misbehave at runtime.
//!
//! The API surface is deliberately small: register a file descriptor with a
//! [`Token`] and an [`Interest`], call [`Poller::wait`], and get back
//! [`Event`]s. A [`Waker`] (a non-blocking pipe registered under a reserved
//! token) lets other threads interrupt a blocked `wait`.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
use std::time::Duration;

/// Caller-chosen identifier attached to a registered file descriptor and
/// echoed back on every readiness [`Event`] for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Token value reserved for the internal [`Waker`] pipe; never reported.
/// `usize::MAX` rather than `u64::MAX`: reported tokens round-trip through
/// `Token(usize)`, so on 32-bit targets a wider sentinel would come back
/// truncated, never match, and leak waker events to the caller.
const WAKER_TOKEN: u64 = usize::MAX as u64;

/// Which readiness classes a registration is interested in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Interest in neither read nor write readiness — only error/hangup
    /// conditions (which both backends always report) wake the poller.
    /// Used to keep watching a connection for disconnects while
    /// backpressure masks its reads.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
    /// Interest in read readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Interest in write readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Interest in both read and write readiness.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Whether read readiness is requested.
    pub fn is_readable(self) -> bool {
        self.readable
    }

    /// Whether write readiness is requested.
    pub fn is_writable(self) -> bool {
        self.writable
    }
}

/// A single readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    error: bool,
    hangup: bool,
}

impl Event {
    /// Token the triggering fd was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Read readiness (includes hangup/error so a subsequent `read` observes
    /// the condition instead of the connection stalling).
    pub fn is_readable(&self) -> bool {
        self.readable || self.error || self.hangup
    }

    /// Write readiness (includes error for the same reason).
    pub fn is_writable(&self) -> bool {
        self.writable || self.error
    }

    /// An error condition was reported for the fd.
    pub fn is_error(&self) -> bool {
        self.error
    }

    /// Peer hung up.
    pub fn is_hangup(&self) -> bool {
        self.hangup
    }
}

/// Reusable buffer of [`Event`]s filled by [`Poller::wait`].
#[derive(Default)]
pub struct Events {
    inner: Vec<Event>,
}

impl Events {
    /// Creates an empty event buffer. Capacity grows on demand; `wait`
    /// reports at most 1024 events per call.
    pub fn new() -> Events {
        Events::default()
    }

    /// Iterates over the events from the most recent `wait`.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.inner.iter()
    }

    /// Number of events from the most recent `wait`.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the most recent `wait` returned no events.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

const MAX_EVENTS_PER_WAIT: usize = 1024;

/// Handle that interrupts a [`Poller::wait`] from another thread.
///
/// Internally the write end of a non-blocking pipe whose read end the poller
/// owns and drains; wakes coalesce while the pipe is non-empty.
pub struct Waker {
    write_fd: RawFd,
}

// The write end of the pipe is only ever touched via `write(2)`.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Interrupts a concurrent or subsequent `wait`. Never blocks; a full
    /// pipe already guarantees the pending wake.
    pub fn wake(&self) {
        let byte = [1u8];
        // EAGAIN means a wake is already pending; anything else is ignored
        // because there is no meaningful recovery for a failed self-wake.
        unsafe { write(self.write_fd, byte.as_ptr() as *const c_void, 1) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { close(self.write_fd) };
    }
}

/// Readiness poller over a set of registered file descriptors.
pub struct Poller {
    imp: Imp,
    /// Read end of the waker pipe, drained inside `wait`.
    waker_read_fd: RawFd,
    waker_write_fd: RawFd,
}

impl Poller {
    /// Creates a poller with its waker pipe already registered.
    pub fn new() -> io::Result<Poller> {
        let (read_fd, write_fd) = waker_pipe()?;
        let imp = Imp::new()?;
        let mut poller = Poller {
            imp,
            waker_read_fd: read_fd,
            waker_write_fd: write_fd,
        };
        poller.register_raw(read_fd, WAKER_TOKEN, Interest::READABLE)?;
        Ok(poller)
    }

    /// Returns a [`Waker`] for this poller. The waker owns a duplicate of
    /// the pipe's write end, so it stays valid independently of the poller.
    pub fn waker(&self) -> io::Result<Waker> {
        let fd = unsafe { fcntl_int(self.waker_write_fd, F_DUPFD_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker { write_fd: fd })
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.register_raw(fd, token.0 as u64, interest)
    }

    fn register_raw(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.imp.register(fd, token, interest)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.imp.reregister(fd, token.0 as u64, interest)
    }

    /// Removes `fd` from the poller. The fd must still be open.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.imp.deregister(fd)
    }

    /// Blocks until at least one registered fd is ready, the timeout lapses,
    /// or a [`Waker`] fires. Waker notifications are drained internally and
    /// not reported as events.
    pub fn wait(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();
        self.imp.wait(&mut events.inner, timeout)?;
        let mut woken = false;
        events.inner.retain(|ev| {
            if ev.token.0 as u64 == WAKER_TOKEN {
                woken = true;
                false
            } else {
                true
            }
        });
        if woken {
            self.drain_waker();
        }
        Ok(())
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe {
                read(
                    self.waker_read_fd,
                    buf.as_mut_ptr() as *mut c_void,
                    buf.len(),
                )
            };
            if n <= 0 {
                break;
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.waker_read_fd);
            close(self.waker_write_fd);
        }
    }
}

// ---------------------------------------------------------------------------
// libc declarations shared by both backends. `std` links libc on every
// supported platform, so these resolve without adding a dependency.
// ---------------------------------------------------------------------------

// F_GETFL/F_SETFL share their values across every supported platform; the
// constants that differ are gated per-OS below. An unaudited target is a
// compile error, not silently-wrong syscalls (a mis-valued O_NONBLOCK, for
// instance, would leave the waker pipe blocking and wedge the reactor).
const F_SETFL: c_int = 4;
const F_GETFL: c_int = 3;

#[cfg(target_os = "linux")]
mod os_consts {
    use super::c_int;
    pub const F_DUPFD_CLOEXEC: c_int = 1030;
    pub const O_NONBLOCK: c_int = 0o4000;
}

#[cfg(any(target_os = "macos", target_os = "ios"))]
mod os_consts {
    use super::c_int;
    pub const F_DUPFD_CLOEXEC: c_int = 67;
    pub const O_NONBLOCK: c_int = 0x4;
}

#[cfg(target_os = "freebsd")]
mod os_consts {
    use super::c_int;
    pub const F_DUPFD_CLOEXEC: c_int = 17;
    pub const O_NONBLOCK: c_int = 0x4;
}

#[cfg(not(any(
    target_os = "linux",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd"
)))]
compile_error!(
    "the epoll shim's libc constants have only been audited for \
     linux/macos/ios/freebsd; add an os_consts module for this target"
);

use os_consts::{F_DUPFD_CLOEXEC, O_NONBLOCK};

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn pipe(fds: *mut c_int) -> c_int;
    #[link_name = "fcntl"]
    fn fcntl_int(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
}

fn set_nonblocking_fd(fd: RawFd) -> io::Result<()> {
    let flags = unsafe { fcntl_int(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    if unsafe { fcntl_int(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

fn waker_pipe() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0 as c_int; 2];
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    for fd in fds {
        if let Err(e) = set_nonblocking_fd(fd) {
            unsafe {
                close(fds[0]);
                close(fds[1]);
            }
            return Err(e);
        }
    }
    Ok((fds[0], fds[1]))
}

fn timeout_millis(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        // Round up so a 100µs timeout does not spin as 0ms.
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(c_int::MAX as u128) as c_int,
    }
}

// ---------------------------------------------------------------------------
// Linux backend: raw epoll.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    // The kernel ABI packs epoll_event on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    pub(super) struct Imp {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Imp {
        pub(super) fn new() -> io::Result<Imp> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Imp {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS_PER_WAIT],
            })
        }

        fn interest_bits(interest: Interest) -> u32 {
            let mut bits = EPOLLRDHUP;
            if interest.is_readable() {
                bits |= EPOLLIN;
            }
            if interest.is_writable() {
                bits |= EPOLLOUT;
            }
            bits
        }

        fn ctl(&mut self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: Self::interest_bits(interest),
                data: token,
            };
            let arg = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev
            };
            if unsafe { epoll_ctl(self.epfd, op, fd, arg) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(&mut self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, i)
        }

        pub(super) fn reregister(&mut self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, i)
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READABLE)
        }

        pub(super) fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let millis = timeout_millis(timeout);
            let n = loop {
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        millis,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for raw in &self.buf[..n] {
                let bits = raw.events;
                out.push(Event {
                    token: Token(raw.data as usize),
                    readable: bits & EPOLLIN != 0 || bits & EPOLLRDHUP != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & EPOLLERR != 0,
                    hangup: bits & EPOLLHUP != 0 || bits & EPOLLRDHUP != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Imp {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------------
// Portable backend: poll(2) over an internal registration table.
// ---------------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::*;
    use std::collections::HashMap;
    use std::os::raw::{c_short, c_ulong};

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    pub(super) struct Imp {
        registry: HashMap<RawFd, (u64, Interest)>,
    }

    impl Imp {
        pub(super) fn new() -> io::Result<Imp> {
            Ok(Imp {
                registry: HashMap::new(),
            })
        }

        pub(super) fn register(&mut self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
            if self.registry.insert(fd, (token, i)).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            Ok(())
        }

        pub(super) fn reregister(&mut self, fd: RawFd, token: u64, i: Interest) -> io::Result<()> {
            match self.registry.get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, i);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub(super) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            match self.registry.remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub(super) fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let mut fds: Vec<PollFd> = Vec::with_capacity(self.registry.len());
            let mut tokens: Vec<u64> = Vec::with_capacity(self.registry.len());
            for (&fd, &(token, interest)) in &self.registry {
                let mut events = 0;
                if interest.is_readable() {
                    events |= POLLIN;
                }
                if interest.is_writable() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
                tokens.push(token);
            }
            let millis = timeout_millis(timeout);
            let n = loop {
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, millis) };
                if n >= 0 {
                    break n;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (slot, token) in fds.iter().zip(tokens) {
                let bits = slot.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token: Token(token as usize),
                    readable: bits & POLLIN != 0,
                    writable: bits & POLLOUT != 0,
                    error: bits & POLLERR != 0,
                    hangup: bits & POLLHUP != 0,
                });
                if out.len() == MAX_EVENTS_PER_WAIT {
                    break;
                }
            }
            Ok(())
        }
    }
}

use imp::Imp;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn wait_times_out_with_no_events() {
        let mut poller = Poller::new().unwrap();
        let mut events = Events::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn waker_interrupts_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = Arc::new(poller.waker().unwrap());
        let w = Arc::clone(&waker);
        let handle = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            w.wake();
        });
        let mut events = Events::new();
        let start = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        // Waker events are internal, not reported.
        assert!(events.is_empty());
        handle.join().unwrap();
        // A second wait must not see a stale wake.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn reports_read_readiness_on_tcp_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), Token(7), Interest::READABLE)
            .unwrap();

        let mut events = Events::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "no data yet");

        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().next().expect("readable event");
        assert_eq!(ev.token(), Token(7));
        assert!(ev.is_readable());

        let mut server = server;
        let mut buf = [0u8; 16];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn reregister_switches_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        drop(client);

        let mut poller = Poller::new().unwrap();
        let fd = server.as_raw_fd();
        poller.register(fd, Token(1), Interest::WRITABLE).unwrap();

        let mut events = Events::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == Token(1) && e.is_writable()));

        poller.reregister(fd, Token(2), Interest::READABLE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        // Peer closed, so read readiness (EOF) is reported under the new token.
        assert!(events
            .iter()
            .any(|e| e.token() == Token(2) && e.is_readable()));

        poller.deregister(fd).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
    }
}
