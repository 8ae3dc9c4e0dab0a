//! Readiness polling for the event-driven acceptor (DESIGN.md §7.9).
//!
//! A hand-rolled epoll wrapper over direct `extern "C"` bindings — the
//! workspace stays dependency-free, so no `libc`/`mio`. Only the three
//! epoll calls (plus `close`) are bound; everything else the transport
//! needs (`set_nonblocking`, `set_nodelay`, timeouts) already exists in
//! std. Serving needs Linux epoll: this module holds the whole platform
//! split, and on other targets [`Poller::new`] returns
//! `ErrorKind::Unsupported`, which `Server::start` passes on.
//!
//! The wrapper is level-triggered: an fd with unread bytes (or unflushed
//! write space, when write interest is armed) reports ready on every
//! `wait`, so the event loop never needs to track edge state. Tokens are
//! caller-chosen `u64`s carried in the kernel's per-fd user data; [`WAKE`]
//! is reserved for the poller's own wake pipe ([`Registrar::wake`]).

use std::io;
use std::sync::Arc;
use std::time::Duration;

pub use sys::{fd_of, Fd, Source};

/// The token [`Poller::wait`] reports after a [`Registrar::wake`]; the
/// wake bytes are already drained when the event is returned.
pub const WAKE: u64 = u64::MAX;

/// What to watch an fd for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest (the common case: heads and accepts).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest (a shed response is still being flushed).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Bytes (or an EOF) are waiting to be read.
    pub readable: bool,
    /// The socket can accept more outgoing bytes.
    pub writable: bool,
    /// Peer hung up or the socket errored; the fd should be torn down
    /// after draining whatever [`Event::readable`] still delivers.
    pub hangup: bool,
}

/// An interest-set change.
#[derive(Clone, Copy, Debug)]
enum Op {
    Add,
    Modify,
    Remove,
}

#[cfg(target_os = "linux")]
mod sys {
    //! The raw epoll surface. `epoll_event` is packed on x86-64 (and only
    //! there) to match the kernel ABI.

    use super::{Event, Interest, Op, WAKE};
    use std::io::{self, Read, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// Anything with an fd the poller can watch.
    pub use std::os::fd::AsRawFd as Source;

    /// A source's raw fd: `Copy`, and itself a [`Source`], so a source can
    /// be registered after it has been moved elsewhere.
    pub type Fd = std::os::fd::RawFd;

    /// The raw fd of `src`.
    pub fn fd_of(src: &impl Source) -> Fd {
        src.as_raw_fd()
    }

    #[allow(non_camel_case_types)]
    type c_int = i32;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    /// Events fetched per `epoll_wait`.
    const BATCH: usize = 64;

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
            timeout_ms: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// The epoll fd and the socket pair that wakes it; the fd closes when
    /// the last [`super::Poller`]/[`super::Registrar`] sharing it is gone.
    pub struct Epoll {
        fd: c_int,
        wake_rx: UnixStream,
        wake_tx: UnixStream,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            // SAFETY: a plain syscall; the result is checked below.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let ep = Epoll {
                fd,
                wake_rx,
                wake_tx,
            };
            ep.ctl(Op::Add, &ep.wake_rx, WAKE, Interest::READ)?;
            Ok(ep)
        }

        pub fn ctl(
            &self,
            op: Op,
            src: &impl Source,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let op = match op {
                Op::Add => 1,
                Op::Remove => 2,
                Op::Modify => 3,
            };
            let mut bits = EPOLLRDHUP;
            if interest.readable {
                bits |= EPOLLIN;
            }
            if interest.writable {
                bits |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: bits,
                data: token,
            };
            // SAFETY: `self.fd` is an open epoll fd (closed only when this
            // value drops) and `ev` is a live, correctly laid out event
            // struct; a bad source fd is reported through the return code.
            let rc = unsafe { epoll_ctl(self.fd, op, src.as_raw_fd(), &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// A full pipe means wakes are already pending, so a failed write
        /// is success.
        pub fn wake(&self) {
            let _ = (&self.wake_tx).write(&[1u8]);
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => d.as_millis().min(i32::MAX as u128) as c_int,
            };
            let mut raw = [EpollEvent { events: 0, data: 0 }; BATCH];
            let n = loop {
                // SAFETY: `raw` is a live buffer of `BATCH` events for the
                // kernel to fill.
                let rc =
                    unsafe { epoll_wait(self.fd, raw.as_mut_ptr(), BATCH as c_int, timeout_ms) };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &raw[..n] {
                // copy out of the (possibly packed) kernel struct by value
                let bits = ev.events;
                let token = ev.data;
                if token == WAKE {
                    let mut sink = [0u8; 64];
                    while matches!((&self.wake_rx).read(&mut sink), Ok(k) if k > 0) {}
                }
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: the fd came from `epoll_create1` and nothing else owns
            // it; the last sharer is dropping, so no later call can use it.
            unsafe { close(self.fd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! No readiness polling off Linux: no poller can be built, so the
    //! methods below are unreachable.

    use super::{Event, Interest, Op};
    use std::io;
    use std::time::Duration;

    /// Anything the poller could watch (nothing, on this target).
    pub trait Source {}
    impl<T> Source for T {}

    /// A source's raw fd (none, on this target).
    pub type Fd = ();

    /// The raw fd of `src` (none, on this target).
    pub fn fd_of(_: &impl Source) -> Fd {}

    pub enum Epoll {}

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "serving needs epoll readiness polling (Linux)",
            ))
        }

        pub fn ctl(&self, _: Op, _: &impl Source, _: u64, _: Interest) -> io::Result<()> {
            match *self {}
        }

        pub fn wake(&self) {
            match *self {}
        }

        pub fn wait(&self, _: &mut Vec<Event>, _: Option<Duration>) -> io::Result<usize> {
            match *self {}
        }
    }
}

/// An epoll instance with its wake pipe.
pub struct Poller {
    epoll: Arc<sys::Epoll>,
}

/// A `Send + Sync` handle that registers fds with a [`Poller`]'s epoll set
/// and wakes its `wait` from other threads (workers hand finished
/// keep-alive connections back this way). It shares ownership of the epoll
/// fd, so the fd stays open while any handle lives: a handle that outlives
/// its poller registers into a set nobody waits on, never into a closed or
/// recycled fd number.
#[derive(Clone)]
pub struct Registrar {
    epoll: Arc<sys::Epoll>,
}

impl Registrar {
    /// Registers `src` under `token`, exactly as [`Poller::add`].
    pub fn add(&self, src: &impl Source, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.ctl(Op::Add, src, token, interest)
    }

    /// Makes the poller's current or next `wait` return a [`WAKE`] event.
    pub fn wake(&self) {
        self.epoll.wake();
    }
}

impl Poller {
    /// A fresh epoll instance (`ErrorKind::Unsupported` off Linux).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epoll: Arc::new(sys::Epoll::new()?),
        })
    }

    /// A cross-thread registration handle on this poller's epoll set.
    pub fn registrar(&self) -> Registrar {
        Registrar {
            epoll: Arc::clone(&self.epoll),
        }
    }

    /// Registers `src` under `token`.
    pub fn add(&self, src: &impl Source, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.ctl(Op::Add, src, token, interest)
    }

    /// Changes the interest set of a registered source.
    pub fn modify(&self, src: &impl Source, token: u64, interest: Interest) -> io::Result<()> {
        self.epoll.ctl(Op::Modify, src, token, interest)
    }

    /// Deregisters `src` (ownership of it is handed elsewhere, e.g. to a
    /// worker thread).
    pub fn remove(&self, src: &impl Source) -> io::Result<()> {
        self.epoll.ctl(Op::Remove, src, 0, Interest::default())
    }

    /// Blocks for readiness up to `timeout` (`None` = forever) and appends
    /// the ready set to `out`. Returns how many events fired. `EINTR`
    /// retries internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.epoll.wait(out, timeout)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn readable_event_fires_when_bytes_land() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        poller.add(&rx, 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // nothing yet: a short wait times out with no events
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        tx.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].hangup);
    }

    #[test]
    fn half_close_reports_hangup_and_eof() {
        let poller = Poller::new().unwrap();
        let (tx, mut rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        poller.add(&rx, 9, Interest::READ).unwrap();

        // peer shuts down its write side without sending anything — the
        // half-closed connection must still wake the poller (RDHUP), and
        // the read side must observe a clean EOF so the conn can be reaped
        tx.shutdown(std::net::Shutdown::Write).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 9);
        assert!(events[0].hangup, "half-close must flag hangup");
        let mut buf = [0u8; 8];
        assert_eq!(rx.read(&mut buf).unwrap(), 0, "EOF after half-close");
    }

    #[test]
    fn registrar_adds_and_wakes_from_another_thread_and_outlives_the_poller() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let registrar = poller.registrar();
        std::thread::scope(|s| {
            s.spawn(|| {
                registrar.add(&rx, 5, Interest::READ).unwrap();
                registrar.wake();
                registrar.wake(); // coalesces into the same drained event
            });
        });
        tx.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, [5, WAKE]);

        // the wake bytes were drained: the next wait reports only the fd
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.iter().all(|e| e.token == 5), "{events:?}");

        // the epoll fd stays open for a handle that outlives the poller
        let late = poller.registrar();
        drop(poller);
        let (_tx2, rx2) = UnixStream::pair().unwrap();
        late.add(&rx2, 6, Interest::READ).unwrap();
    }

    #[test]
    fn modify_arms_write_interest_and_remove_silences() {
        let poller = Poller::new().unwrap();
        let (tx, _rx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        poller.add(&tx, 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no read interest satisfied yet");

        poller.modify(&tx, 3, Interest::READ_WRITE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));

        events.clear();
        poller.remove(&tx).unwrap();
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "removed fd still reported events");
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }
}
