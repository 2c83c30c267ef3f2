//! A minimal epoll-backed readiness event loop.
//!
//! The build environment has no tokio or mio, so this shim provides the
//! smallest reactor the workspace needs to drive real sockets: register
//! non-blocking file descriptors for read/write interest, block in
//! [`Reactor::poll`] until something is ready, and arm per-token
//! deadlines on a coarse timer wheel. It is deliberately level-triggered
//! and single-threaded — one event loop owns the reactor; other threads
//! (or signal handlers, via [`Reactor::waker_fd`]) interrupt a blocked
//! poll through a [`Waker`] pipe, never through shared locked state, so
//! there is no mutex to poison.
//!
//! # Deadlines
//!
//! A token's due tick lives in a table indexed by the token's value, so
//! tokens that carry deadlines are expected to be **dense** (slab
//! indices): the table grows to the largest one armed. Arming is a
//! store into that table; the wheel itself gets an entry only when the
//! token has none at or before the new due tick, and an entry that comes
//! up before its token's due tick moves itself there instead of firing.
//! However often a token is re-armed it owns one live wheel entry (plus
//! at most one superseded later entry per re-arm to an *earlier*
//! instant, dropped when its tick comes up), so the wheel is bounded by
//! the tokens alive, not by the arms of the last timeout period.
//!
//! # The clock
//!
//! The reactor reads its [`Clock`] once per wakeup, when `epoll_wait`
//! returns. [`Reactor::now_ms`] and [`Reactor::deadline`] use that
//! stamp: everything done while handling one batch of events happens at
//! the batch's instant, and a deadline counts from it. A clock is the
//! monotonic time since its epoch plus a skew that [`Clock::advance`]
//! moves forward: reactors built on clones of one clock read one time
//! base, and a test that advances it (then wakes the reactors) has every
//! deadline the jump passed fire on the next poll, with no sleeping.
//!
//! # Counting
//!
//! Every system call the reactor makes and every event it delivers is
//! tallied in [`ReactorCounters`]: single-writer [`Counter`] cells that
//! cost the event loop a plain load and store, and that any thread may
//! read through [`Reactor::counters`].
//!
//! The syscall surface is declared directly against the system libc
//! (`epoll_create1` / `epoll_ctl` / `epoll_wait` / `close`), which every
//! Linux Rust binary already links — no external crate required.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod ffi {
    use std::os::raw::c_int;

    // x86_64 packs epoll_event to 12 bytes; other Linux targets keep
    // natural alignment. Matching the kernel ABI exactly is the whole
    // point of the cfg dance.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

pub mod net {
    //! The socket operations `std` cannot do without blocking or without
    //! a second system call: a TCP connect that returns mid-handshake
    //! (register the stream for write interest and check
    //! [`std::net::TcpStream::take_error`] when writability arrives to
    //! learn whether it succeeded), a `SO_REUSEPORT` listener, an accept
    //! whose stream is born non-blocking, and a receive buffer of a
    //! chosen size (what a test of backpressure needs its client to have).

    use std::io;
    use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::os::raw::c_int;

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const EINPROGRESS: i32 = 115;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_RCVBUF: c_int = 8;
    const SO_REUSEPORT: c_int = 15;
    const SOMAXCONN_BACKLOG: c_int = 1024;

    /// `struct sockaddr_in` (port and address in network byte order).
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    /// Room for a `sockaddr_in` or a `sockaddr_in6`: the family and the
    /// port (network byte order) sit first in both, then the IPv4
    /// address at `body[..4]`, or flow label, IPv6 address at
    /// `body[4..20]` and scope.
    #[repr(C)]
    struct SockaddrAny {
        family: u16,
        port: u16,
        body: [u8; 24],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn accept4(fd: c_int, addr: *mut SockaddrAny, len: *mut u32, flags: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn bind(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_int, len: u32)
            -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// Sets one integer `SOL_SOCKET` option.
    fn set_socket_option(fd: c_int, name: c_int, value: c_int) -> io::Result<()> {
        let len = std::mem::size_of::<c_int>() as u32;
        if unsafe { setsockopt(fd, SOL_SOCKET, name, &value, len) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Fixes a socket's receive buffer at about `bytes` (`SO_RCVBUF`:
    /// the kernel doubles the figure for its own bookkeeping and stops
    /// auto-tuning the buffer), so a peer that writes more than the
    /// reader takes finds its own socket full after kilobytes instead of
    /// megabytes.
    pub fn set_recv_buffer(stream: &TcpStream, bytes: usize) -> io::Result<()> {
        let bytes = c_int::try_from(bytes).unwrap_or(c_int::MAX);
        set_socket_option(stream.as_raw_fd(), SO_RCVBUF, bytes)
    }

    /// Starts a TCP connect without blocking. IPv4 only — the workspace
    /// talks to loopback origins.
    pub fn tcp_connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "only IPv4 origins are supported",
            ));
        };
        let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let sa = SockaddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        let rc = unsafe { connect(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            // A loopback connect may even complete synchronously; only
            // EINPROGRESS means "in flight", anything else is fatal.
            if err.raw_os_error() != Some(EINPROGRESS) {
                unsafe { close(fd) };
                return Err(err);
            }
        }
        Ok(unsafe { TcpStream::from_raw_fd(fd) })
    }

    /// Accepts one pending connection, already non-blocking and
    /// close-on-exec (`accept4`): one system call where `accept` plus
    /// `set_nonblocking` is two. The listener must be non-blocking; an
    /// empty backlog is [`io::ErrorKind::WouldBlock`].
    pub fn accept_nonblocking(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        let mut sa = SockaddrAny {
            family: 0,
            port: 0,
            body: [0; 24],
        };
        let mut len = std::mem::size_of::<SockaddrAny>() as u32;
        let fd = unsafe {
            accept4(
                listener.as_raw_fd(),
                &mut sa,
                &mut len,
                SOCK_NONBLOCK | SOCK_CLOEXEC,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Owned from here on: an undecodable peer closes the socket.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        let ip = match c_int::from(sa.family) {
            AF_INET => IpAddr::from([sa.body[0], sa.body[1], sa.body[2], sa.body[3]]),
            AF_INET6 => {
                let mut octets = [0u8; 16];
                octets.copy_from_slice(&sa.body[4..20]);
                IpAddr::from(octets)
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "peer is neither IPv4 nor IPv6",
                ))
            }
        };
        Ok((stream, SocketAddr::new(ip, u16::from_be(sa.port))))
    }

    /// Binds a non-blocking `SO_REUSEPORT` listener on `addr`. Several
    /// listeners bound this way to the same address share the accept
    /// queue — the kernel shards incoming connections across them, one
    /// per reactor thread, with no user-space accept lock. IPv4 only,
    /// like [`tcp_connect_nonblocking`]. Use
    /// [`std::net::TcpListener::local_addr`] on the first listener to
    /// resolve port 0 before binding its siblings.
    pub fn tcp_listen_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "only IPv4 listeners are supported",
            ));
        };
        let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fail = |fd: c_int| {
            let err = io::Error::last_os_error();
            unsafe { close(fd) };
            Err(err)
        };
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            if set_socket_option(fd, opt, 1).is_err() {
                return fail(fd);
            }
        }
        let sa = SockaddrIn {
            family: AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        if unsafe { bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) } < 0 {
            return fail(fd);
        }
        if unsafe { listen(fd, SOMAXCONN_BACKLOG) } < 0 {
            return fail(fd);
        }
        Ok(unsafe { TcpListener::from_raw_fd(fd) })
    }
}

pub mod signals {
    //! Termination signals as a reactor wakeup. The handler does only
    //! async-signal-safe work: set a flag, write one byte into the
    //! reactor's waker pipe (see [`crate::Reactor::waker_fd`]).

    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_signal(_sig: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            let byte = 1u8;
            unsafe { write(fd, &byte, 1) };
        }
    }

    /// Installs SIGTERM/SIGINT handlers that set the [`terminated`] flag
    /// and poke `wake_fd` so a blocked poll notices immediately.
    pub fn install_term_handler(wake_fd: i32) {
        WAKE_FD.store(wake_fd, Ordering::SeqCst);
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    /// Whether a termination signal has been delivered.
    pub fn terminated() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

/// Identifies one registration (or deadline) to its event loop. The
/// reactor never interprets the value; callers typically use a slab or
/// connection index. `Token(usize::MAX)` is reserved for the internal
/// waker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// The reserved internal waker token.
const WAKER: usize = usize::MAX;

/// Readiness interest for a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Read-readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Hang-up/error notifications only — for parked descriptors that
    /// must still report a peer close without spinning on buffered data.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut b = ffi::EPOLLRDHUP;
        if self.readable {
            b |= ffi::EPOLLIN;
        }
        if self.writable {
            b |= ffi::EPOLLOUT;
        }
        b
    }
}

/// One readiness (or deadline) delivery.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration (or deadline) this event belongs to.
    pub token: Token,
    /// The descriptor is readable (includes a peer close with data
    /// still buffered — read to EOF to find out).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The peer closed or the descriptor errored (`EPOLLHUP` /
    /// `EPOLLRDHUP` / `EPOLLERR`).
    pub closed: bool,
    /// This is a deadline expiry from [`Reactor::deadline`], not an I/O
    /// readiness event.
    pub timer: bool,
}

/// Wakes a blocked [`Reactor::poll`] from another thread. Writing one
/// byte into a pre-opened pipe is lock-free and async-signal-safe, so a
/// waker can be triggered from a signal handler (via the raw fd — see
/// [`Reactor::waker_fd`]) without any poisoning hazard.
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// Interrupts the reactor's current (or next) poll. Errors are
    /// swallowed: a full pipe already guarantees a pending wakeup.
    pub fn wake(&self) {
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// A statistic with one writer: the owning thread bumps it with a plain
/// load and store (no locked read-modify-write on the request path),
/// any thread may read it. Two writers would lose counts, nothing worse.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`. Only the owning thread may call this.
    pub fn add(&self, n: u64) {
        self.set(self.get() + n);
    }

    /// Overwrites the value (a gauge). Only the owning thread may call
    /// this.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value, from any thread.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// What one [`Reactor`] has asked of the kernel and delivered to its
/// caller, counted where each call is made.
#[derive(Debug, Default)]
pub struct ReactorCounters {
    /// `epoll_wait` calls.
    pub waits: Counter,
    /// I/O readiness events delivered (waker wakeups not included).
    pub io_events: Counter,
    /// Deadline expiries delivered.
    pub timer_events: Counter,
    /// `epoll_ctl(EPOLL_CTL_ADD)` calls ([`Reactor::register`]).
    pub ctl_adds: Counter,
    /// `epoll_ctl(EPOLL_CTL_MOD)` calls ([`Reactor::reregister`]).
    pub ctl_mods: Counter,
    /// `epoll_ctl(EPOLL_CTL_DEL)` calls ([`Reactor::deregister`]).
    pub ctl_dels: Counter,
    /// Entries on the timer wheel right now (a gauge).
    pub timer_entries: Counter,
}

/// Granularity of the timer wheel: deadlines fire on 10 ms ticks —
/// coarse on purpose, connection timeouts are hundreds of milliseconds.
const TICK_MS: u64 = 10;

/// "No tick": a token with no deadline, or with no wheel entry. Later
/// than any real tick, so comparisons need no special case.
const NEVER: u64 = u64::MAX;

/// One token's timer state.
#[derive(Debug, Clone, Copy)]
struct Timer {
    /// The tick the deadline is due, or [`NEVER`].
    due: u64,
    /// The tick of the token's live wheel entry, or [`NEVER`]. Never
    /// later than `due`, so the entry always comes up in time to fire
    /// or to move itself.
    queued: u64,
}

impl Timer {
    const IDLE: Timer = Timer {
        due: NEVER,
        queued: NEVER,
    };
}

/// A monotonic millisecond clock that a test can move forward: the time
/// since an epoch plus a skew shared by every clone. A reading costs an
/// `Instant` read and one relaxed atomic load; nothing allocates.
///
/// # Examples
///
/// ```
/// use reactor::Clock;
/// use std::time::Duration;
///
/// let clock = Clock::new();
/// let sibling = clock.clone();
/// clock.advance(Duration::from_secs(3600));
/// assert!(sibling.now_ms() >= 3_600_000);
/// ```
#[derive(Debug, Clone)]
pub struct Clock {
    epoch: Instant,
    skew_ms: Arc<AtomicU64>,
}

impl Clock {
    /// A clock that reads zero now and has not been advanced.
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
            skew_ms: Arc::default(),
        }
    }

    /// Milliseconds since the epoch, plus every advance so far.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64 + self.skew_ms.load(Ordering::Relaxed)
    }

    /// Moves this clock and every clone of it forward by `by`. A reactor
    /// blocked in [`Reactor::poll`] sees the jump when it next wakes; wake
    /// it ([`Waker::wake`]) to have its deadlines fire at once.
    pub fn advance(&self, by: Duration) {
        // Relaxed: the skew publishes no other data; it only ever grows,
        // and every later reading includes it.
        self.skew_ms
            .fetch_add(by.as_millis() as u64, Ordering::Relaxed);
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

// Not `derive(Debug)`: the scratch buffer holds raw kernel events with
// no useful rendering (and a packed struct cannot derive Debug anyway).
/// A minimal epoll event loop: registrations, one poll call, a coarse
/// timer wheel, and a cross-thread waker.
///
/// # Examples
///
/// ```no_run
/// use reactor::{Interest, Reactor, Token};
/// use std::net::TcpListener;
///
/// let listener = TcpListener::bind("127.0.0.1:0").unwrap();
/// listener.set_nonblocking(true).unwrap();
/// let mut r = Reactor::new().unwrap();
/// r.register(&listener, Token(0), Interest::READABLE).unwrap();
/// let mut events = Vec::new();
/// r.poll(&mut events, None).unwrap();
/// for ev in &events {
///     assert_eq!(ev.token, Token(0)); // accept() is now non-blocking
/// }
/// ```
pub struct Reactor {
    epfd: RawFd,
    waker_rx: UnixStream,
    waker_tx: Arc<UnixStream>,
    clock: Clock,
    /// The clock's reading at the last wakeup.
    now_ms: u64,
    /// Timer wheel: tick → tokens with an entry that tick.
    wheel: BTreeMap<u64, Vec<Token>>,
    /// Timer state per token, indexed by the token's value.
    timers: Vec<Timer>,
    /// Scratch buffer for epoll_wait.
    scratch: Vec<ffi::EpollEvent>,
    counters: Arc<ReactorCounters>,
}

impl fmt::Debug for Reactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reactor")
            .field("epfd", &self.epfd)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Reactor {
    /// Opens the epoll instance and the waker pipe; the reactor's clock
    /// counts from now.
    pub fn new() -> io::Result<Reactor> {
        Reactor::with_clock(Clock::new())
    }

    /// [`Reactor::new`] on `clock`: reactors built on clones of one clock
    /// read one time base, however far apart they were built, so a
    /// session served by two of them never sees its time step backwards,
    /// and one [`Clock::advance`] moves them all.
    pub fn with_clock(clock: Clock) -> io::Result<Reactor> {
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let (waker_rx, waker_tx) = match UnixStream::pair() {
            Ok(pair) => pair,
            Err(e) => {
                unsafe { ffi::close(epfd) };
                return Err(e);
            }
        };
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let r = Reactor {
            epfd,
            waker_rx,
            waker_tx: Arc::new(waker_tx),
            now_ms: clock.now_ms(),
            clock,
            wheel: BTreeMap::new(),
            timers: Vec::new(),
            scratch: vec![ffi::EpollEvent { events: 0, data: 0 }; 256],
            counters: Arc::default(),
        };
        r.ctl(
            ffi::EPOLL_CTL_ADD,
            r.waker_rx.as_raw_fd(),
            Some((Token(WAKER), Interest::READABLE)),
        )?;
        Ok(r)
    }

    /// This reactor's [`Clock`] (its own since its creation, unless it
    /// was built [`Reactor::with_clock`]) as read at its last wakeup (the
    /// moment [`Reactor::poll`] last came back from the kernel) — the
    /// time the timer wheel runs on, exposed so callers can stamp their
    /// own state on the same time base. It does not advance between
    /// polls: the clock is read once per wakeup, not per call.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// This reactor's call and event tallies; clone the handle to read
    /// them from another thread.
    pub fn counters(&self) -> &Arc<ReactorCounters> {
        &self.counters
    }

    /// A handle that wakes a blocked [`Reactor::poll`] from any thread.
    pub fn waker(&self) -> Waker {
        Waker {
            tx: Arc::clone(&self.waker_tx),
        }
    }

    /// The raw write end of the waker pipe, for async-signal-safe wakeups
    /// from a signal handler (`write(fd, "\1", 1)` is on the safe list;
    /// taking a lock is not).
    pub fn waker_fd(&self) -> RawFd {
        self.waker_tx.as_raw_fd()
    }

    fn ctl(&self, op: i32, fd: RawFd, spec: Option<(Token, Interest)>) -> io::Result<()> {
        let mut ev = spec.map(|(token, interest)| ffi::EpollEvent {
            events: interest.bits(),
            data: token.0 as u64,
        });
        let ptr = ev
            .as_mut()
            .map(|e| e as *mut ffi::EpollEvent)
            .unwrap_or(std::ptr::null_mut());
        match op {
            ffi::EPOLL_CTL_ADD => self.counters.ctl_adds.add(1),
            ffi::EPOLL_CTL_MOD => self.counters.ctl_mods.add(1),
            _ => self.counters.ctl_dels.add(1),
        }
        if unsafe { ffi::epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers a non-blocking descriptor under `token`. The caller
    /// must have set the descriptor non-blocking; the reactor is
    /// level-triggered, so unread readiness is re-delivered on the next
    /// poll.
    pub fn register(
        &mut self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        assert_ne!(
            token.0, WAKER,
            "Token(usize::MAX) is reserved for the waker"
        );
        self.ctl(ffi::EPOLL_CTL_ADD, fd.as_raw_fd(), Some((token, interest)))
    }

    /// Changes the interest (or token) of an existing registration.
    pub fn reregister(
        &mut self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        assert_ne!(
            token.0, WAKER,
            "Token(usize::MAX) is reserved for the waker"
        );
        self.ctl(ffi::EPOLL_CTL_MOD, fd.as_raw_fd(), Some((token, interest)))
    }

    /// How many times [`Reactor::reregister`] has been called: one
    /// `epoll_ctl(EPOLL_CTL_MOD)` each, the syscall a caller that caches
    /// its interest is trying not to make.
    pub fn interest_changes(&self) -> u64 {
        self.counters.ctl_mods.get()
    }

    /// Removes a registration. The kernel drops it automatically when
    /// the descriptor closes, so this is only needed to stop events for
    /// a descriptor that stays open.
    pub fn deregister(&mut self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_DEL, fd.as_raw_fd(), None)
    }

    /// Arms (or re-arms) a deadline for `token`, `after` from the last
    /// wakeup ([`Reactor::now_ms`]). One deadline per token: re-arming
    /// supersedes the previous one. The wheel is coarse — expiry is
    /// delivered on the first 10 ms tick at or after the requested
    /// instant, never before it. Re-arming is the cheap operation (a
    /// store, when the new instant is no earlier than the old one), so
    /// a caller may refresh a timeout on every request. `token` indexes
    /// a table: keep deadline tokens dense.
    pub fn deadline(&mut self, token: Token, after: Duration) {
        assert_ne!(
            token.0, WAKER,
            "Token(usize::MAX) is reserved for the waker"
        );
        let tick = (self.now_ms + after.as_millis() as u64).div_ceil(TICK_MS);
        if token.0 >= self.timers.len() {
            self.timers.resize(token.0 + 1, Timer::IDLE);
        }
        let timer = &mut self.timers[token.0];
        timer.due = tick;
        // An entry at or before the new tick will find its way there.
        if timer.queued > tick {
            timer.queued = tick;
            self.wheel.entry(tick).or_default().push(token);
            self.counters.timer_entries.add(1);
        }
    }

    /// Disarms `token`'s deadline, if any. Its wheel entry stays until
    /// its tick comes up (or a new deadline for the token adopts it).
    pub fn cancel_deadline(&mut self, token: Token) {
        if let Some(timer) = self.timers.get_mut(token.0) {
            timer.due = NEVER;
        }
    }

    /// Blocks until I/O readiness, a deadline expiry, a wakeup, or
    /// `timeout`, and appends the deliveries to `events` (which is
    /// cleared first). Waker wakeups produce an empty delivery set —
    /// callers re-check their own flags after every poll. A signal
    /// interrupting the wait is treated as a wakeup, not an error.
    pub fn poll(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        // The wait is bounded by the nearest wheel entry, measured from
        // the last wakeup: time spent handling that batch delays an
        // expiry by as much, and never hastens one.
        let next_tick_ms = self
            .wheel
            .first_key_value()
            .map(|(tick, _)| (tick * TICK_MS).saturating_sub(self.now_ms));
        let wait_ms = match (timeout.map(|d| d.as_millis() as u64), next_tick_ms) {
            (Some(a), Some(b)) => a.min(b).min(i32::MAX as u64) as i32,
            (Some(a), None) | (None, Some(a)) => a.min(i32::MAX as u64) as i32,
            (None, None) => -1,
        };
        self.counters.waits.add(1);
        let n = unsafe {
            ffi::epoll_wait(
                self.epfd,
                self.scratch.as_mut_ptr(),
                self.scratch.len() as i32,
                wait_ms,
            )
        };
        // The one clock read of this wakeup.
        self.now_ms = self.clock.now_ms();
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        } else {
            for raw in &self.scratch[..n as usize] {
                let (bits, data) = (raw.events, raw.data);
                if data == WAKER as u64 {
                    self.drain_waker();
                    continue;
                }
                events.push(Event {
                    token: Token(data as usize),
                    readable: bits & ffi::EPOLLIN != 0,
                    writable: bits & ffi::EPOLLOUT != 0,
                    closed: bits & (ffi::EPOLLERR | ffi::EPOLLHUP | ffi::EPOLLRDHUP) != 0,
                    timer: false,
                });
            }
            self.counters.io_events.add(events.len() as u64);
        }
        self.expire(events);
        Ok(())
    }

    /// Pops every wheel tick that has come up, after I/O. An entry
    /// fires when its token is due that very tick; one whose token was
    /// re-armed later moves to the new tick (and fires in this same
    /// call if that has come up too); one whose token was cancelled, or
    /// re-armed earlier through a newer entry, is dropped.
    fn expire(&mut self, events: &mut Vec<Event>) {
        let now_tick = self.now_ms / TICK_MS;
        while let Some(slot) = self.wheel.first_entry() {
            if *slot.key() > now_tick {
                break;
            }
            let (tick, tokens) = slot.remove_entry();
            let mut entries = self.counters.timer_entries.get() - tokens.len() as u64;
            for token in tokens {
                let timer = &mut self.timers[token.0];
                if timer.queued != tick {
                    continue;
                }
                if timer.due == tick {
                    timer.due = NEVER;
                    self.counters.timer_events.add(1);
                    events.push(Event {
                        token,
                        readable: false,
                        writable: false,
                        closed: false,
                        timer: true,
                    });
                }
                timer.queued = timer.due;
                if timer.due != NEVER {
                    self.wheel.entry(timer.due).or_default().push(token);
                    entries += 1;
                }
            }
            self.counters.timer_entries.set(entries);
        }
    }

    fn drain_waker(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.waker_rx).read(&mut buf) {
            if n < buf.len() {
                break;
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe { ffi::close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    fn reactor() -> Reactor {
        Reactor::new().expect("epoll available")
    }

    #[test]
    fn reactors_built_apart_on_one_epoch_read_one_clock() {
        let clock = Clock::new();
        let mut early = Reactor::with_clock(clock.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(25));
        let mut late = Reactor::with_clock(clock).unwrap();
        let mut own = reactor();
        let mut events = Vec::new();
        for r in [&mut early, &mut late, &mut own] {
            r.poll(&mut events, Some(Duration::ZERO)).unwrap();
        }
        let (early, late, own) = (early.now_ms(), late.now_ms(), own.now_ms());
        assert!(early >= 25, "counts from the epoch, not its build: {early}");
        assert!(late.abs_diff(early) <= TICK_MS, "{early} vs {late}");
        // A reactor counting from its own build is behind by the gap.
        assert!(late - own >= 25, "{late} vs {own}");
    }

    #[test]
    fn an_advance_fires_every_deadline_it_passes_at_the_next_wakeup() {
        let clock = Clock::new();
        let mut r = Reactor::with_clock(clock.clone()).unwrap();
        r.deadline(Token(1), Duration::from_secs(10));
        r.deadline(Token(2), Duration::from_secs(20));
        let mut events = Vec::new();
        let waker = r.waker();
        clock.advance(Duration::from_secs(15));
        waker.wake();
        let start = Instant::now();
        r.poll(&mut events, None).unwrap();
        let fired: Vec<_> = events.iter().filter(|e| e.timer).map(|e| e.token).collect();
        assert_eq!(fired, [Token(1)], "only the deadline the jump passed");
        assert!(r.now_ms() >= 15_000, "{}", r.now_ms());
        clock.advance(Duration::from_secs(5));
        waker.wake();
        r.poll(&mut events, None).unwrap();
        let fired: Vec<_> = events.iter().filter(|e| e.timer).map(|e| e.token).collect();
        assert_eq!(fired, [Token(2)]);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "no poll waited for the time it was told had passed"
        );
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut r = reactor();
        r.register(&listener, Token(7), Interest::READABLE).unwrap();

        let _client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        r.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(
            events.iter().any(|e| e.token == Token(7) && e.readable),
            "pending accept must surface as readability: {events:?}"
        );
        let (conn, _) = listener.accept().unwrap();
        drop(conn);
    }

    #[test]
    fn stream_readability_and_peer_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut r = reactor();
        r.register(&server, Token(1), Interest::READABLE).unwrap();
        r.deadline(Token(1), Duration::from_secs(10));

        use std::io::Write as _;
        (&client).write_all(b"ping").unwrap();
        let mut events = Vec::new();
        // Level-triggered: until it is read, every poll reports the one
        // ready descriptor again, and the armed deadline adds nothing.
        for _ in 0..3 {
            r.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(events.len(), 1);
            assert!(events[0].token == Token(1) && events[0].readable);
        }
        let mut buf = [0u8; 8];
        assert_eq!((&server).read(&mut buf).unwrap(), 4);

        drop(client);
        r.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == Token(1))
            .expect("peer close is delivered");
        assert!(
            ev.closed || ev.readable,
            "close surfaces as HUP or EOF-readable"
        );
    }

    #[test]
    fn write_interest_fires_when_buffer_has_room() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let _server = listener.accept().unwrap();

        let mut r = reactor();
        r.register(&client, Token(3), Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        r.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == Token(3) && e.writable));
    }

    #[test]
    fn deadlines_fire_in_order_and_rearm_supersedes() {
        let mut r = reactor();
        r.deadline(Token(10), Duration::from_millis(30));
        r.deadline(Token(11), Duration::from_millis(80));
        // Re-arm token 10 later than token 11: the original slot is stale.
        r.deadline(Token(10), Duration::from_millis(150));

        let mut events = Vec::new();
        let mut fired = Vec::new();
        let start = Instant::now();
        while fired.len() < 2 && start.elapsed() < Duration::from_secs(5) {
            r.poll(&mut events, Some(Duration::from_millis(500)))
                .unwrap();
            fired.extend(events.iter().filter(|e| e.timer).map(|e| e.token));
        }
        assert_eq!(
            fired,
            vec![Token(11), Token(10)],
            "re-armed deadline fires last"
        );
    }

    #[test]
    fn cancelled_deadline_never_fires() {
        let mut r = reactor();
        r.deadline(Token(5), Duration::from_millis(20));
        r.cancel_deadline(Token(5));
        let mut events = Vec::new();
        r.poll(&mut events, Some(Duration::from_millis(60)))
            .unwrap();
        assert!(
            events.iter().all(|e| !e.timer),
            "cancelled deadline must not fire: {events:?}"
        );
    }

    /// Polls until `want` deadlines have fired (or five seconds pass),
    /// returning each with the time since `start` at which it came back.
    fn fired(r: &mut Reactor, want: usize, start: Instant) -> Vec<(Token, Duration)> {
        let mut events = Vec::new();
        let mut fired = Vec::new();
        while fired.len() < want && start.elapsed() < Duration::from_secs(5) {
            r.poll(&mut events, Some(Duration::from_millis(500)))
                .unwrap();
            let at = start.elapsed();
            fired.extend(events.iter().filter(|e| e.timer).map(|e| (e.token, at)));
        }
        fired
    }

    /// Nothing more fires within `quiet`.
    fn assert_quiet(r: &mut Reactor, quiet: Duration) {
        let mut events = Vec::new();
        let until = Instant::now() + quiet;
        while Instant::now() < until {
            r.poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.iter().all(|e| !e.timer), "late extra: {events:?}");
        }
    }

    /// A reactor whose clock stamp is fresh, and an instant no later
    /// than that stamp to measure "not early" from.
    fn stamped() -> (Reactor, Instant) {
        let mut r = reactor();
        let start = Instant::now();
        r.poll(&mut Vec::new(), Some(Duration::ZERO)).unwrap();
        (r, start)
    }

    #[test]
    fn a_token_rearmed_100k_times_owns_one_entry_and_fires_once_at_the_last_instant() {
        let (mut r, start) = stamped();
        let mut last = Duration::ZERO;
        for i in 0..100_000u64 {
            // Each arm a little later than the one before, as a
            // connection's requests are: 60 ms rising to 160 ms.
            last = Duration::from_millis(60 + i / 1000);
            r.deadline(Token(3), last);
            assert!(r.counters().timer_entries.get() <= 2);
        }
        let fired = fired(&mut r, 1, start);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, Token(3));
        assert!(
            fired[0].1 >= last,
            "fired at {:?}, the first arm's instant rather than the last ({last:?})",
            fired[0].1
        );
        assert!(fired[0].1 < last + Duration::from_millis(100), "{fired:?}");
        assert_quiet(&mut r, Duration::from_millis(60));
        assert_eq!(r.counters().timer_entries.get(), 0);
        assert_eq!(r.counters().timer_events.get(), 1);
    }

    #[test]
    fn rearming_to_an_earlier_instant_fires_at_the_earlier_one() {
        let (mut r, start) = stamped();
        r.deadline(Token(4), Duration::from_millis(400));
        r.deadline(Token(4), Duration::from_millis(50));
        let fired = fired(&mut r, 1, start);
        assert_eq!(fired.len(), 1);
        assert!(
            fired[0].1 >= Duration::from_millis(50) && fired[0].1 < Duration::from_millis(300),
            "{fired:?}"
        );
        // The superseded entry comes up at 400 ms and delivers nothing.
        assert_quiet(&mut r, Duration::from_millis(450));
        assert_eq!(r.counters().timer_entries.get(), 0);
    }

    #[test]
    fn cancel_then_rearm_fires_once() {
        let (mut r, start) = stamped();
        r.deadline(Token(6), Duration::from_millis(30));
        r.cancel_deadline(Token(6));
        r.deadline(Token(6), Duration::from_millis(80));
        let fired = fired(&mut r, 1, start);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].1 >= Duration::from_millis(80), "{fired:?}");
        assert_quiet(&mut r, Duration::from_millis(60));
    }

    #[test]
    fn a_reused_token_does_not_inherit_a_cancelled_expiry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut r, start) = stamped();
        // The slot's first tenant arms and is torn down...
        r.deadline(Token(8), Duration::from_millis(30));
        r.cancel_deadline(Token(8));
        // ...and the next registration under the same index, with no
        // deadline of its own yet, hears nothing at the old instant.
        r.register(&listener, Token(8), Interest::READABLE).unwrap();
        assert_quiet(&mut r, Duration::from_millis(80));
        // Its own deadline then fires on its own schedule.
        r.deadline(Token(8), Duration::from_millis(40));
        let armed_at = start.elapsed();
        let fired = fired(&mut r, 1, start);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].1 >= armed_at + Duration::from_millis(30));
    }

    #[test]
    fn a_thousand_staggered_deadlines_fire_in_tick_order() {
        let (mut r, start) = stamped();
        // Armed out of order: token i is due 20 + (i % 50) * 10 ms in.
        for i in (0..1000usize).rev() {
            r.deadline(Token(i), Duration::from_millis(20 + (i % 50) as u64 * 10));
        }
        assert_eq!(r.counters().timer_entries.get(), 1000);
        let fired = fired(&mut r, 1000, start);
        assert_eq!(fired.len(), 1000);
        let due = |token: Token| Duration::from_millis(20 + (token.0 % 50) as u64 * 10);
        assert!(
            fired.windows(2).all(|w| due(w[0].0) <= due(w[1].0)),
            "deliveries must come in tick order"
        );
        assert!(fired.iter().all(|(token, at)| *at >= due(*token)));
        assert_eq!(r.counters().timer_entries.get(), 0);
    }

    #[test]
    fn accepted_streams_are_nonblocking_and_carry_their_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let empty = net::accept_nonblocking(&listener).unwrap_err();
        assert_eq!(empty.kind(), io::ErrorKind::WouldBlock);
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut r = reactor();
        r.register(&listener, Token(0), Interest::READABLE).unwrap();
        r.poll(&mut Vec::new(), Some(Duration::from_secs(5)))
            .unwrap();
        let (mut server, peer) = net::accept_nonblocking(&listener).unwrap();
        assert_eq!(peer, client.local_addr().unwrap());
        // Born non-blocking: an empty socket answers at once.
        let err = server.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn every_call_and_delivery_is_counted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut r = reactor();
        let counters = Arc::clone(r.counters());
        // The waker's own registration is the first ADD.
        assert_eq!(counters.ctl_adds.get(), 1);
        r.register(&server, Token(1), Interest::READABLE).unwrap();
        r.reregister(&server, Token(1), Interest::BOTH).unwrap();
        r.deadline(Token(1), Duration::ZERO);
        drop(client);
        let mut events = Vec::new();
        r.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        r.deregister(&server).unwrap();
        assert_eq!(events.len(), 2, "one readiness, one expiry: {events:?}");
        assert_eq!(counters.waits.get(), 1);
        assert_eq!(counters.io_events.get(), 1);
        assert_eq!(counters.timer_events.get(), 1);
        assert_eq!(
            (
                counters.ctl_adds.get(),
                counters.ctl_mods.get(),
                counters.ctl_dels.get()
            ),
            (2, 1, 1)
        );
        assert_eq!(r.interest_changes(), 1);
    }

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        let mut r = reactor();
        let waker = r.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        // Without the wakeup this poll would sleep the full 10 s.
        r.poll(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "waker must interrupt the wait"
        );
        assert!(events.is_empty(), "wakeups deliver no events");
        handle.join().unwrap();
    }

    #[test]
    fn nonblocking_connect_completes_through_the_reactor() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = net::tcp_connect_nonblocking(addr).expect("connect starts");
        let mut r = reactor();
        r.register(&stream, Token(9), Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        r.poll(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == Token(9) && e.writable));
        assert!(
            stream.take_error().unwrap().is_none(),
            "handshake succeeded"
        );
        let (_conn, peer) = listener.accept().unwrap();
        assert_eq!(peer, stream.local_addr().unwrap());
    }

    #[test]
    fn deregister_stops_deliveries() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut r = reactor();
        r.register(&server, Token(2), Interest::READABLE).unwrap();
        r.deregister(&server).unwrap();
        use std::io::Write as _;
        (&client).write_all(b"x").unwrap();
        let mut events = Vec::new();
        r.poll(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "deregistered fd delivers nothing");
    }
}
