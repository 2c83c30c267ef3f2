//! The event loop: N reactor threads, every connection a small state
//! machine, one shared [`Gateway`] underneath.
//!
//! # How a request flows
//!
//! A client connection reads until [`wire::read_request`], the codec's
//! one call per request, hands back an owned request (its body decoded,
//! chunked or not) and gives that to
//! [`Gateway::handle_deferred`]. Decisions that need no origin
//! ([`PendingServe::Ready`]) serialize straight back. An allowed
//! ordinary request comes back as a [`PendingServe::AwaitingOrigin`]
//! lease: the server opens a **second non-blocking connection** to the
//! origin through the same reactor and parks the client. Once the
//! origin's response head has parsed, every response is a stream (see
//! "Streaming responses"): a page through the rewriter, anything else
//! as it came, and the end of the body commits the exchange
//! ([`Gateway::finish_page_stream`]). Only a fetch that dies before its
//! head is answered by the server itself, with a `502` or `504`
//! committed through [`Gateway::complete`]. No gateway lock and no
//! event-loop stall spans the fetch — one slow origin delays exactly
//! the connections waiting on *that* fetch, never their neighbors.
//!
//! # Origin connection pool
//!
//! A finished fetch whose response permits reuse (self-delimiting
//! framing, no `Connection: close`) parks its connection in a
//! per-worker idle pool instead of closing it; the next lease pops the
//! warmest parked socket and writes its request without a connect, a
//! register, or any `epoll_ctl` at all: a connection is registered
//! readable while it fetches and while it is parked, so the cached
//! interest never has to move. A FIN or stray byte while idle therefore
//! retires a parked connection immediately, each carries an idle
//! deadline on the reactor's timer wheel (one wheel entry per
//! connection however often it is parked and taken), and takeout probes
//! liveness with one non-blocking read — the only read this file makes
//! in order to be told `EAGAIN`, and the price of never handing a
//! poisoned socket to a lease. Reuse still races the origin's own
//! close: a reused fetch that dies **before any response byte**
//! transparently retries exactly once on a fresh connection. A failure
//! after the first byte is never retried: inside the head it is the
//! `502`/`504`, and after the head (which has gone out by then) a
//! truncation the client can see. The lease is committed either way, so
//! the session's in-flight gauge returns to zero. `origin_pool: 0`
//! disables parking and restores the one-connection-per-fetch behavior
//! byte for byte.
//!
//! # Multi-reactor serving
//!
//! With `threads > 1` the server runs one full event loop per thread:
//! each worker owns its own [`Reactor`], connection slab, and
//! `SO_REUSEPORT` listener bound to the same address, so the kernel
//! shards accepts across reactors with no shared accept lock. The
//! [`Gateway`] has been `&self` + shard-parallel since PR 3 — one
//! `Arc<Gateway>` serves every reactor. The only cross-reactor state is
//! a handful of atomics: the live-connection count (the 503 cap is
//! global, not per-reactor) and the served/accepted totals that merge
//! into [`ServeReport`] and `/admin/stats`. `threads == 1` (the
//! default) takes exactly the single-threaded path this server has
//! always had: a plain listener, one reactor, no extra threads.
//!
//! # Per-request memory
//!
//! A connection slot's read buffer and write buffer live on the slot,
//! not the request: keep-alive requests reuse them, and released slots
//! return them to per-worker pools for the next accept. A response the
//! gate or the server makes is serialized head-first straight into the
//! slot's pooled write buffer with the body appended once — the whole
//! message leaves in one `write` when the socket accepts it. An origin
//! response is never held whole: only its head is written there, and
//! its body leaves from the buffer it was read into. Origin-side
//! connections draw from the same pools. Reads land directly in the
//! slot's read buffer, which stays initialised from one request (and
//! one connection) to the next with a fill cursor beside it, so a read
//! is offered the whole spare area — at least 8KB, 64KB more once a
//! read fills what it was offered — and costs the bytes it moved: no
//! bounce buffer, no zero-fill per request. A read that comes back
//! short has drained the socket, so the loop stops there instead of
//! calling again to be told `EAGAIN`; only a hang-up event is read
//! through to EOF.
//!
//! # System calls per request
//!
//! The epoll interest of every descriptor is cached on its slot and
//! changes only when an event proves it must: a write blocked (ask for
//! `WRITABLE`, and take it back once drained), a streaming origin
//! outran its client (pause, resume), or a client sent its next request
//! while parked on an origin fetch (drop read interest on the event
//! that delivers those bytes, restore it on the return to reading). A
//! keep-alive request the gate answers alone is therefore one
//! `epoll_wait`, one `read`, one `write`; an origin response relayed
//! from a pooled connection adds the takeout probe and one `write`,
//! `read` and `epoll_wait` for the upstream hop when its body arrives
//! in one read (head and body, and a page's chunk framing and markup,
//! leave in one `writev`); none touches `epoll_ctl`. Every call is
//! counted where it is made ([`SysCalls`]), in per-reactor cells that
//! cost a load and a store, and `/admin/stats` serves the totals as
//! `sys_*`.
//!
//! # Streaming responses
//!
//! No origin response is buffered whole. When its head has parsed, how
//! the body travels is decided once (`BodyPlan`: nothing follows a
//! response to `HEAD`, a 1xx, a 204 or a 304) and the client's head
//! goes out at once. A `200` + `text/html` answers with a head of the
//! server's own and pipes body bytes through the gateway's
//! [`PageStream`] rewriter as they arrive; anything else answers with
//! the origin's own status line and headers, only the hop-by-hop and
//! framing lines replaced, and its bytes pass untouched. A length the
//! origin declared is relayed under one `Content-Length`, unframed; a
//! body whose length nobody knows yet (a page, a chunked or
//! close-delimited origin) is chunk-encoded to an HTTP/1.1 client and
//! ended by the close for an HTTP/1.0 one. Between the origin's `read`
//! and the client's `write` a body byte is not copied at all: the body
//! decoder hands the rewriter slices of the origin's read buffer, the
//! rewriter scans them in place and names what it resolves by offset,
//! and the client's write is a `writev` over those ranges with the
//! chunk framing and the injected markup (a few hundred bytes in a
//! per-worker side buffer) between them. Only what the client's socket
//! refuses is copied, behind its backlog. Memory per response is
//! bounded by the rewriter's constant hold-back plus the client's write
//! backlog, never the body's size, so a multi-MB page or asset flows
//! through in O(chunk). Backpressure is explicit: a client backlog over
//! [`STREAM_HIGH_WATER`] parks the origin's read interest until the
//! backlog drains below [`STREAM_LOW_WATER`]. A truncated origin
//! (mid-body EOF, garbage chunk framing, stall past the origin timeout)
//! still commits its lease, and the client's stream ends with a close
//! and *without* the terminal chunk, or short of the length declared —
//! truncation stays visible, never silently reframed as a complete
//! message.
//!
//! # Timeouts and shutdown
//!
//! Each client connection carries a read deadline (idle keep-alive
//! connections close quietly; half-sent requests answer 408) and each
//! origin fetch carries its own deadline that completes the lease (with
//! a synthesized 504 before the head, as a truncation after it) —
//! completing rather than dropping, so the session's in-flight lease
//! count comes back down and enforcement stays exact.
//! Deadlines are refreshed freely (two or three times a request):
//! re-arming is a store into the reactor's per-token table, and the
//! wheel holds one entry per live descriptor, not one per arm. Time is
//! the reactor's per-wakeup stamp, so everything one event batch does,
//! deadlines and gateway clock alike, happens at one instant.
//! On shutdown (SIGTERM in the binary, [`ShutdownHandle`] anywhere) the
//! first reactor to notice fans the signal out through every sibling's
//! waker; each closes its listener, drops idle connections, and finishes
//! its in-flight exchanges. [`Server::run`] drains the gateway exactly
//! once, after every worker has stopped, so every observed session
//! reaches its final classification no matter which reactor carried it.

use crate::frame::{self, BodyDecoder, BodyFraming};
use crate::stats::serve_stats_json;
use botwall_gateway::{Gateway, Origin, PageStream, PendingServe, StreamSink};
use botwall_http::request::ClientIp;
use botwall_http::{wire, Head, Method, Request, Response, StatusCode};
use botwall_sessions::SimTime;
use reactor::{net, signals, Counter, Event, Interest, Reactor, ReactorCounters, Token, Waker};
use std::io::{self, IoSlice, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent-connection cap across every reactor; excess accepts
    /// answer 503 and close.
    pub max_connections: usize,
    /// How long a connection may sit without completing a request (idle
    /// keep-alive closes quietly, a half-sent request answers 408).
    pub read_timeout: Duration,
    /// How long an origin fetch may run before the lease completes with
    /// a synthesized 504.
    pub origin_timeout: Duration,
    /// Whether connections may carry more than one request.
    pub keep_alive: bool,
    /// The upstream origin. `None` serves the gateway's instrumentation
    /// traffic and 404s everything ordinary.
    pub origin: Option<SocketAddr>,
    /// Event-loop threads. `1` binds a plain listener and runs on the
    /// calling thread exactly as before; more bind one `SO_REUSEPORT`
    /// listener per reactor thread.
    pub threads: usize,
    /// How many idle origin connections each worker may keep parked for
    /// reuse. `0` disables pooling: every origin fetch opens (and
    /// closes) its own connection, exactly the pre-pool behavior.
    pub origin_pool: usize,
    /// How long a parked origin connection may sit unused before it is
    /// closed (armed on the reactor's timer wheel at park time).
    pub origin_pool_idle: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_connections: 256,
            read_timeout: Duration::from_secs(10),
            origin_timeout: Duration::from_secs(10),
            keep_alive: true,
            origin: None,
            threads: 1,
            origin_pool: 8,
            origin_pool_idle: Duration::from_secs(10),
        }
    }
}

/// What one [`Server::run`] did, reported after drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted across all reactors (cap rejections not
    /// included).
    pub connections: u64,
    /// HTTP requests parsed off those connections.
    pub requests: u64,
    /// Sessions flushed by the final gateway drain.
    pub drained_sessions: usize,
    /// Fresh TCP connections opened to the origin (retries included).
    pub origin_connects: u64,
    /// Origin fetches that picked up a parked pooled connection.
    pub origin_reuses: u64,
    /// Pooled fetches that died before any response byte and were
    /// transparently retried on a fresh connection.
    pub origin_retries: u64,
    /// `epoll_ctl` calls that changed the interest of an open socket,
    /// across all reactors — what the cached-interest design keeps low.
    pub interest_changes: u64,
    /// Every system call the front door made, by class.
    pub sys: SysCalls,
}

impl ServeReport {
    /// System calls per request: reads, writes, `epoll_wait`s, interest
    /// changes and accept calls over the requests served (the per-class
    /// numbers are in [`ServeReport::sys`]). A keep-alive request the
    /// gate answers alone needs three.
    pub fn calls_per_request(&self) -> f64 {
        let sys = &self.sys;
        let calls = sys.reads + sys.writes + sys.epoll_waits + self.interest_changes + sys.accepts;
        calls as f64 / self.requests.max(1) as f64
    }
}

/// System calls and kernel events by class, summed over every reactor:
/// each is counted where it is made, into a cell only its own reactor
/// writes, so counting costs the request path no atomic
/// read-modify-write. `/admin/stats` serves the same totals live, as
/// `sys_*` and `timer_entries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SysCalls {
    /// `read` calls on client and origin sockets.
    pub reads: u64,
    /// Reads that moved nothing and returned `EAGAIN`: the pool's
    /// takeout probe, ideally nothing else.
    pub reads_eagain: u64,
    /// `write` calls on client and origin sockets.
    pub writes: u64,
    /// Writes the socket refused (`EAGAIN`), each followed by a wait for
    /// writability.
    pub writes_blocked: u64,
    /// `epoll_wait` calls.
    pub epoll_waits: u64,
    /// Readiness events those calls returned.
    pub epoll_events: u64,
    /// `epoll_ctl` calls of any kind (add, modify, delete).
    pub epoll_ctls: u64,
    /// `accept4` calls, the one per backlog drain that finds it empty
    /// included.
    pub accepts: u64,
    /// Non-blocking origin connects started.
    pub connects: u64,
    /// Entries on the reactors' timer wheels right now: bounded by the
    /// descriptors alive, not by the requests of the last timeout period.
    pub timer_entries: u64,
}

/// One reactor's share of [`SysCalls`]: the shim's own tallies plus the
/// socket calls this file makes. Written by that reactor's thread only.
#[derive(Debug, Default)]
pub(crate) struct WorkerCounters {
    pub(crate) reactor: Arc<ReactorCounters>,
    pub(crate) reads: Counter,
    pub(crate) reads_eagain: Counter,
    pub(crate) writes: Counter,
    pub(crate) writes_blocked: Counter,
    pub(crate) accepts: Counter,
    pub(crate) connects: Counter,
}

/// Counters shared by every reactor thread. The live-connection count
/// is the 503 cap's source of truth — global on purpose, so N reactors
/// can never admit more than the cap together.
#[derive(Debug, Default)]
pub(crate) struct SharedCounters {
    pub(crate) live: AtomicUsize,
    pub(crate) connections_total: AtomicU64,
    pub(crate) requests_total: AtomicU64,
    pub(crate) origin_connects: AtomicU64,
    pub(crate) origin_reuses: AtomicU64,
    pub(crate) origin_retries: AtomicU64,
    /// Per-reactor call tallies, merged on read.
    pub(crate) workers: Vec<Arc<WorkerCounters>>,
    shutdown: AtomicBool,
}

impl SharedCounters {
    /// Zeroed counters over the given reactors' cells.
    pub(crate) fn over(workers: Vec<Arc<WorkerCounters>>) -> SharedCounters {
        SharedCounters {
            workers,
            ..SharedCounters::default()
        }
    }

    /// The call tallies of every reactor, summed.
    pub(crate) fn sys_calls(&self) -> SysCalls {
        let mut sum = SysCalls::default();
        for worker in &self.workers {
            let reactor = &worker.reactor;
            sum.reads += worker.reads.get();
            sum.reads_eagain += worker.reads_eagain.get();
            sum.writes += worker.writes.get();
            sum.writes_blocked += worker.writes_blocked.get();
            sum.epoll_waits += reactor.waits.get();
            sum.epoll_events += reactor.io_events.get();
            sum.epoll_ctls +=
                reactor.ctl_adds.get() + reactor.ctl_mods.get() + reactor.ctl_dels.get();
            sum.accepts += worker.accepts.get();
            sum.connects += worker.connects.get();
            sum.timer_entries += reactor.timer_entries.get();
        }
        sum
    }
}

/// Requests a running server stop: close every listener, finish
/// in-flight exchanges, drain the gateway. Cloneable and usable from
/// any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    shared: Arc<SharedCounters>,
    wakers: Vec<Waker>,
    waker_fd: i32,
}

impl ShutdownHandle {
    /// Triggers the drain on every reactor.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
    }

    /// The first reactor's raw waker fd, for wiring a signal handler
    /// (see [`reactor::signals::install_term_handler`]). The woken
    /// reactor fans the shutdown out to its siblings.
    pub fn waker_fd(&self) -> i32 {
        self.waker_fd
    }
}

/// Client write backlog (bytes staged but not yet accepted by the
/// socket) above which a streaming origin's read interest is parked.
pub const STREAM_HIGH_WATER: usize = 64 * 1024;

/// Backlog below which a parked streaming origin resumes reading.
pub const STREAM_LOW_WATER: usize = 16 * 1024;

/// Recycled buffers above this size are dropped instead of pooled, so
/// one multi-megabyte streamed response cannot pin its backlog buffer
/// forever. A read buffer that grew once, for one page-sized body, is
/// the largest kept.
const POOL_BUF_CAP: usize = READ_FIRST + READ_MORE;

/// Cap on pooled buffers of each kind per worker (each is at most
/// [`POOL_BUF_CAP`]).
const POOL_MAX: usize = 128;

/// How often each reactor gives the gateway one
/// [`Gateway::sweep_slice`]. A slice takes one tracker shard, so a
/// full rotation of the default sixteen takes under a second on one
/// reactor; eviction casualties wait at most that long to be classified
/// and freed.
const SWEEP_TICK_MS: u64 = 50;

/// Sessions one slice may finalize, and live sessions it may check for
/// expired tokens: microseconds of work, so the reactor never stalls on
/// a sweep, while one reactor still walks 100k live sessions in ~40 s
/// (the TTLs it enforces are an hour).
const SWEEP_BUDGET: usize = 128;

/// The listener's reserved token; connection slots start at 1.
const LISTENER: Token = Token(0);

fn token_of(slot: usize) -> Token {
    Token(slot + 1)
}

/// One entry in the connection slab.
enum Slot {
    Client(ClientConn),
    OriginFetch(Box<OriginConn>),
    /// A finished origin connection parked for reuse by the next fetch.
    IdleOrigin(IdleOrigin),
}

/// A connection's read accumulation. `bytes` stays initialised to its
/// whole length, across requests and across trips through the pool, and
/// `filled` says how much of it is data (what the buffer derefs to): a
/// read costs the bytes it moved, never a memset of the landing area.
#[derive(Default)]
struct ReadBuf {
    bytes: Vec<u8>,
    filled: usize,
}

impl std::ops::Deref for ReadBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..self.filled]
    }
}

impl ReadBuf {
    /// The landing area for the next read: everything past the data,
    /// never less than [`READ_FIRST`]. A buffer that came back full
    /// grows by [`READ_MORE`] — the peer is sending a body, so ask for
    /// it in body-sized pieces.
    fn spare(&mut self) -> &mut [u8] {
        let spare = self.bytes.len() - self.filled;
        if spare < READ_FIRST {
            let grow = if spare == 0 && self.filled > 0 {
                READ_MORE
            } else {
                READ_FIRST
            };
            self.bytes.resize(self.filled + grow, 0);
        }
        &mut self.bytes[self.filled..]
    }

    /// Drops the first `n` bytes of data; what follows shifts down.
    fn consume(&mut self, n: usize) {
        self.bytes.copy_within(n..self.filled, 0);
        self.filled -= n;
    }

    fn clear(&mut self) {
        self.filled = 0;
    }
}

struct ClientConn {
    stream: TcpStream,
    peer: ClientIp,
    /// Read accumulation; survives keep-alive requests and is pooled
    /// across connections.
    buf: ReadBuf,
    /// Response / stream-backlog staging (`out[pos..]` unsent); same
    /// lifetime as `buf`.
    out: Vec<u8>,
    pos: usize,
    /// The interest currently armed in epoll — writes to the reactor go
    /// through [`set_interest`], which skips the syscall when nothing
    /// changes.
    interest: Interest,
    state: ClientState,
}

enum ClientState {
    /// Accumulating the next request.
    Reading,
    /// Parked while slot `origin_slot` fetches this request's origin.
    Awaiting { origin_slot: usize },
    /// Flushing the staged response in `out`: one the gate or the server
    /// made itself, or what is left of an origin response the origin has
    /// finished with (`close_after` when it was cut short, so the
    /// missing rest is followed by a close).
    Writing { close_after: bool },
    /// Relaying an origin response (a page through the rewriter, anything
    /// else as it came) as the fetch in `origin_slot` streams it in;
    /// `out` is what the socket has not taken yet.
    Streaming {
        origin_slot: usize,
        close_after: bool,
    },
}

/// How a step leaves a response stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamEnd {
    /// The origin is still producing body bytes.
    More,
    /// The body is complete; a chunked one gets its terminal chunk.
    Clean,
    /// The origin died mid-body. What is staged goes out, then the
    /// connection closes with no terminal chunk and short of any
    /// declared length, so the client sees the truncation.
    Truncated,
}

struct OriginConn {
    stream: TcpStream,
    /// Serialized upstream request, then how much of it has gone out.
    out: Vec<u8>,
    pos: usize,
    buf: ReadBuf,
    client_slot: usize,
    /// Whether to close the *client* connection after this response.
    close_after: bool,
    /// The leased exchange; always completed, never dropped.
    pending: Option<botwall_gateway::PendingOrigin>,
    connected: bool,
    /// Cached epoll interest, as on [`ClientConn`].
    interest: Interest,
    /// Riding a pooled connection. A reused fetch that dies before any
    /// response byte retries once on a fresh connection (the parked
    /// socket may have gone stale); a fresh fetch never retries.
    reused: bool,
    /// Whether any response byte has arrived — the retry window closes
    /// the moment one does.
    saw_byte: bool,
    /// The response on its way to the client, once its head has parsed.
    relay: Option<Box<StreamingFetch>>,
}

/// A parked origin connection awaiting reuse. It stays registered
/// readable under its slot's token: a FIN, a reset, or an unsolicited
/// byte while idle retires it immediately, and its idle deadline on the
/// reactor's timer wheel bounds how long it may wait.
struct IdleOrigin {
    stream: TcpStream,
    /// The origin this socket is connected to; a lease for a different
    /// address never picks it up.
    addr: SocketAddr,
    /// Cached epoll interest (READABLE while parked).
    interest: Interest,
}

struct StreamingFetch {
    decoder: BodyDecoder,
    /// The rewriter for a page, a pass-through for anything else.
    page: PageStream,
    /// Whether the client is sent the body in chunks (a length nobody
    /// knows yet, an HTTP/1.1 client) or as it is (under the origin's
    /// `Content-Length`, or to an HTTP/1.0 client until the close).
    chunked: bool,
    /// What this response has put on the client's wire so far (head
    /// and encoded chunks), for the byte ledger.
    wire_bytes: u64,
    /// Read interest parked by client backpressure.
    paused: bool,
    /// Whether the response head permits reusing the connection once
    /// the body ends cleanly (self-delimiting framing, no
    /// `Connection: close`).
    reusable: bool,
}

enum WriteStep {
    Done,
    Blocked,
    Dead,
}

/// Re-arms a descriptor's epoll interest only when it actually changed;
/// the cached state makes the common completes-in-one-batch request
/// cost zero `epoll_ctl` calls.
fn set_interest(
    reactor: &mut Reactor,
    stream: &TcpStream,
    token: Token,
    cached: &mut Interest,
    want: Interest,
) {
    if *cached != want && reactor.reregister(stream, token, want).is_ok() {
        *cached = want;
    }
}

/// Backpressure: a streaming origin stops being read once its client
/// owes the socket more than [`STREAM_HIGH_WATER`], and is read again
/// once that is back under [`STREAM_LOW_WATER`].
fn throttle(reactor: &mut Reactor, slot: usize, o: &mut OriginConn, backlog: usize) {
    let Some(fetch) = &mut o.relay else {
        return;
    };
    let pause = if fetch.paused {
        backlog >= STREAM_LOW_WATER
    } else {
        backlog > STREAM_HIGH_WATER
    };
    if pause != fetch.paused {
        fetch.paused = pause;
        let want = if pause {
            Interest::NONE
        } else {
            Interest::READABLE
        };
        set_interest(reactor, &o.stream, token_of(slot), &mut o.interest, want);
    }
}

/// A real TCP front door over a [`Gateway`]: accepts connections, speaks
/// HTTP/1.1 with keep-alive, and drives every decision through the
/// deferred two-phase protocol on one epoll loop per configured thread.
pub struct Server {
    workers: Vec<Worker>,
    local_addr: SocketAddr,
    gateway: Arc<Gateway>,
    shared: Arc<SharedCounters>,
    wakers: Vec<Waker>,
    waker_fd: i32,
}

/// One reactor thread's whole world: its listener, slab, buffer pool,
/// and scratch. Everything shared with sibling workers lives behind
/// `gateway` and `shared`.
struct Worker {
    reactor: Reactor,
    listener: Option<TcpListener>,
    gateway: Arc<Gateway>,
    config: ServeConfig,
    shared: Arc<SharedCounters>,
    /// Every worker's waker (own included): whichever reactor notices
    /// shutdown first fans it out so siblings drain promptly.
    peer_wakers: Vec<Waker>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Slots freed during the current event batch; merged into `free`
    /// only after the batch so a stale event cannot hit a reused slot.
    pending_free: Vec<usize>,
    /// Connections live on *this* reactor (loop-exit accounting; the
    /// cap reads the global atomic).
    clients: usize,
    draining: bool,
    /// Recycled write buffers.
    pool: Vec<Vec<u8>>,
    /// Recycled read buffers, still initialised.
    read_pool: Vec<ReadBuf>,
    /// This reactor's call tallies (its cell of `shared.workers`).
    sys: Arc<WorkerCounters>,
    /// Slots holding parked origin connections, most recently parked
    /// last — takeout pops the warmest socket first. Strictly
    /// per-worker: a connection registered with this reactor can only
    /// ever be driven by this reactor.
    idle_pool: Vec<usize>,
    /// Streaming-relay scratch: where one step's output lies, on its
    /// way from the origin's read buffer to the client's socket.
    staged: Staged,
    /// When (on this reactor's clock) the next sweep slice is due.
    next_sweep_ms: u64,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and prepares one event loop
    /// per configured thread. With `threads == 1` this is a plain
    /// listener; otherwise each worker binds its own `SO_REUSEPORT`
    /// listener on the same address.
    pub fn bind(addr: &str, gateway: Arc<Gateway>, config: ServeConfig) -> io::Result<Server> {
        let threads = config.threads.max(1);
        let mut listeners = Vec::with_capacity(threads);
        let local_addr;
        if threads == 1 {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            local_addr = listener.local_addr()?;
            listeners.push(listener);
        } else {
            let requested: SocketAddr = addr
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
            let first = net::tcp_listen_reuseport(requested)?;
            // Port 0 resolves on the first bind; siblings share it.
            local_addr = first.local_addr()?;
            listeners.push(first);
            for _ in 1..threads {
                listeners.push(net::tcp_listen_reuseport(local_addr)?);
            }
        }
        let mut reactors = Vec::with_capacity(threads);
        for listener in listeners {
            let mut reactor = Reactor::new()?;
            reactor.register(&listener, LISTENER, Interest::READABLE)?;
            reactors.push((reactor, listener));
        }
        let cells = reactors.iter().map(|(reactor, _)| {
            Arc::new(WorkerCounters {
                reactor: Arc::clone(reactor.counters()),
                ..WorkerCounters::default()
            })
        });
        let shared = Arc::new(SharedCounters::over(cells.collect()));
        let mut workers = Vec::with_capacity(threads);
        let mut wakers = Vec::with_capacity(threads);
        let mut waker_fd = -1;
        for (n, (reactor, listener)) in reactors.into_iter().enumerate() {
            if waker_fd < 0 {
                waker_fd = reactor.waker_fd();
            }
            wakers.push(reactor.waker());
            workers.push(Worker {
                reactor,
                listener: Some(listener),
                gateway: Arc::clone(&gateway),
                config: config.clone(),
                shared: Arc::clone(&shared),
                peer_wakers: Vec::new(),
                slots: Vec::new(),
                free: Vec::new(),
                pending_free: Vec::new(),
                clients: 0,
                draining: false,
                pool: Vec::new(),
                read_pool: Vec::new(),
                sys: Arc::clone(&shared.workers[n]),
                idle_pool: Vec::new(),
                staged: Staged::default(),
                next_sweep_ms: SWEEP_TICK_MS,
            });
        }
        for worker in &mut workers {
            worker.peer_wakers = wakers.clone();
        }
        Ok(Server {
            workers,
            local_addr,
            gateway,
            shared,
            wakers,
            waker_fd,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
            wakers: self.wakers.clone(),
            waker_fd: self.waker_fd,
        }
    }

    /// Runs every event loop until shutdown completes, then drains the
    /// gateway (once, after all reactors have stopped) and reports
    /// merged totals.
    pub fn run(&mut self) -> io::Result<ServeReport> {
        let mut workers = std::mem::take(&mut self.workers);
        let result = if workers.len() == 1 {
            workers[0].run()
        } else {
            let mut rest = workers.split_off(1);
            std::thread::scope(|scope| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .map(|worker| scope.spawn(move || worker.run()))
                    .collect();
                let mut result = workers[0].run();
                for handle in handles {
                    let joined = handle.join().expect("worker thread panicked");
                    if result.is_ok() {
                        result = joined;
                    }
                }
                result
            })
        };
        result?;
        let interest_changes = workers
            .iter()
            .map(|worker| worker.reactor.interest_changes())
            .sum();
        let drained_sessions = self.gateway.drain().len();
        Ok(ServeReport {
            interest_changes,
            sys: self.shared.sys_calls(),
            connections: self.shared.connections_total.load(Ordering::SeqCst),
            requests: self.shared.requests_total.load(Ordering::SeqCst),
            drained_sessions,
            origin_connects: self.shared.origin_connects.load(Ordering::SeqCst),
            origin_reuses: self.shared.origin_reuses.load(Ordering::SeqCst),
            origin_retries: self.shared.origin_retries.load(Ordering::SeqCst),
        })
    }
}

impl Worker {
    /// The clock of this worker's reactor as the workspace's
    /// simulated-time type: milliseconds from the reactor's start to
    /// its last wakeup (no clock read; one batch, one instant).
    fn now(&self) -> SimTime {
        SimTime::from_millis(self.reactor.now_ms())
    }

    fn run(&mut self) -> io::Result<()> {
        let result = self.run_loop();
        if result.is_err() {
            // A dying reactor must not strand its siblings mid-drain.
            self.shared.shutdown.store(true, Ordering::SeqCst);
            for waker in &self.peer_wakers {
                waker.wake();
            }
        }
        result
    }

    fn run_loop(&mut self) -> io::Result<()> {
        let mut events = Vec::new();
        loop {
            if (self.shared.shutdown.load(Ordering::SeqCst) || signals::terminated())
                && !self.draining
            {
                self.begin_drain();
            }
            if self.draining && self.clients == 0 {
                return Ok(());
            }
            self.reactor
                .poll(&mut events, Some(Duration::from_millis(500)))?;
            for event in events.iter().copied() {
                self.on_event(event);
            }
            self.free.append(&mut self.pending_free);
            self.sweep_tick();
        }
    }

    /// The live server's sweep: once per [`SWEEP_TICK_MS`], one bounded
    /// slice. The gateway classifies and counts what the slice
    /// finalized (`completed_sessions`); nothing here reads the
    /// sessions, so they are dropped. Every reactor ticks and the
    /// tracker's cursor hands each call a different shard, so reactors
    /// need no coordinator.
    fn sweep_tick(&mut self) {
        let now_ms = self.reactor.now_ms();
        if now_ms >= self.next_sweep_ms {
            self.next_sweep_ms = now_ms + SWEEP_TICK_MS;
            self.gateway
                .sweep_slice(SimTime::from_millis(now_ms), SWEEP_BUDGET);
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        // Whichever waker the signal handler (or handle) reached first,
        // every sibling reactor must notice too.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.peer_wakers {
            waker.wake();
        }
        // Closing the listener deregisters it and refuses new work.
        self.listener = None;
        // Parked origin connections serve nobody during a drain.
        for slot in std::mem::take(&mut self.idle_pool) {
            if let Some(Slot::IdleOrigin(idle)) = self.slots.get_mut(slot).and_then(Option::take) {
                self.reactor.cancel_deadline(token_of(slot));
                self.pending_free.push(slot);
                drop(idle);
            }
        }
        // Idle keep-alive connections have nothing in flight: drop now.
        for slot in 0..self.slots.len() {
            let idle = matches!(
                &self.slots[slot],
                Some(Slot::Client(c)) if matches!(c.state, ClientState::Reading) && c.buf.is_empty()
            );
            if idle {
                let Some(Slot::Client(c)) = self.slots[slot].take() else {
                    unreachable!("checked above");
                };
                self.release_client(slot, c);
            }
        }
    }

    fn on_event(&mut self, ev: Event) {
        if ev.token == LISTENER {
            self.accept_ready();
            return;
        }
        let slot = ev.token.0 - 1;
        // A slot freed earlier in this batch may still have queued
        // events; they are stale.
        let Some(taken) = self.slots.get_mut(slot).and_then(Option::take) else {
            return;
        };
        match taken {
            Slot::Client(c) => self.drive_client(slot, c, ev),
            Slot::OriginFetch(o) => self.drive_origin(slot, *o, ev),
            Slot::IdleOrigin(idle) => self.drop_idle(slot, idle),
        }
    }

    /// Any event on a parked origin connection retires it: readable
    /// means EOF or an unsolicited byte (either poisons reuse), closed
    /// means the peer reset, and the timer is the idle deadline.
    fn drop_idle(&mut self, slot: usize, idle: IdleOrigin) {
        self.reactor.cancel_deadline(token_of(slot));
        self.idle_pool.retain(|&parked| parked != slot);
        self.pending_free.push(slot);
        drop(idle);
    }

    /// Pops the most recently parked live connection to `addr`. Each
    /// candidate is probed with a non-blocking read: a live idle origin
    /// has nothing to say (`WouldBlock`), while EOF, an error, or an
    /// unsolicited byte retires the socket on the spot — a poisoned
    /// connection is never handed to a lease.
    fn take_pooled(&mut self, addr: SocketAddr) -> Option<(usize, TcpStream, Interest)> {
        while let Some(slot) = self.idle_pool.pop() {
            let Some(Slot::IdleOrigin(mut idle)) = self.slots.get_mut(slot).and_then(Option::take)
            else {
                continue;
            };
            self.reactor.cancel_deadline(token_of(slot));
            if idle.addr == addr {
                // The one read made in order to be told `EAGAIN`.
                self.sys.reads.add(1);
                let probe = idle.stream.read(&mut [0u8; 1]);
                if matches!(probe, Err(ref e) if e.kind() == io::ErrorKind::WouldBlock) {
                    self.sys.reads_eagain.add(1);
                    return Some((slot, idle.stream, idle.interest));
                }
            }
            // Dropping the stream closes the fd (the kernel deregisters
            // it); the slot is reusable after this batch.
            self.pending_free.push(slot);
        }
        None
    }

    /// Parks a finished origin connection for reuse when `reusable` and
    /// the pool has room, or retires it. A connection with leftover
    /// buffered bytes or an unfinished request write is never parked.
    fn park_or_free(&mut self, slot: usize, o: OriginConn, reusable: bool) {
        let addr = self.config.origin;
        let park = reusable
            && !self.draining
            && self.idle_pool.len() < self.config.origin_pool
            && o.buf.is_empty()
            && o.pos == o.out.len();
        let (Some(addr), true) = (addr, park) else {
            self.pending_free.push(slot);
            self.retire_origin(o);
            return;
        };
        let OriginConn {
            stream,
            out,
            buf,
            mut interest,
            ..
        } = o;
        // Parked connections stay registered readable: a FIN or stray
        // byte while idle retires them before any lease can look.
        set_interest(
            &mut self.reactor,
            &stream,
            token_of(slot),
            &mut interest,
            Interest::READABLE,
        );
        self.reactor
            .deadline(token_of(slot), self.config.origin_pool_idle);
        self.recycle(out);
        self.recycle_read(buf);
        self.slots[slot] = Some(Slot::IdleOrigin(IdleOrigin {
            stream,
            addr,
            interest,
        }));
        self.idle_pool.push(slot);
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.slots.push(None);
            self.slots.len() - 1
        }
    }

    /// A pooled write buffer (empty, capacity warm from its last
    /// connection).
    fn take_buf(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a write buffer to the pool unless it grew past the
    /// retention cap.
    fn recycle(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() <= POOL_BUF_CAP && self.pool.len() < POOL_MAX {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// A pooled read buffer (no data, landing area still initialised).
    fn take_read_buf(&mut self) -> ReadBuf {
        self.read_pool.pop().unwrap_or_default()
    }

    /// Returns a read buffer to its pool unless it grew past the
    /// retention cap.
    fn recycle_read(&mut self, mut buf: ReadBuf) {
        if buf.bytes.capacity() <= POOL_BUF_CAP && self.read_pool.len() < POOL_MAX {
            buf.clear();
            self.read_pool.push(buf);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            // Born non-blocking (`accept4`); the call that finds the
            // backlog empty ends the drain.
            self.sys.accepts.add(1);
            let (stream, peer) = match net::accept_nonblocking(listener) {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            // Reserve against the *global* cap, backing out on
            // overshoot, so concurrent reactors can never admit more
            // than the cap together.
            if self.shared.live.fetch_add(1, Ordering::AcqRel) >= self.config.max_connections {
                self.shared.live.fetch_sub(1, Ordering::AcqRel);
                // Over the cap: a terse 503 and the door closes. The
                // write is best-effort — a client that cannot even take
                // one packet gets a bare close.
                let resp = Response::builder(StatusCode::SERVICE_UNAVAILABLE)
                    .header("Connection", "close")
                    .header("Content-Length", "0")
                    .build();
                self.sys.writes.add(1);
                let _ = (&stream).write(&wire::serialize_response(&resp));
                continue;
            }
            let slot = self.alloc_slot();
            if self
                .reactor
                .register(&stream, token_of(slot), Interest::READABLE)
                .is_err()
            {
                self.shared.live.fetch_sub(1, Ordering::AcqRel);
                self.free.push(slot);
                continue;
            }
            self.reactor
                .deadline(token_of(slot), self.config.read_timeout);
            let buf = self.take_read_buf();
            let out = self.take_buf();
            self.slots[slot] = Some(Slot::Client(ClientConn {
                stream,
                peer: client_ip(peer),
                buf,
                out,
                pos: 0,
                interest: Interest::READABLE,
                state: ClientState::Reading,
            }));
            self.clients += 1;
            self.shared
                .connections_total
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drive_client(&mut self, slot: usize, mut c: ClientConn, ev: Event) {
        if ev.timer {
            match &c.state {
                // Idle keep-alive: close quietly. Half a request: 408.
                ClientState::Reading if c.buf.is_empty() => {
                    self.release_client(slot, c);
                    return;
                }
                ClientState::Reading => {
                    self.set_response(
                        slot,
                        &mut c,
                        Response::empty(StatusCode::REQUEST_TIMEOUT),
                        true,
                    );
                    if self.pump(slot, &mut c, false) {
                        self.slots[slot] = Some(Slot::Client(c));
                    } else {
                        self.release_client(slot, c);
                    }
                    return;
                }
                // A write that outlives the read timeout is a stuck
                // client; the origin deadline covers `Awaiting`. The
                // streaming deadline refreshes on every flushed byte, so
                // firing here means the client stopped draining.
                ClientState::Writing { .. } | ClientState::Streaming { .. } => {
                    self.release_client(slot, c);
                    return;
                }
                ClientState::Awaiting { .. } => {
                    self.slots[slot] = Some(Slot::Client(c));
                    return;
                }
            }
        }
        let mut eof = false;
        if matches!(c.state, ClientState::Reading) && (ev.readable || ev.closed) {
            eof = read_available(&mut c.stream, &mut c.buf, ev.closed, &self.sys);
        } else if ev.closed {
            // Peer hung up while parked or mid-write: nothing sensible
            // left to send them.
            self.release_client(slot, c);
            return;
        } else if ev.readable {
            // A pipelining client: bytes of its next request while this
            // one is parked on an origin. Level-triggered epoll would
            // report them on every poll, so this one event (and no
            // earlier guess) drops read interest; the return to
            // `Reading` restores it. Hang-ups arrive regardless.
            set_interest(
                &mut self.reactor,
                &c.stream,
                token_of(slot),
                &mut c.interest,
                Interest::NONE,
            );
        }
        if self.pump(slot, &mut c, eof) {
            self.slots[slot] = Some(Slot::Client(c));
            self.maybe_resume_origin(slot);
        } else {
            self.release_client(slot, c);
        }
    }

    /// Advances a client's state machine until it blocks. Returns
    /// `false` when the connection is finished (caller releases it).
    fn pump(&mut self, slot: usize, c: &mut ClientConn, eof: bool) -> bool {
        loop {
            match &mut c.state {
                ClientState::Reading => match wire::read_request(&c.buf, c.peer) {
                    Ok(Some((request, len))) => {
                        self.shared.requests_total.fetch_add(1, Ordering::Relaxed);
                        c.buf.consume(len);
                        self.dispatch(slot, c, request);
                    }
                    Ok(None) => {
                        if eof {
                            return false;
                        }
                        // Waiting for more bytes: refresh the idle clock.
                        self.reactor
                            .deadline(token_of(slot), self.config.read_timeout);
                        set_interest(
                            &mut self.reactor,
                            &c.stream,
                            token_of(slot),
                            &mut c.interest,
                            Interest::READABLE,
                        );
                        return true;
                    }
                    Err(_) => {
                        self.set_response(slot, c, Response::empty(StatusCode::BAD_REQUEST), true)
                    }
                },
                ClientState::Awaiting { .. } => return !eof,
                ClientState::Writing { .. } | ClientState::Streaming { .. } => {
                    match write_available(&mut c.stream, &c.out, &mut c.pos, &self.sys) {
                        WriteStep::Done => {}
                        WriteStep::Blocked => {
                            self.reactor
                                .deadline(token_of(slot), self.config.read_timeout);
                            set_interest(
                                &mut self.reactor,
                                &c.stream,
                                token_of(slot),
                                &mut c.interest,
                                Interest::WRITABLE,
                            );
                            return true;
                        }
                        WriteStep::Dead => return false,
                    }
                    // Fully drained: reclaim the buffer.
                    c.out.clear();
                    c.pos = 0;
                    if let ClientState::Writing { close_after } = c.state {
                        if close_after || self.draining {
                            return false;
                        }
                        c.state = ClientState::Reading;
                        // Loop again: pipelined bytes may already hold
                        // the next complete request.
                        continue;
                    }
                    // A stream: the origin will push more; wait for it.
                    // The registration stays as it is unless a blocked
                    // write left WRITABLE armed, which a drained socket
                    // would report on every poll.
                    self.reactor
                        .deadline(token_of(slot), self.config.read_timeout);
                    if c.interest == Interest::WRITABLE {
                        set_interest(
                            &mut self.reactor,
                            &c.stream,
                            token_of(slot),
                            &mut c.interest,
                            Interest::READABLE,
                        );
                    }
                    return true;
                }
            }
        }
    }

    /// Routes one parsed request: the admin plane answers directly,
    /// everything else goes through the gateway's two-phase protocol.
    fn dispatch(&mut self, slot: usize, c: &mut ClientConn, request: Request) {
        let close_after = !(self.config.keep_alive && !self.draining && wants_keep_alive(&request));
        if request.uri().path() == "/admin/stats" {
            let body = serve_stats_json(&self.gateway.stats(), &self.shared, self.config.threads);
            let resp = Response::builder(StatusCode::OK)
                .header("Content-Type", "application/json")
                .body_bytes(body.into_bytes())
                .build();
            self.set_response(slot, c, resp, close_after);
            return;
        }
        let now = self.now();
        match self.gateway.handle_deferred(&request, now) {
            PendingServe::Ready(decision) => {
                self.set_response(slot, c, decision.into_response(), close_after)
            }
            PendingServe::AwaitingOrigin(pending) => {
                let Some(origin_addr) = self.config.origin else {
                    let d = self.gateway.complete(pending, Origin::NotFound, now);
                    self.set_response(slot, c, d.into_response(), close_after);
                    return;
                };
                let mut out = self.take_buf();
                upstream_request(pending.request(), &mut out);
                // Pool first: a parked connection skips connect and
                // register outright, and its cached READABLE interest is
                // already what a written-out fetch wants — the common
                // warm takeout costs one `write` and nothing else.
                let mut reused = false;
                let mut prepared = None;
                if let Some((pooled_slot, mut stream, mut interest)) = self.take_pooled(origin_addr)
                {
                    self.shared.origin_reuses.fetch_add(1, Ordering::Relaxed);
                    let mut pos = 0;
                    match write_available(&mut stream, &out, &mut pos, &self.sys) {
                        WriteStep::Dead => {
                            // The parked socket died between the probe
                            // and the write: retry on a fresh connection
                            // right here — this *is* the one retry, so
                            // the fresh fetch below is not `reused`.
                            self.shared.origin_retries.fetch_add(1, Ordering::Relaxed);
                            self.pending_free.push(pooled_slot);
                            drop(stream);
                        }
                        step => {
                            let want = match step {
                                WriteStep::Done => Interest::READABLE,
                                _ => Interest::WRITABLE,
                            };
                            set_interest(
                                &mut self.reactor,
                                &stream,
                                token_of(pooled_slot),
                                &mut interest,
                                want,
                            );
                            reused = true;
                            prepared = Some((pooled_slot, stream, pos, interest, true));
                        }
                    }
                }
                let (origin_slot, stream, pos, interest, connected) = match prepared {
                    Some(prepared) => prepared,
                    None => {
                        let origin_slot = self.alloc_slot();
                        let Some((stream, pos, interest, connected)) =
                            self.connect_origin(origin_addr, origin_slot, &out)
                        else {
                            // Origin unreachable before the fetch even
                            // started: complete (never drop) the lease
                            // so enforcement's in-flight count stays
                            // exact.
                            self.free.push(origin_slot);
                            self.recycle(out);
                            let gone = Origin::Response(Response::empty(StatusCode::BAD_GATEWAY));
                            let d = self.gateway.complete(pending, gone, now);
                            self.set_response(slot, c, d.into_response(), close_after);
                            return;
                        };
                        (origin_slot, stream, pos, interest, connected)
                    }
                };
                self.reactor
                    .deadline(token_of(origin_slot), self.config.origin_timeout);
                let buf = self.take_read_buf();
                self.slots[origin_slot] = Some(Slot::OriginFetch(Box::new(OriginConn {
                    stream,
                    out,
                    pos,
                    buf,
                    client_slot: slot,
                    close_after,
                    pending: Some(pending),
                    connected,
                    interest,
                    reused,
                    saw_byte: false,
                    relay: None,
                })));
                // Park the client with the registration it has: a
                // hang-up is reported whatever the mask, and a client
                // that sends nothing until it is answered (nearly all of
                // them) never makes read interest matter. The one that
                // pipelines loses it on the event that proves it, in
                // `drive_client`, not here on a guess.
                c.state = ClientState::Awaiting { origin_slot };
                self.reactor.cancel_deadline(token_of(slot));
            }
        }
    }

    /// Stages a response for writing: framing made explicit so
    /// keep-alive clients always know where the message ends, head
    /// serialized straight into the slot's pooled write buffer with the
    /// body behind it — one buffer, one `write` when the socket takes
    /// it whole.
    fn set_response(
        &mut self,
        slot: usize,
        c: &mut ClientConn,
        mut response: Response,
        close_after: bool,
    ) {
        if !response.headers().contains("Content-Length") {
            let len = response.body().len();
            response
                .headers_mut()
                .set("Content-Length", len.to_string());
        }
        response.headers_mut().set(
            "Connection",
            if close_after { "close" } else { "keep-alive" },
        );
        c.out.clear();
        c.pos = 0;
        wire::serialize_response_into(&response, &mut c.out);
        c.state = ClientState::Writing { close_after };
        self.reactor
            .deadline(token_of(slot), self.config.read_timeout);
    }

    /// Tears a client down, aborting (by *completing*) any origin fetch
    /// it was waiting on or streaming from.
    fn release_client(&mut self, slot: usize, c: ClientConn) {
        let fetch_slot = match c.state {
            ClientState::Awaiting { origin_slot } => Some(origin_slot),
            ClientState::Streaming { origin_slot, .. } => Some(origin_slot),
            _ => None,
        };
        if let Some(origin_slot) = fetch_slot {
            // The fetch slot can be empty when the origin itself is
            // mid-drive in this same batch; it notices the dead client
            // when its delivery bounces and abandons itself.
            if let Some(Slot::OriginFetch(o)) =
                self.slots.get_mut(origin_slot).and_then(Option::take)
            {
                self.abandon_origin(origin_slot, *o);
            }
        }
        self.reactor.cancel_deadline(token_of(slot));
        self.pending_free.push(slot);
        self.clients -= 1;
        self.shared.live.fetch_sub(1, Ordering::AcqRel);
        let ClientConn { buf, out, .. } = c;
        // Dropping the stream closed the fd; the kernel deregistered it.
        self.recycle_read(buf);
        self.recycle(out);
    }

    /// The client is gone but the lease must still be committed —
    /// dropping it would leak the session's in-flight count until
    /// rollover. A synthesized 504 records "the exchange died on us".
    fn abandon_origin(&mut self, origin_slot: usize, mut o: OriginConn) {
        self.reactor.cancel_deadline(token_of(origin_slot));
        self.pending_free.push(origin_slot);
        if let Some(pending) = o.pending.take() {
            let gone = Origin::Response(Response::empty(StatusCode::GATEWAY_TIMEOUT));
            let now = self.now();
            let _ = self.gateway.complete(pending, gone, now);
        }
        let OriginConn { buf, out, .. } = o;
        self.recycle_read(buf);
        self.recycle(out);
    }

    fn drive_origin(&mut self, slot: usize, mut o: OriginConn, ev: Event) {
        if ev.timer {
            if o.relay.is_some() {
                // A stalled stream cannot 504 — the head already went
                // out. Commit the lease, truncate the client.
                self.staged.clear();
                self.relay_stream(slot, o, 0, StreamEnd::Truncated);
            } else {
                // Origin took too long to say anything: the lease
                // completes with a 504 and the client learns the truth.
                self.fail_origin(slot, o, StatusCode::GATEWAY_TIMEOUT);
            }
            return;
        }
        if !o.connected {
            match o.stream.take_error() {
                Ok(None) => o.connected = true,
                _ => {
                    self.fail_origin(slot, o, StatusCode::BAD_GATEWAY);
                    return;
                }
            }
        }
        if o.pos < o.out.len() && (ev.writable || ev.closed) {
            match write_available(&mut o.stream, &o.out, &mut o.pos, &self.sys) {
                WriteStep::Done => {
                    set_interest(
                        &mut self.reactor,
                        &o.stream,
                        token_of(slot),
                        &mut o.interest,
                        Interest::READABLE,
                    );
                }
                WriteStep::Blocked => {}
                WriteStep::Dead => {
                    // A pooled connection may have died while parked; a
                    // write that fails before any response byte retries
                    // once on a fresh socket.
                    if o.reused && !o.saw_byte {
                        self.retry_origin(slot, o);
                    } else {
                        self.fail_origin(slot, o, StatusCode::BAD_GATEWAY);
                    }
                    return;
                }
            }
        }
        let mut eof = false;
        let before = o.buf.len();
        if ev.readable || ev.closed {
            eof = read_available(&mut o.stream, &mut o.buf, ev.closed, &self.sys);
        }
        if o.buf.len() > before {
            o.saw_byte = true;
        }
        if o.relay.is_some() {
            self.origin_stream_step(slot, o, 0, eof);
        } else {
            self.origin_head_step(slot, o, eof);
        }
    }

    /// Opens a fresh connection to the origin for the fetch in `slot`:
    /// connect, write `out` optimistically, register under the slot's
    /// token. A loopback connect often completes synchronously, and
    /// writing straight away skips a whole poll round trip when it did;
    /// a still-connecting socket just reports `WouldBlock` and takes the
    /// writable-event path. Yields the stream, how much of `out` it
    /// took, the interest it was registered with, and whether the
    /// connect is known to be complete; `None` when the connect or the
    /// registration failed.
    fn connect_origin(
        &mut self,
        addr: SocketAddr,
        slot: usize,
        out: &[u8],
    ) -> Option<(TcpStream, usize, Interest, bool)> {
        self.sys.connects.add(1);
        let mut stream = net::tcp_connect_nonblocking(addr).ok()?;
        let mut pos = 0;
        let (connected, interest) = match write_available(&mut stream, out, &mut pos, &self.sys) {
            WriteStep::Done => (true, Interest::READABLE),
            WriteStep::Blocked if pos > 0 => (true, Interest::WRITABLE),
            _ => (false, Interest::WRITABLE),
        };
        self.reactor
            .register(&stream, token_of(slot), interest)
            .ok()?;
        self.shared.origin_connects.fetch_add(1, Ordering::Relaxed);
        Some((stream, pos, interest, connected))
    }

    /// A reused fetch died before the origin said anything: swap in a
    /// fresh connection under the same slot and replay the request.
    /// Runs at most once per fetch — the replacement is not `reused`,
    /// so a second failure takes the ordinary 502 path.
    fn retry_origin(&mut self, slot: usize, mut o: OriginConn) {
        self.shared.origin_retries.fetch_add(1, Ordering::Relaxed);
        let addr = self
            .config
            .origin
            .expect("a fetch exists only with an origin configured");
        o.pos = 0;
        o.buf.clear();
        let Some((stream, pos, interest, connected)) = self.connect_origin(addr, slot, &o.out)
        else {
            self.fail_origin(slot, o, StatusCode::BAD_GATEWAY);
            return;
        };
        // Dropping the dead socket closes it (the kernel deregisters);
        // the fresh one has taken over the same token.
        o.stream = stream;
        o.pos = pos;
        o.interest = interest;
        o.connected = connected;
        o.reused = false;
        o.saw_byte = false;
        self.reactor
            .deadline(token_of(slot), self.config.origin_timeout);
        self.slots[slot] = Some(Slot::OriginFetch(Box::new(o)));
    }

    /// An origin fetch whose response head has not parsed yet: retry if
    /// the pooled connection turned out stale, wait for the rest of the
    /// head, or hand the response over to the stream. An origin that
    /// closes or sends garbage inside its head is the `502`.
    fn origin_head_step(&mut self, slot: usize, o: OriginConn, eof: bool) {
        // A reused connection the origin closed without a single
        // response byte was stale in the pool: retry once, fresh.
        if eof && o.reused && !o.saw_byte && o.buf.is_empty() {
            self.retry_origin(slot, o);
            return;
        }
        match frame::response_head(&o.buf) {
            Ok(Some(head)) => self.begin_stream(slot, o, head, eof),
            Ok(None) if !eof => self.slots[slot] = Some(Slot::OriginFetch(Box::new(o))),
            _ => self.fail_origin(slot, o, StatusCode::BAD_GATEWAY),
        }
    }

    /// Hands a fetch whose head has parsed over to the stream: decide
    /// how the body travels ([`BodyPlan`]), lease the rewriter for a
    /// page or a pass-through that records the origin's status and
    /// `Content-Type` for anything else, answer the parked client's
    /// head, and run the first stream step over whatever body bytes
    /// arrived with the origin's head (in place, behind it — the head is
    /// skipped, not shifted out).
    fn begin_stream(
        &mut self,
        slot: usize,
        mut o: OriginConn,
        head: frame::ResponseHead,
        eof: bool,
    ) {
        let pending = o.pending.as_ref().expect("lease pending until finish");
        let request = pending.request();
        let plan = BodyPlan::of(
            &head,
            *request.method() == Method::Head,
            request.version() == "HTTP/1.1",
        );
        let page = if plan.page {
            self.gateway.begin_page_stream(pending, self.now())
        } else {
            let status = StatusCode::new(head.status).expect("response_head checked the range");
            let mut recorded = Response::builder(status);
            if let Some(content_type) = &head.content_type {
                recorded = recorded.header("Content-Type", content_type.as_str());
            }
            PageStream::relay(recorded.build())
        };
        let Some(Slot::Client(mut c)) = self.slots.get_mut(o.client_slot).and_then(Option::take)
        else {
            // The client died earlier in this batch; the lease still
            // commits on the abandon path.
            self.abandon_origin(slot, o);
            return;
        };
        let close_after = o.close_after || plan.to_close;
        c.out.clear();
        c.pos = 0;
        if plan.page {
            streaming_head(&plan, close_after, &mut c.out);
        } else {
            let origin = Head::parse(&o.buf[..head.len], head.len)
                .ok()
                .flatten()
                .expect("response_head parsed this block");
            relay_head(&origin, &plan, close_after, &mut c.out);
        }
        o.relay = Some(Box::new(StreamingFetch {
            decoder: BodyDecoder::new(plan.origin),
            page,
            chunked: plan.chunked,
            wire_bytes: c.out.len() as u64,
            paused: false,
            // The connection can carry another request when the body is
            // self-delimiting (a close-delimited one *is* the
            // connection's end) and the origin has not announced
            // `Connection: close`.
            reusable: !head.connection_close && plan.origin != BodyFraming::Close,
        }));
        c.state = ClientState::Streaming {
            origin_slot: slot,
            close_after,
        };
        // No WRITABLE interest yet: the first step's write is attempted
        // straight away, and `pump` asks for it only if that blocks.
        self.reactor
            .deadline(token_of(o.client_slot), self.config.read_timeout);
        self.slots[o.client_slot] = Some(Slot::Client(c));
        self.origin_stream_step(slot, o, head.len, eof);
    }

    /// One step of an active stream: decode what arrived and rewrite it
    /// where it lies. The decoder points at body runs inside the
    /// origin's read buffer (past the `skip` bytes of response head on
    /// the first step), a page's rewriter scans them there (a relay
    /// names each run whole), and what resolves is staged as ranges of
    /// that buffer plus the few hundred bytes that are not in it;
    /// [`Worker::relay_stream`] sends that on.
    fn origin_stream_step(&mut self, slot: usize, mut o: OriginConn, skip: usize, eof: bool) {
        let Some(fetch) = &mut o.relay else {
            unreachable!("caller checked for the stream");
        };
        let StreamingFetch { decoder, page, .. } = &mut **fetch;
        let staged = &mut self.staged;
        staged.clear();
        let decoded = decoder.decode(&o.buf[skip..], |at, run| {
            staged.base = skip + at;
            page.write(run, staged);
        });
        let (consumed, end) = match decoded {
            Ok((used, done)) if done || (eof && decoder.eof_ok()) => {
                (skip + used, StreamEnd::Clean)
            }
            Ok((used, _)) if !eof => (skip + used, StreamEnd::More),
            // The origin closed mid-body or sent garbage chunk framing:
            // what decoded cleanly ahead of it still goes out.
            _ => (0, StreamEnd::Truncated),
        };
        // A stream that ended by EOF closed its connection; one that
        // ended by framing with a reuse-friendly head parks.
        fetch.reusable &= !eof;
        self.relay_stream(slot, o, consumed, end);
    }

    /// Sends the step staged in `self.staged` (nothing, when the origin
    /// stalled) to the client, chunk-framed or as it is, and settles the
    /// fetch's fate: waiting for more (`consumed` bytes of its read
    /// buffer are done with), finished, or truncated. A stream that
    /// ends, either way, flushes the rewriter's tail (a chunk of its
    /// own) and commits its lease (dropping it would leak the session's
    /// in-flight count); only a clean end gets the terminal chunk, so a
    /// truncation stays visible.
    fn relay_stream(&mut self, slot: usize, mut o: OriginConn, consumed: usize, end: StreamEnd) {
        let Some(fetch) = &mut o.relay else {
            unreachable!("only a streaming fetch is relayed");
        };
        let mut staged = std::mem::take(&mut self.staged);
        let chunked = fetch.chunked;
        fetch.wire_bytes +=
            frame_body(chunked, &mut staged.wire, &mut staged.side, &staged.runs) as u64;
        let mut reusable = false;
        if end != StreamEnd::More {
            let fetch = o.relay.take().expect("matched above");
            reusable = fetch.reusable;
            let pending = o.pending.take().expect("finish runs once per fetch");
            let start = staged.side.len();
            let (page, sent, now) = (fetch.page, fetch.wire_bytes, self.now());
            self.gateway
                .finish_page_stream(pending, page, &mut staged.side, sent, now);
            let tail = [Part::new(false, start, staged.side.len())];
            frame_body(chunked, &mut staged.wire, &mut staged.side, &tail);
            self.reactor.cancel_deadline(token_of(slot));
        }
        if end == StreamEnd::Clean && chunked {
            push_side(&mut staged.wire, &mut staged.side, b"0\r\n\r\n");
        }
        let client_slot = o.client_slot;
        let wrote = self.write_stream(client_slot, &staged, &o.buf, end);
        // Only now: the staged ranges point into the buffer. Usually all
        // of it goes, and nothing is left to shift down.
        o.buf.consume(consumed);
        self.staged = staged;
        // The fetch is settled before the client moves on, so a
        // pipelined next request finds the connection already parked.
        let waiting = match end {
            StreamEnd::More => Some(o),
            StreamEnd::Clean => {
                self.park_or_free(slot, o, reusable);
                None
            }
            StreamEnd::Truncated => {
                self.pending_free.push(slot);
                self.retire_origin(o);
                None
            }
        };
        let backlog = wrote.and_then(|c| self.settle_stream(client_slot, c));
        let Some(mut o) = waiting else {
            return;
        };
        let Some(backlog) = backlog else {
            // Client gone mid-stream: commit the lease, drop the fetch.
            self.abandon_origin(slot, o);
            return;
        };
        // Progress was made: refresh the stall deadline, then apply
        // backpressure against the client's unsent backlog.
        self.reactor
            .deadline(token_of(slot), self.config.origin_timeout);
        throttle(&mut self.reactor, slot, &mut o, backlog);
        self.slots[slot] = Some(Slot::OriginFetch(Box::new(o)));
    }

    /// Drops a finished origin connection, returning its buffers to the
    /// pool.
    fn retire_origin(&mut self, o: OriginConn) {
        let OriginConn { buf, out, .. } = o;
        self.recycle_read(buf);
        self.recycle(out);
    }

    /// Takes the streaming client out of its slot and sends it the
    /// staged step behind whatever it has not been sent yet, in one
    /// vectored write, from where the bytes lie (`origin` is the fetch's
    /// read buffer). A client an earlier write blocked on gets an append
    /// to its backlog instead of a system call that would only hear
    /// `EAGAIN` again. A stream that has ended is a response being
    /// written like any other. `None` when the client is gone.
    fn write_stream(
        &mut self,
        client_slot: usize,
        staged: &Staged,
        origin: &[u8],
        end: StreamEnd,
    ) -> Option<ClientConn> {
        let Some(Slot::Client(mut c)) = self.slots.get_mut(client_slot).and_then(Option::take)
        else {
            return None;
        };
        let ClientState::Streaming { close_after, .. } = c.state else {
            // Only reachable if the client rotated states underneath the
            // fetch, which the protocol never does; keep it intact.
            self.slots[client_slot] = Some(Slot::Client(c));
            return None;
        };
        if end != StreamEnd::More {
            let close_after = close_after || end == StreamEnd::Truncated;
            c.state = ClientState::Writing { close_after };
        }
        if c.interest == Interest::WRITABLE {
            staged.queue(&mut c.out, origin, 0);
        } else {
            write_staged(
                &mut c.stream,
                &mut c.out,
                &mut c.pos,
                staged,
                origin,
                &self.sys,
            );
        }
        Some(c)
    }

    /// Carries a client on from [`Worker::write_stream`] and puts it
    /// back in its slot. Returns the backlog its stream still owes the
    /// socket, or `None` when the connection is finished.
    fn settle_stream(&mut self, client_slot: usize, mut c: ClientConn) -> Option<usize> {
        // Still waiting for room: the event that reports it pumps.
        if c.interest != Interest::WRITABLE && !self.pump(client_slot, &mut c, false) {
            self.release_client(client_slot, c);
            return None;
        }
        let backlog = match &c.state {
            ClientState::Streaming { .. } => c.out.len() - c.pos,
            _ => 0,
        };
        self.slots[client_slot] = Some(Slot::Client(c));
        Some(backlog)
    }

    /// After a client write drained some backlog, resume a paused
    /// streaming origin once below the low-water mark.
    fn maybe_resume_origin(&mut self, client_slot: usize) {
        let Some(Some(Slot::Client(c))) = self.slots.get(client_slot) else {
            return;
        };
        let ClientState::Streaming { origin_slot, .. } = c.state else {
            return;
        };
        let backlog = c.out.len() - c.pos;
        if let Some(Some(Slot::OriginFetch(o))) = self.slots.get_mut(origin_slot) {
            throttle(&mut self.reactor, origin_slot, o, backlog);
        }
    }

    /// The fetch in `slot` died before its response head: the lease
    /// completes with an empty `status` of the server's own making (the
    /// `502` or the `504`), the connection is retired, and the waiting
    /// client is woken with the answer.
    fn fail_origin(&mut self, slot: usize, mut o: OriginConn, status: StatusCode) {
        self.reactor.cancel_deadline(token_of(slot));
        let pending = o.pending.take().expect("a fetch fails once");
        let failed = Origin::Response(Response::empty(status));
        let now = self.now();
        let decision = self.gateway.complete(pending, failed, now);
        let client_slot = o.client_slot;
        let close_after = o.close_after;
        self.pending_free.push(slot);
        self.retire_origin(o);
        // The client may have died in this same batch; its teardown
        // already completed the lease path above, so just drop the
        // decision if nobody is waiting.
        let Some(Slot::Client(mut c)) = self.slots.get_mut(client_slot).and_then(Option::take)
        else {
            return;
        };
        self.set_response(client_slot, &mut c, decision.into_response(), close_after);
        if self.pump(client_slot, &mut c, false) {
            self.slots[client_slot] = Some(Slot::Client(c));
        } else {
            self.release_client(client_slot, c);
        }
    }
}

/// Maps a peer socket address to the session-key [`ClientIp`]. IPv4
/// octets pack big-endian; loopback tests therefore share one IP and
/// distinguish sessions by User-Agent (exactly the paper's session key).
fn client_ip(peer: SocketAddr) -> ClientIp {
    match peer.ip() {
        IpAddr::V4(v4) => ClientIp::new(u32::from(v4)),
        IpAddr::V6(v6) => {
            let octets = v6.octets();
            ClientIp::new(u32::from_be_bytes([
                octets[12], octets[13], octets[14], octets[15],
            ]))
        }
    }
}

/// HTTP/1.1 defaults to keep-alive unless `Connection: close`; HTTP/1.0
/// opts in with `Connection: keep-alive`.
fn wants_keep_alive(request: &Request) -> bool {
    let connection = |token| request.headers().has_token("Connection", token);
    !connection("close") && (request.version() == "HTTP/1.1" || connection("keep-alive"))
}

/// The least landing area a read is offered: room for any request and
/// most response heads.
const READ_FIRST: usize = 8 * 1024;

/// Landing area added once a read has filled what it was offered.
const READ_MORE: usize = 64 * 1024;

/// Reads what the socket holds, straight into the tail of `buf` (no
/// bounce buffer), and returns `true` at EOF/reset. A read that comes
/// back short has drained a stream socket (epoll(7)), and the
/// registration is level-triggered, so whatever arrives a moment later
/// is reported again: only a buffer that came back full is worth a
/// second call. When the event said `closed` (the peer hung up or
/// half-closed) the reads go on to EOF, so a close-delimited response
/// or a client's last request ends in the wakeup that delivered it.
fn read_available(
    stream: &mut TcpStream,
    buf: &mut ReadBuf,
    closed: bool,
    sys: &WorkerCounters,
) -> bool {
    loop {
        let spare = buf.spare();
        let offered = spare.len();
        sys.reads.add(1);
        match stream.read(spare) {
            Ok(0) => return true,
            Ok(n) => {
                buf.filled += n;
                if n < offered && !closed {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                sys.reads_eagain.add(1);
                return false;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Writes until done or the socket would block.
fn write_available(
    stream: &mut impl Write,
    out: &[u8],
    pos: &mut usize,
    sys: &WorkerCounters,
) -> WriteStep {
    while *pos < out.len() {
        sys.writes.add(1);
        match stream.write(&out[*pos..]) {
            Ok(0) => return WriteStep::Dead,
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                sys.writes_blocked.add(1);
                return WriteStep::Blocked;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return WriteStep::Dead,
        }
    }
    WriteStep::Done
}

/// Offers the socket the unsent backlog `out[*pos..]` and, behind it,
/// the staged step in one vectored write: head, chunk framing, page
/// runs and markup are one system call, and a socket that takes it all
/// has cost no copy of a page byte. Whatever it does not take is copied
/// behind `out`, for the plain write path to carry on with (or to meet
/// the error this call met).
fn write_staged(
    stream: &mut impl Write,
    out: &mut Vec<u8>,
    pos: &mut usize,
    staged: &Staged,
    origin: &[u8],
    sys: &WorkerCounters,
) {
    let backlog = out.len() - *pos;
    if backlog == 0 && staged.wire.is_empty() {
        return;
    }
    // About a dozen buffers for a page that arrived in one read; a list
    // past the kernel's limit is a short write like any other.
    let wire = staged.wire.iter().map(|part| staged.bytes_of(part, origin));
    let iov: Vec<IoSlice<'_>> = std::iter::once(&out[*pos..])
        .chain(wire)
        .map(IoSlice::new)
        .collect();
    sys.writes.add(1);
    let wrote = stream.write_vectored(&iov).unwrap_or_else(|e| {
        if e.kind() == io::ErrorKind::WouldBlock {
            sys.writes_blocked.add(1);
        }
        0
    });
    *pos += wrote.min(backlog);
    staged.queue(out, origin, wrote.saturating_sub(backlog));
}

/// How one origin response's body travels, decided once, when its head
/// has parsed, from the request's method and version and the origin's
/// status and headers. Everything downstream (the decoder, the head the
/// client is sent, the framing of each step, whether either connection
/// survives) follows this and looks at no header again.
#[derive(Debug, PartialEq, Eq)]
struct BodyPlan {
    /// A `200 text/html` answer to anything but a `HEAD`: the body goes
    /// through the rewriter. Anything else passes as it came.
    page: bool,
    /// How the origin delimits the body it sends; `Length(0)` when none
    /// follows.
    origin: BodyFraming,
    /// The `Content-Length` the client's head declares: the origin's,
    /// unless the rewriter is about to change it.
    length: Option<usize>,
    /// A body of a length nobody knows yet, to an HTTP/1.1 client: sent
    /// in chunks.
    chunked: bool,
    /// The same to an HTTP/1.0 client, which was never taught chunks:
    /// sent as it is, and the close is its end.
    to_close: bool,
}

impl BodyPlan {
    fn of(head: &frame::ResponseHead, head_request: bool, http11: bool) -> BodyPlan {
        // RFC 9112 §6.3: nothing follows a response to `HEAD`, a 1xx, a
        // 204 or a 304, whatever its headers declare.
        let bodiless = head_request || matches!(head.status, 100..=199 | 204 | 304);
        let page =
            !bodiless && head.status == 200 && head.content_type.as_deref() == Some("text/html");
        let length = match head.framing {
            BodyFraming::Length(n) if !page => Some(n),
            _ => None,
        };
        let unknown = !bodiless && length.is_none();
        BodyPlan {
            page,
            origin: if bodiless {
                BodyFraming::Length(0)
            } else {
                head.framing
            },
            length,
            chunked: unknown && http11,
            to_close: unknown && !http11,
        }
    }
}

/// Whether a header line is about one connection, not about the message:
/// neither hop passes the other's on.
fn hop_by_hop(name: &str) -> bool {
    const NAMES: [&str; 5] = [
        "connection",
        "keep-alive",
        "proxy-connection",
        "trailer",
        "upgrade",
    ];
    NAMES.iter().any(|hop| name.eq_ignore_ascii_case(hop))
}

/// Serializes the request the origin is sent: the client's, as this
/// hop's own HTTP/1.1 message. The client's hop-by-hop lines stay
/// behind, so a `Connection: close` (or an HTTP/1.0 request line) ends
/// the client's connection and not a pooled origin one.
fn upstream_request(request: &Request, out: &mut Vec<u8>) {
    wire::serialize_request_as(request, "HTTP/1.1", |name| !hop_by_hop(name), out);
}

/// Ends a streamed response's head with the only framing and
/// `Connection` lines it carries, which are this hop's: the length when
/// one is declared, `chunked` when the body goes out in chunks, neither
/// when no body follows or the close delimits it.
fn end_head(plan: &BodyPlan, close_after: bool, out: &mut Vec<u8>) {
    if let Some(length) = plan.length {
        write!(out, "Content-Length: {length}\r\n").expect("a Vec takes any write");
    }
    if plan.chunked {
        out.extend_from_slice(b"Transfer-Encoding: chunked\r\n");
    }
    out.extend_from_slice(if close_after {
        b"Connection: close\r\n\r\n".as_slice()
    } else {
        b"Connection: keep-alive\r\n\r\n".as_slice()
    });
}

/// Appends the client-side response head for a streamed page: 200,
/// `text/html`, uncacheable, and never a `Content-Length` (the rewriter
/// is about to change it). The head is invariant per connection mode,
/// so it lives as wire bytes — nothing builds or serializes a
/// `Response` on the streaming hot path.
fn streaming_head(plan: &BodyPlan, close_after: bool, out: &mut Vec<u8>) {
    out.extend_from_slice(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\
        Cache-Control: no-cache, no-store\r\n",
    );
    end_head(plan, close_after, out);
}

/// Appends the client-side head for a response that is relayed as it
/// came: the origin's own head under this hop's protocol version, every
/// line byte for byte and in the origin's order (a folded line is one
/// line here, continuation and all) except the hop-by-hop lines and
/// every `Content-Length` and `Transfer-Encoding`; [`end_head`] writes
/// the one framing line the relay follows.
fn relay_head(origin: &Head<'_>, plan: &BodyPlan, close_after: bool, out: &mut Vec<u8>) {
    let (_, status) = origin.start_line.split_once(' ').unwrap_or_default();
    write!(out, "HTTP/1.1 {status}\r\n").expect("a Vec takes any write");
    for line in origin.lines().flatten() {
        let framing = ["content-length", "transfer-encoding"];
        if !hop_by_hop(line.name) && !framing.iter().any(|f| line.name.eq_ignore_ascii_case(f)) {
            out.extend_from_slice(line.raw.as_bytes());
        }
    }
    end_head(plan, close_after, out);
}

/// The most pieces of output one step stages by reference (a page that
/// arrives in one read makes five). An origin that sends one-byte
/// chunks makes a run a byte; past the cap a step's output is copied,
/// as all of it once was, so the list stays small whatever it does.
const MAX_RUNS: usize = 32;

/// Where a piece of a stream step's output lies: a range of the
/// origin's read buffer, or of [`Staged::side`].
#[derive(Debug, Clone, Copy)]
struct Part {
    origin: bool,
    start: usize,
    end: usize,
}

impl Part {
    fn new(origin: bool, start: usize, end: usize) -> Part {
        Part { origin, start, end }
    }

    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// One stream step's output, by reference: the rewriter's sink while
/// the step is decoded, then the chunk-framed list the client's write
/// is built from. Per worker, reused from step to step.
#[derive(Debug, Default)]
struct Staged {
    /// The rewriter's output in order, unframed.
    runs: Vec<Part>,
    /// What goes on the wire: the same with chunk framing around it, and
    /// the rewriter's tail and the terminal chunk when the stream ends.
    wire: Vec<Part>,
    /// Everything that is not in the origin's read buffer: injected
    /// markup, released holds, the tail, chunk framing.
    side: Vec<u8>,
    /// Where in that buffer the chunk being rewritten starts.
    base: usize,
}

impl StreamSink for Staged {
    fn run(&mut self, chunk: &[u8], range: std::ops::Range<usize>) {
        if self.runs.len() >= MAX_RUNS {
            return self.bytes(&chunk[range]);
        }
        let (start, end) = (self.base + range.start, self.base + range.end);
        push_part(&mut self.runs, Part::new(true, start, end));
    }

    fn bytes(&mut self, bytes: &[u8]) {
        push_side(&mut self.runs, &mut self.side, bytes);
    }
}

impl Staged {
    fn clear(&mut self) {
        self.runs.clear();
        self.wire.clear();
        self.side.clear();
    }

    fn bytes_of<'a>(&'a self, part: &Part, origin: &'a [u8]) -> &'a [u8] {
        let buf = if part.origin { origin } else { &self.side };
        &buf[part.start..part.end]
    }

    /// Copies what lies past the first `skip` bytes of `wire` behind
    /// `out`.
    fn queue(&self, out: &mut Vec<u8>, origin: &[u8], mut skip: usize) {
        for part in &self.wire {
            let bytes = self.bytes_of(part, origin);
            let cut = skip.min(bytes.len());
            out.extend_from_slice(&bytes[cut..]);
            skip -= cut;
        }
    }
}

/// Appends `part` to `list`, growing the last entry instead when the
/// two are neighbours in the same buffer.
fn push_part(list: &mut Vec<Part>, part: Part) {
    match list.last_mut() {
        Some(last) if last.origin == part.origin && last.end == part.start => last.end = part.end,
        _ if part.len() > 0 => list.push(part),
        _ => {}
    }
}

/// Appends `bytes` to the side buffer and their place there to `list`.
fn push_side(list: &mut Vec<Part>, side: &mut Vec<u8>, bytes: &[u8]) {
    let start = side.len();
    side.extend_from_slice(bytes);
    push_part(list, Part::new(false, start, side.len()));
}

/// Lays `data` onto `wire` as the client is sent it: chunk-framed, or as
/// it is for a body that travels under a `Content-Length` or to the
/// close. Returns its length on the wire.
fn frame_body(chunked: bool, wire: &mut Vec<Part>, side: &mut Vec<u8>, data: &[Part]) -> usize {
    if chunked {
        return chunk_frame(wire, side, data);
    }
    data.iter().for_each(|part| push_part(wire, *part));
    data.iter().map(Part::len).sum()
}

/// Chunk-frames `data` onto `wire` in pieces of at most
/// [`STREAM_HIGH_WATER`] bytes (a fast origin can land far more than
/// that in one event batch; unbounded chunk declarations are hostile to
/// any receiver with a per-chunk sanity cap). Only the framing is
/// written (to `side`); the data stays where it lies. Empty data frames
/// to nothing — a zero-size chunk would terminate the stream early.
/// Returns the framed length.
fn chunk_frame(wire: &mut Vec<Part>, side: &mut Vec<u8>, data: &[Part]) -> usize {
    let total: usize = data.iter().map(Part::len).sum();
    let framing_at = side.len();
    // Bytes of `data` not yet framed, and room left in the open piece.
    let (mut left, mut room) = (total, 0);
    for part in data {
        let mut part = *part;
        while part.len() > 0 {
            if room == 0 {
                // Close the piece before this one, declare this one.
                room = left.min(STREAM_HIGH_WATER);
                let closing = if left < total { "\r\n" } else { "" };
                let start = side.len();
                write!(side, "{closing}{room:x}\r\n").expect("a Vec takes any write");
                push_part(wire, Part::new(false, start, side.len()));
            }
            let end = part.end.min(part.start + room);
            push_part(wire, Part { end, ..part });
            room -= end - part.start;
            left -= end - part.start;
            part.start = end;
        }
    }
    if total > 0 {
        push_side(wire, side, b"\r\n");
    }
    total + side.len() - framing_at
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket that takes `room` more bytes and then would block.
    struct Takes {
        room: usize,
        got: Vec<u8>,
    }

    impl Write for Takes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let before = self.got.len();
            for buf in bufs {
                let take = buf.len().min(self.room);
                self.got.extend_from_slice(&buf[..take]);
                self.room -= take;
            }
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The encoding this file used to build in the client's write
    /// buffer before writing it: each non-empty `data` as chunks of at
    /// most [`STREAM_HIGH_WATER`] bytes.
    fn flat_chunks(data: &[u8], out: &mut Vec<u8>) {
        for piece in data.chunks(STREAM_HIGH_WATER) {
            out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            out.extend_from_slice(piece);
            out.extend_from_slice(b"\r\n");
        }
    }

    /// Stages a clean last step the way `origin_stream_step` does: the
    /// origin buffer's `runs` (as one-run chunks) with `markup` between
    /// them, then a tail. Returns the staged step and the flat encoding
    /// it must come to on the wire.
    fn staged_step(
        origin: &[u8],
        runs: &[std::ops::Range<usize>],
        markup: &[u8],
    ) -> (Staged, Vec<u8>) {
        let mut staged = Staged::default();
        let mut output = Vec::new();
        for run in runs {
            // The rewriter is handed `origin[run]` and resolves all of it.
            staged.base = run.start;
            staged.run(&origin[run.clone()], 0..run.len());
            staged.bytes(markup);
            output.extend_from_slice(&origin[run.clone()]);
            output.extend_from_slice(markup);
        }
        let framed = chunk_frame(&mut staged.wire, &mut staged.side, &staged.runs);
        let start = staged.side.len();
        staged.side.extend_from_slice(b"[B]</body></html>");
        let tail = [Part::new(false, start, staged.side.len())];
        chunk_frame(&mut staged.wire, &mut staged.side, &tail);
        push_side(&mut staged.wire, &mut staged.side, b"0\r\n\r\n");
        let mut flat = Vec::new();
        flat_chunks(&output, &mut flat);
        assert_eq!(framed, flat.len(), "the ledger's share of this step");
        flat_chunks(b"[B]</body></html>", &mut flat);
        flat.extend_from_slice(b"0\r\n\r\n");
        (staged, flat)
    }

    /// Cuts the vectored write short after `room` bytes and checks that
    /// what the socket took plus what is left in the backlog is the
    /// staged head followed by the flat encoding, in order, once.
    fn check_cut(staged: &Staged, origin: &[u8], flat: &[u8], room: usize) {
        let sys = WorkerCounters::default();
        let mut socket = Takes {
            room,
            got: Vec::new(),
        };
        let mut out = b"HEAD\r\n\r\n".to_vec();
        let expected = [out.as_slice(), flat].concat();
        let mut pos = 0;
        write_staged(&mut socket, &mut out, &mut pos, staged, origin, &sys);
        assert_eq!(sys.writes.get(), 1, "cut at {room}");
        assert_eq!(sys.writes_blocked.get(), u64::from(room == 0));
        assert_eq!(socket.got.len(), room.min(expected.len()), "cut at {room}");
        assert!(
            [&socket.got, &out[pos..]].concat() == expected,
            "cut at {room}"
        );
        // The pump carries on from there with plain writes: none when
        // the socket took everything, else the one that hears `EAGAIN`,
        // as after any short write.
        let step = write_available(&mut socket, &out, &mut pos, &sys);
        let whole = room >= expected.len();
        assert_eq!(matches!(step, WriteStep::Done), whole, "cut at {room}");
        assert_eq!(matches!(step, WriteStep::Blocked), !whole, "cut at {room}");
        assert_eq!(sys.writes.get(), 1 + u64::from(!whole), "cut at {room}");
    }

    fn head_of(raw: &str) -> frame::ResponseHead {
        frame::response_head(raw.as_bytes()).unwrap().unwrap()
    }

    /// The head a client is sent for `origin`, a response head nothing
    /// follows, in answer to a `GET` (or a `HEAD`) of its protocol
    /// version: the decision and the builder together, as
    /// `begin_stream` runs them.
    fn relayed(origin: &str, head_request: bool, http11: bool) -> String {
        let plan = BodyPlan::of(&head_of(origin), head_request, http11);
        assert!(!plan.page);
        let mut out = Vec::new();
        let head = Head::parse(origin.as_bytes(), origin.len())
            .unwrap()
            .unwrap();
        relay_head(&head, &plan, plan.to_close, &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn a_relayed_head_carries_one_framing_line_and_it_is_ours() {
        // Two lengths that agree are one length, and one line leaves.
        // Two that disagree never get this far: no head parses from
        // them, which is the 502.
        let two_lengths = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Between: 1\r\n\
            content-length: 5\r\n\r\n";
        assert_eq!(
            relayed(two_lengths, false, true),
            "HTTP/1.1 200 OK\r\nX-Between: 1\r\nContent-Length: 5\r\n\
             Connection: keep-alive\r\n\r\n"
        );
        let disagree = two_lengths.replace("content-length: 5", "content-length: 7");
        assert!(frame::response_head(disagree.as_bytes()).is_err());
        // A chunked claim beside a length wins (RFC 9112 §6.3), and then
        // no length leaves at all: chunks for a client that reads them,
        // the close for one that does not.
        let and_chunked = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\ncontent-length: 5\r\n\
            Transfer-Encoding: chunked\r\nX-After: 1\r\n\r\n";
        assert_eq!(
            relayed(and_chunked, false, true),
            "HTTP/1.1 200 OK\r\nX-After: 1\r\nTransfer-Encoding: chunked\r\n\
             Connection: keep-alive\r\n\r\n"
        );
        assert_eq!(
            relayed(and_chunked, false, false),
            "HTTP/1.1 200 OK\r\nX-After: 1\r\nConnection: close\r\n\r\n"
        );
        // Nothing follows a response to `HEAD`: it keeps the origin's
        // length, gets no `Transfer-Encoding`, and no length is
        // invented where the origin declared none (a 304).
        assert_eq!(
            relayed(two_lengths, true, true),
            "HTTP/1.1 200 OK\r\nX-Between: 1\r\nContent-Length: 5\r\n\
             Connection: keep-alive\r\n\r\n"
        );
        assert_eq!(
            relayed(and_chunked, true, true),
            "HTTP/1.1 200 OK\r\nX-After: 1\r\nConnection: keep-alive\r\n\r\n"
        );
        assert_eq!(
            relayed(
                "HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n\r\n",
                false,
                false
            ),
            "HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\nConnection: keep-alive\r\n\r\n"
        );
    }

    #[test]
    fn a_relayed_head_is_the_origins_but_for_the_hop_by_hop_lines() {
        // The origin's 404 page passes like any response: its status
        // line, reason phrase and headers, in its order, byte for byte
        // (odd spacing and case included), `Set-Cookie` twice.
        let origin = "HTTP/1.0 404 Nothing Here\r\nServer:  odd  spacing \r\n\
            Set-Cookie: a=1\r\nconnection: Keep-Alive, Upgrade\r\nKeep-Alive: timeout=5\r\n\
            Set-Cookie: b=2\r\nProxy-Connection: keep-alive\r\nTrailer: Expires\r\n\
            UPGRADE: h2c\r\nX-Folded: one\r\n\ttwo\r\nKeep-Alive: folded\r\n too\r\n\
            content-type: text/html\r\nContent-Length: 9\r\n\r\n";
        assert_eq!(
            relayed(origin, false, true),
            "HTTP/1.1 404 Nothing Here\r\nServer:  odd  spacing \r\n\
             Set-Cookie: a=1\r\nSet-Cookie: b=2\r\nX-Folded: one\r\n\ttwo\r\n\
             content-type: text/html\r\nContent-Length: 9\r\nConnection: keep-alive\r\n\r\n"
        );
    }

    #[test]
    fn body_framing_is_decided_from_method_status_version_and_headers() {
        let asset =
            head_of("HTTP/1.1 200 OK\r\nContent-Type: image/gif\r\nContent-Length: 5\r\n\r\n");
        let plan = BodyPlan::of(&asset, false, true);
        assert_eq!(
            plan,
            BodyPlan {
                page: false,
                origin: BodyFraming::Length(5),
                length: Some(5),
                chunked: false,
                to_close: false,
            }
        );
        // An HTTP/1.0 client changes nothing when the length is known.
        assert_eq!(BodyPlan::of(&asset, false, false), plan);
        // A response to `HEAD` keeps the length it declares and has no
        // body to wait for.
        let to_head = BodyPlan::of(&asset, true, true);
        assert_eq!(
            (to_head.origin, to_head.length),
            (BodyFraming::Length(0), Some(5))
        );

        // A page's length changes under the rewriter: chunks, or the
        // close for a client that predates them. `HEAD` for one is a
        // relay, not a page.
        let page =
            head_of("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 90\r\n\r\n");
        let plan = BodyPlan::of(&page, false, true);
        assert!(plan.page && plan.chunked && !plan.to_close);
        assert_eq!((plan.origin, plan.length), (BodyFraming::Length(90), None));
        let plan = BodyPlan::of(&page, false, false);
        assert!(plan.page && !plan.chunked && plan.to_close);
        let plan = BodyPlan::of(&page, true, true);
        assert!(!plan.page && !plan.chunked && !plan.to_close);
        assert_eq!(plan.length, Some(90));

        // No declared length: re-chunked, or close-delimited for 1.0.
        for raw in [
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n",
        ] {
            let head = head_of(raw);
            let plan = BodyPlan::of(&head, false, true);
            assert!(plan.chunked && !plan.to_close && !plan.page);
            assert_eq!((plan.origin, plan.length), (head.framing, None));
            let plan = BodyPlan::of(&head, false, false);
            assert!(!plan.chunked && plan.to_close);
        }

        // RFC 9112 §6.3: nothing follows a 1xx, a 204 or a 304, and a
        // missing length is not a body that runs to the close.
        for status in ["100 Continue", "204 No Content", "304 Not Modified"] {
            let head = head_of(&format!(
                "HTTP/1.1 {status}\r\nContent-Type: text/html\r\n\r\n"
            ));
            assert_eq!(head.framing, BodyFraming::Close);
            for http11 in [true, false] {
                assert_eq!(
                    BodyPlan::of(&head, false, http11),
                    BodyPlan {
                        page: false,
                        origin: BodyFraming::Length(0),
                        length: None,
                        chunked: false,
                        to_close: false,
                    }
                );
            }
        }
    }

    #[test]
    fn the_upstream_request_leaves_the_clients_hop_by_hop_lines_behind() {
        let request = Request::builder(Method::Post, "/form?x=1")
            .version("HTTP/1.0")
            .header("Host", "site.example")
            .header("Connection", "close")
            .header("Cookie", "a=1")
            .header("keep-alive", "timeout=5")
            .header("Proxy-Connection", "keep-alive")
            .header("Upgrade", "websocket")
            .header("Cookie", "b=2")
            .header("Content-Length", "3")
            .body_bytes(b"a=b".to_vec())
            .build()
            .unwrap();
        let mut out = Vec::new();
        upstream_request(&request, &mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "POST /form?x=1 HTTP/1.1\r\nHost: site.example\r\nCookie: a=1\r\n\
             Cookie: b=2\r\nContent-Length: 3\r\n\r\na=b"
        );
        // Nothing to leave behind: the bytes the codec writes.
        let request = Request::builder(Method::Get, "/index.html")
            .header("Host", "site.example")
            .header("User-Agent", "Mozilla/5.0")
            .build()
            .unwrap();
        let mut out = Vec::new();
        upstream_request(&request, &mut out);
        assert_eq!(out, wire::serialize_request(&request));
    }

    /// The codec's message generator, shared with `botwall-http`'s
    /// own property tests.
    #[allow(dead_code)]
    mod messages {
        include!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../http/tests/support/messages.rs"
        ));
    }

    proptest::proptest! {
        /// The differential one: whatever bytes the front door takes
        /// for a request, what it sends upstream reads back under the
        /// same codec as exactly one message with the same method,
        /// target and decoded body, framed by at most one
        /// `Content-Length` and nothing else, with no stray CR or LF
        /// for a laxer origin to split a line at.
        #[test]
        fn the_origin_is_sent_the_request_the_front_door_read(raw in messages::message()) {
            let peer = ClientIp::new(7);
            if let Ok(Some((request, len))) = wire::read_request(&raw, peer) {
                assert!(len <= raw.len());
                let mut sent = Vec::new();
                upstream_request(&request, &mut sent);
                let (again, used) = wire::read_request(&sent, peer)
                    .unwrap_or_else(|e| panic!("{e} in {:?}", String::from_utf8_lossy(&sent)))
                    .expect("a whole message");
                assert_eq!(used, sent.len(), "one message and nothing after it");
                assert_eq!(
                    (again.method(), again.uri(), again.body()),
                    (request.method(), request.uri(), request.body())
                );
                let head = &sent[..sent.len() - request.body().len()];
                let head = std::str::from_utf8(head).unwrap().to_ascii_lowercase();
                let lines: Vec<&str> = head.split("\r\n").collect();
                assert!(!lines.iter().any(|line| line.contains(['\r', '\n'])), "{head:?}");
                let named = |name| lines.iter().filter(|line| line.starts_with(name)).count();
                assert!(named("content-length:") <= 1, "{head:?}");
                assert_eq!(named("transfer-encoding:"), 0, "{head:?}");
            }
        }

        /// Whatever head `response_head` takes from an origin, the head
        /// relayed to the client reads back as one head framed the way
        /// the plan says and by nothing else; no input panics either.
        #[test]
        fn a_relayed_head_says_what_the_plan_says(
            raw in messages::message(),
            head_request in proptest::bool::ANY,
            http11 in proptest::bool::ANY,
        ) {
            if let Ok(Some(head)) = frame::response_head(&raw) {
                let plan = BodyPlan::of(&head, head_request, http11);
                let origin = Head::parse(&raw[..head.len], head.len).unwrap().unwrap();
                let mut out = Vec::new();
                relay_head(&origin, &plan, plan.to_close, &mut out);
                let relayed = frame::response_head(&out)
                    .unwrap_or_else(|e| panic!("{e} in {:?}", String::from_utf8_lossy(&out)))
                    .expect("a whole head");
                assert_eq!(relayed.len, out.len());
                assert_eq!((relayed.status, &relayed.content_type), (head.status, &head.content_type));
                assert_eq!(relayed.connection_close, plan.to_close);
                let framing = match plan.length {
                    Some(n) => BodyFraming::Length(n),
                    None if plan.chunked => BodyFraming::Chunked,
                    None => BodyFraming::Close,
                };
                assert_eq!(relayed.framing, framing);
            }
        }
    }

    #[test]
    fn a_vectored_write_cut_short_at_any_byte_leaves_the_rest_in_the_backlog() {
        let origin: Vec<u8> = (0..=255u8).cycle().take(600).collect();
        let (staged, flat) = staged_step(&origin, &[5..200, 200..201, 230..599], b"[markup]");
        for room in 0..=flat.len() + 12 {
            check_cut(&staged, &origin, &flat, room);
        }
    }

    #[test]
    fn a_step_over_the_chunk_cap_is_cut_at_the_same_boundaries() {
        // 150 KB in two runs: three chunks, the boundaries inside runs.
        let origin: Vec<u8> = (0..=250u8).cycle().take(150 * 1024 + 40).collect();
        let (staged, flat) = staged_step(&origin, &[40..100_000, 100_000..origin.len()], b"");
        let boundaries = [0, 8, STREAM_HIGH_WATER + 15, 2 * STREAM_HIGH_WATER + 30];
        for near in boundaries {
            for room in near.saturating_sub(3)..near + 24 {
                check_cut(&staged, &origin, &flat, room);
            }
        }
        for room in (0..flat.len() + 9).step_by(4093) {
            check_cut(&staged, &origin, &flat, room);
        }
    }

    #[test]
    fn a_step_of_more_runs_than_the_cap_is_copied_past_it() {
        // A hostile origin's one-byte chunks: a run a byte, six bytes
        // apart. The list of ranges stops growing at the cap and the
        // rest is copied.
        let origin: Vec<u8> = (0..=255u8).cycle().take(6 * 400).collect();
        let runs: Vec<_> = (0..400).map(|k| 6 * k + 3..6 * k + 4).collect();
        let (staged, flat) = staged_step(&origin, &runs, b"|");
        assert!(staged.runs.len() <= MAX_RUNS + 1);
        assert!(staged.wire.len() <= MAX_RUNS + 5);
        for room in 0..=flat.len() + 12 {
            check_cut(&staged, &origin, &flat, room);
        }
    }
}
