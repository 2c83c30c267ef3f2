//! The event loop: N reactor threads, every connection a small state
//! machine, one shared [`Gateway`] underneath.
//!
//! This module is the server's frame: its configuration and counters,
//! [`Server::bind`] / [`Server::run`], and each reactor's loop. What a
//! reactor drives lives beside it, each file documented where its
//! subject is:
//!
//! * `conn.rs`: the client connection's state machine (how a request
//!   flows, and what it costs in system calls);
//! * `origin.rs`: the origin fetch, and the response relayed from it as
//!   a stream (how a body travels, backpressure, truncation);
//! * `pool.rs`: the connection slab, the pooled buffers and the idle
//!   origin connections (reuse, the one retry, per-request memory);
//! * `staged.rs`: one stream step held by reference, the body runs the
//!   rewriter is handed and its output for the client's `writev`.
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
//! # Timeouts and shutdown
//!
//! Each client connection carries a read deadline ([`crate::READ_TIMEOUT`]:
//! idle keep-alive connections close quietly, half-sent requests answer
//! 408) and each origin fetch carries its own deadline
//! ([`crate::ORIGIN_TIMEOUT`]) that completes the lease (with
//! a synthesized 504 before the head, as a truncation after it) —
//! completing rather than dropping, so the session's in-flight lease
//! count comes back down and enforcement stays exact.
//! Deadlines are refreshed freely (two or three times a request):
//! re-arming is a store into the reactor's per-token table, and the
//! wheel holds one entry per live descriptor, not one per arm. Time is
//! the reactor's per-wakeup stamp, so everything one event batch does,
//! deadlines and gateway clock alike, happens at one instant; every
//! reactor reads the one [`reactor::Clock`] [`Server::bind`] builds, so
//! a key served by two reactors never sees its time step backwards, and
//! [`ShutdownHandle::advance`] moves them all at once: a test reaches an
//! hour of session time, or a ten-second timeout, without waiting for it.
//! On shutdown (SIGTERM in the binary, [`ShutdownHandle`] anywhere) the
//! first reactor to notice fans the signal out through every sibling's
//! waker; each closes its listener, drops idle connections, and finishes
//! its in-flight exchanges. [`Server::run`] drains the gateway exactly
//! once, after every worker has stopped, so every observed session
//! reaches its final classification no matter which reactor carried it.

use crate::conn::{client_ip, is_loopback, ClientConn, ClientState, READ_TIMEOUT};
use crate::pool::{ReadBuf, Slot};
use crate::staged::Staged;
use botwall_gateway::Gateway;
use botwall_sessions::SimTime;
use reactor::{
    net, signals, Clock, Counter, Event, Interest, Reactor, ReactorCounters, Token, Waker,
};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a deployment sets on one [`Server`]. The timeouts are constants
/// ([`crate::READ_TIMEOUT`] and its siblings) that a test reaches by
/// advancing the server's clock ([`ShutdownHandle::advance`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent-connection cap across every reactor; excess accepts
    /// answer 503 and close.
    pub max_connections: usize,
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
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_connections: 256,
            origin: None,
            threads: 1,
            origin_pool: 8,
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
/// in-flight exchanges, drain the gateway; or moves its clock. Cloneable
/// and usable from any thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    shared: Arc<SharedCounters>,
    wakers: Vec<Waker>,
    waker_fd: i32,
    clock: Clock,
}

impl ShutdownHandle {
    /// Triggers the drain on every reactor.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Moves every reactor's clock forward by `by` and wakes them all:
    /// the next poll fires every deadline the jump passed, runs the
    /// sweep tick, and hands the gateway the later time. A deadline
    /// armed after the advance counts from the advanced time, so a
    /// test advances once it has seen the server arm what it waits for
    /// (or advances again until the answer arrives).
    pub fn advance(&self, by: Duration) {
        self.clock.advance(by);
        self.wake_all();
    }

    fn wake_all(&self) {
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

/// How often each reactor gives the gateway one
/// [`Gateway::sweep_slice`]. A slice takes one tracker shard, so a
/// full rotation of the default sixteen takes under a second on one
/// reactor; eviction casualties wait at most that long to be classified
/// and freed.
const SWEEP_TICK_MS: u64 = 50;

/// Idle sessions one slice may finalize, and parked carries it may
/// drop: a slice never stalls the reactor, even when a whole shard went
/// quiet at once. A slice reads nothing of a session still inside the
/// idle timeout (its tokens and challenge record expire where they are
/// read), so with nothing idle it is one lock and one look at a cold
/// end.
const SWEEP_BUDGET: usize = 128;

/// What a connection over the cap is told before it is closed.
const OVER_CAP: &[u8] =
    b"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";

/// The listener's reserved token; connection slots start at 1.
const LISTENER: Token = Token(0);

pub(crate) fn token_of(slot: usize) -> Token {
    Token(slot + 1)
}

/// A real TCP front door over a [`Gateway`]: accepts connections, speaks
/// HTTP/1.1 with keep-alive, and drives every decision through the
/// deferred two-phase protocol on one epoll loop per configured thread.
pub struct Server {
    workers: Vec<Worker>,
    local_addr: SocketAddr,
    gateway: Arc<Gateway>,
    handle: ShutdownHandle,
}

/// One reactor thread's whole world: its listener, slab, buffer pool,
/// and scratch. Everything shared with sibling workers lives behind
/// `gateway` and `shared`.
pub(crate) struct Worker {
    pub(crate) reactor: Reactor,
    listener: Option<TcpListener>,
    pub(crate) gateway: Arc<Gateway>,
    pub(crate) config: ServeConfig,
    pub(crate) shared: Arc<SharedCounters>,
    /// The server's handle: whichever reactor notices shutdown first
    /// fans it out through every waker so siblings drain promptly.
    handle: ShutdownHandle,
    pub(crate) slots: Vec<Option<Slot>>,
    pub(crate) free: Vec<usize>,
    /// Slots freed during the current event batch; merged into `free`
    /// only after the batch so a stale event cannot hit a reused slot.
    pub(crate) pending_free: Vec<usize>,
    /// Connections live on *this* reactor (loop-exit accounting; the
    /// cap reads the global atomic).
    pub(crate) clients: usize,
    pub(crate) draining: bool,
    /// Recycled write buffers.
    pub(crate) pool: Vec<Vec<u8>>,
    /// Recycled read buffers, still initialised.
    pub(crate) read_pool: Vec<ReadBuf>,
    /// This reactor's call tallies (its cell of `shared.workers`).
    pub(crate) sys: Arc<WorkerCounters>,
    /// Slots holding parked origin connections, most recently parked
    /// last — takeout pops the warmest socket first. Strictly
    /// per-worker: a connection registered with this reactor can only
    /// ever be driven by this reactor.
    pub(crate) idle_pool: Vec<usize>,
    /// Streaming-relay scratch: where one step's output lies, on its
    /// way from the origin's read buffer to the client's socket.
    pub(crate) staged: Staged,
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
        let clock = Clock::new();
        let mut reactors = Vec::with_capacity(threads);
        for listener in listeners {
            let mut reactor = Reactor::with_clock(clock.clone())?;
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
        let handle = ShutdownHandle {
            shared: Arc::clone(&shared),
            wakers: reactors
                .iter()
                .map(|(reactor, _)| reactor.waker())
                .collect(),
            waker_fd: reactors[0].0.waker_fd(),
            clock,
        };
        let mut workers = Vec::with_capacity(threads);
        for (n, (reactor, listener)) in reactors.into_iter().enumerate() {
            workers.push(Worker {
                reactor,
                listener: Some(listener),
                gateway: Arc::clone(&gateway),
                config: config.clone(),
                shared: Arc::clone(&shared),
                handle: handle.clone(),
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
        Ok(Server {
            workers,
            local_addr,
            gateway,
            handle,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops this server, or advances its clock, from
    /// another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.handle.clone()
    }

    /// Runs every event loop until shutdown completes, then drains the
    /// gateway (once, after all reactors have stopped) and reports
    /// merged totals.
    pub fn run(&mut self) -> io::Result<ServeReport> {
        let mut workers = std::mem::take(&mut self.workers);
        // The first reactor runs on this thread; with one, the scope
        // spawns nothing.
        let (first, rest) = workers.split_first_mut().expect("bind starts a reactor");
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter_mut()
                .map(|worker| scope.spawn(move || worker.run()))
                .collect();
            let mut result = first.run();
            for handle in handles {
                let joined = handle.join().expect("worker thread panicked");
                if result.is_ok() {
                    result = joined;
                }
            }
            result
        })?;
        let interest_changes = workers
            .iter()
            .map(|worker| worker.reactor.interest_changes())
            .sum();
        let drained_sessions = self.gateway.drain().len();
        let shared = &self.handle.shared;
        Ok(ServeReport {
            interest_changes,
            sys: shared.sys_calls(),
            connections: shared.connections_total.load(Ordering::SeqCst),
            requests: shared.requests_total.load(Ordering::SeqCst),
            drained_sessions,
            origin_connects: shared.origin_connects.load(Ordering::SeqCst),
            origin_reuses: shared.origin_reuses.load(Ordering::SeqCst),
            origin_retries: shared.origin_retries.load(Ordering::SeqCst),
        })
    }
}

impl Worker {
    /// The server's clock as the workspace's simulated-time type: its
    /// reading at this reactor's last wakeup (no clock read; one batch,
    /// one instant).
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_millis(self.reactor.now_ms())
    }

    fn run(&mut self) -> io::Result<()> {
        let result = self.run_loop();
        if result.is_err() {
            // A dying reactor must not strand its siblings mid-drain.
            self.handle.shutdown();
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
        self.handle.shutdown();
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
            Slot::OriginFetch(o) => self.drive_origin(slot, o, ev),
            Slot::IdleOrigin(idle) => self.drop_idle(slot, idle),
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
                self.sys.writes.add(1);
                let _ = (&stream).write(OVER_CAP);
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
            self.reactor.deadline(token_of(slot), READ_TIMEOUT);
            let buf = self.take_read_buf();
            let out = self.take_buf();
            self.slots[slot] = Some(Slot::Client(ClientConn {
                stream,
                peer: client_ip(peer),
                loopback: is_loopback(peer),
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
}
