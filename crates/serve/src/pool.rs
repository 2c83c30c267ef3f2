//! What a worker recycles: connection slots, their buffers, and idle
//! origin connections.
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
//! deadline ([`ORIGIN_POOL_IDLE`]) on the reactor's timer wheel (one wheel entry per
//! connection however often it is parked and taken), and takeout probes
//! liveness with one non-blocking read — the only read the server makes
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

use crate::conn::{set_interest, ClientConn};
use crate::origin::OriginConn;
use crate::server::{token_of, Worker, WorkerCounters};
use reactor::Interest;
use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Duration;

/// How long a parked origin connection may sit unused before it is
/// closed: armed on the reactor's timer wheel each time it is parked.
pub const ORIGIN_POOL_IDLE: Duration = Duration::from_secs(10);

/// Recycled buffers above this size are dropped instead of pooled, so
/// one multi-megabyte streamed response cannot pin its backlog buffer
/// forever. A read buffer that grew once, for one page-sized body, is
/// the largest kept.
const POOL_BUF_CAP: usize = READ_FIRST + READ_MORE;

/// Cap on pooled buffers of each kind per worker (each is at most
/// [`POOL_BUF_CAP`]).
const POOL_MAX: usize = 128;

/// One entry in the connection slab.
pub(crate) enum Slot {
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
pub(crate) struct ReadBuf {
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
    pub(crate) fn consume(&mut self, n: usize) {
        self.bytes.copy_within(n..self.filled, 0);
        self.filled -= n;
    }

    pub(crate) fn clear(&mut self) {
        self.filled = 0;
    }
}

/// A parked origin connection awaiting reuse. It stays registered
/// readable under its slot's token: a FIN, a reset, or an unsolicited
/// byte while idle retires it immediately, and its idle deadline on the
/// reactor's timer wheel bounds how long it may wait.
pub(crate) struct IdleOrigin {
    stream: TcpStream,
    /// Cached epoll interest (READABLE while parked).
    interest: Interest,
}

impl Worker {
    /// Any event on a parked origin connection retires it: readable
    /// means EOF or an unsolicited byte (either poisons reuse), closed
    /// means the peer reset, and the timer is the idle deadline.
    pub(crate) fn drop_idle(&mut self, slot: usize, idle: IdleOrigin) {
        self.reactor.cancel_deadline(token_of(slot));
        self.idle_pool.retain(|&parked| parked != slot);
        self.pending_free.push(slot);
        drop(idle);
    }

    /// Pops the most recently parked live origin connection (a server
    /// has one origin, so any parked socket serves any lease). Each
    /// candidate is probed with a non-blocking read: a live idle origin
    /// has nothing to say (`WouldBlock`), while EOF, an error, or an
    /// unsolicited byte retires the socket on the spot — a poisoned
    /// connection is never handed to a lease.
    pub(crate) fn take_pooled(&mut self) -> Option<(usize, TcpStream, Interest)> {
        while let Some(slot) = self.idle_pool.pop() {
            let Some(Slot::IdleOrigin(mut idle)) = self.slots.get_mut(slot).and_then(Option::take)
            else {
                continue;
            };
            self.reactor.cancel_deadline(token_of(slot));
            // The one read made in order to be told `EAGAIN`.
            self.sys.reads.add(1);
            let probe = idle.stream.read(&mut [0u8; 1]);
            if matches!(probe, Err(ref e) if e.kind() == io::ErrorKind::WouldBlock) {
                self.sys.reads_eagain.add(1);
                return Some((slot, idle.stream, idle.interest));
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
    pub(crate) fn park_or_free(&mut self, slot: usize, o: Box<OriginConn>, reusable: bool) {
        let park = reusable
            && !self.draining
            && self.idle_pool.len() < self.config.origin_pool
            && o.buf.is_empty()
            && o.pos == o.out.len();
        if !park {
            self.pending_free.push(slot);
            self.retire_origin(o);
            return;
        }
        let OriginConn {
            stream,
            out,
            buf,
            mut interest,
            ..
        } = *o;
        // Parked connections stay registered readable: a FIN or stray
        // byte while idle retires them before any lease can look.
        set_interest(
            &mut self.reactor,
            &stream,
            token_of(slot),
            &mut interest,
            Interest::READABLE,
        );
        self.reactor.deadline(token_of(slot), ORIGIN_POOL_IDLE);
        self.recycle(out);
        self.recycle_read(buf);
        self.slots[slot] = Some(Slot::IdleOrigin(IdleOrigin { stream, interest }));
        self.idle_pool.push(slot);
    }

    pub(crate) fn alloc_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.slots.push(None);
            self.slots.len() - 1
        }
    }

    /// A pooled write buffer (empty, capacity warm from its last
    /// connection).
    pub(crate) fn take_buf(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a write buffer to the pool unless it grew past the
    /// retention cap.
    pub(crate) fn recycle(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() <= POOL_BUF_CAP && self.pool.len() < POOL_MAX {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// A pooled read buffer (no data, landing area still initialised).
    pub(crate) fn take_read_buf(&mut self) -> ReadBuf {
        self.read_pool.pop().unwrap_or_default()
    }

    /// Returns a read buffer to its pool unless it grew past the
    /// retention cap.
    pub(crate) fn recycle_read(&mut self, mut buf: ReadBuf) {
        if buf.bytes.capacity() <= POOL_BUF_CAP && self.read_pool.len() < POOL_MAX {
            buf.clear();
            self.read_pool.push(buf);
        }
    }
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
pub(crate) fn read_available(
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
