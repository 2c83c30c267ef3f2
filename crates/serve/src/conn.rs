//! The client side: one connection's state machine, from the bytes of
//! a request to the last byte of its response.
//!
//! # How a request flows
//!
//! A client connection reads until [`wire::read_incoming`], the codec's
//! one call per request, finds a whole request at the front of the read
//! buffer. It is read in place: the head parsed once, its lines walked
//! once, a body (chunked or not) measured and checked but not copied,
//! so a body arriving in pieces costs a walk per read and no more. The
//! gate reads that view ([`Gateway::gate`]) and the request's bytes are
//! consumed off the buffer. An answer the gate gives alone (a refusal,
//! a probe object; [`Gate::Answered`]) is written by the gate into the
//! slot's pooled write buffer as fixed head bytes and a `Connection`
//! line, its body from static bytes or, for a script, written there
//! from the session's token entry: nothing is built, kept or re-headed
//! on the way. Only an allowed ordinary request, which comes
//! back as a [`Gate::Leased`] lease, becomes an owned request, built
//! from the head already parsed with its body copied once: the server
//! opens a **second non-blocking connection** to the origin through the
//! same reactor and parks the client. Once the
//! origin's response head has parsed, every response is a stream (see
//! `origin.rs`): a page through the rewriter, anything else
//! as it came, and the end of the body commits the exchange
//! ([`Gateway::commit_page_stream`]). Only a fetch that never gets a
//! head (no origin configured, or one that dies first) is answered by
//! the server itself, an empty `404`, `502` or `504` committed through
//! the same call as a relay of that head. No gateway lock and no
//! event-loop stall spans the fetch — one slow origin delays exactly
//! the connections waiting on *that* fetch, never their neighbors.
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

use crate::origin::{upstream_request, OriginConn, ORIGIN_TIMEOUT};
use crate::pool::{read_available, ReadBuf, Slot};
use crate::server::{token_of, Worker, WorkerCounters};
use crate::stats::serve_stats_json;
use botwall_gateway::{Gate, PendingOrigin};
use botwall_http::request::ClientIp;
use botwall_http::wire::{self, Incoming};
use botwall_http::{Response, StatusCode};
use reactor::{Event, Interest, Reactor, Token};
use std::io::{self, Write};
use std::net::{IpAddr, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// How long a client may go without progress: an idle keep-alive
/// connection closes, a half-sent request answers `408`, a client that
/// stops taking its response is dropped.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

pub(crate) struct ClientConn {
    pub(crate) stream: TcpStream,
    pub(crate) peer: ClientIp,
    /// Whether the peer is this host: only then is `/admin/stats` answered.
    pub(crate) loopback: bool,
    /// Read accumulation; survives keep-alive requests and is pooled
    /// across connections.
    pub(crate) buf: ReadBuf,
    /// Response / stream-backlog staging (`out[pos..]` unsent); same
    /// lifetime as `buf`.
    pub(crate) out: Vec<u8>,
    pub(crate) pos: usize,
    /// The interest currently armed in epoll — writes to the reactor go
    /// through [`set_interest`], which skips the syscall when nothing
    /// changes.
    pub(crate) interest: Interest,
    pub(crate) state: ClientState,
}

pub(crate) enum ClientState {
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

pub(crate) enum WriteStep {
    Done,
    Blocked,
    Dead,
}

/// Re-arms a descriptor's epoll interest only when it actually changed;
/// the cached state makes the common completes-in-one-batch request
/// cost zero `epoll_ctl` calls.
pub(crate) fn set_interest(
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

impl Worker {
    pub(crate) fn drive_client(&mut self, slot: usize, mut c: ClientConn, ev: Event) {
        if ev.timer {
            match &c.state {
                // Idle keep-alive: close quietly. Half a request: 408.
                ClientState::Reading if c.buf.is_empty() => {
                    self.release_client(slot, c);
                    return;
                }
                ClientState::Reading => {
                    self.answer(slot, &mut c, true, |out| {
                        wire::write_empty(StatusCode::REQUEST_TIMEOUT, true, out)
                    });
                    if self.pump(slot, &mut c, false) {
                        self.slots[slot] = Some(Slot::Client(c));
                    } else {
                        self.release_client(slot, c);
                    }
                    return;
                }
                // A write that outlives the read timeout is a stuck
                // client; the origin deadline covers `Awaiting` and a
                // drained stream. The deadline refreshes on every flushed
                // byte, so firing here means the client stopped draining.
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
    pub(crate) fn pump(&mut self, slot: usize, c: &mut ClientConn, eof: bool) -> bool {
        loop {
            match &mut c.state {
                ClientState::Reading => match wire::read_incoming(&c.buf, c.peer) {
                    Ok(Some(request)) => {
                        self.shared.requests_total.fetch_add(1, Ordering::Relaxed);
                        let len = request.len();
                        c.out.clear();
                        c.pos = 0;
                        c.state = self.dispatch(slot, &request, c.loopback, &mut c.out);
                        c.buf.consume(len);
                    }
                    Ok(None) => {
                        if eof {
                            return false;
                        }
                        // Waiting for more bytes: refresh the idle clock.
                        self.reactor.deadline(token_of(slot), READ_TIMEOUT);
                        set_interest(
                            &mut self.reactor,
                            &c.stream,
                            token_of(slot),
                            &mut c.interest,
                            Interest::READABLE,
                        );
                        return true;
                    }
                    Err(_) => self.answer(slot, c, true, |out| {
                        wire::write_empty(StatusCode::BAD_REQUEST, true, out)
                    }),
                },
                ClientState::Awaiting { .. } => return !eof,
                ClientState::Writing { .. } | ClientState::Streaming { .. } => {
                    match write_available(&mut c.stream, &c.out, &mut c.pos, &self.sys) {
                        WriteStep::Done => {}
                        WriteStep::Blocked => {
                            self.reactor.deadline(token_of(slot), READ_TIMEOUT);
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
                    // A stream: the origin will push more; wait for it
                    // under the origin's deadline, which ends a stall as
                    // a truncation committed with what was relayed. The
                    // registration stays as it is unless a blocked
                    // write left WRITABLE armed, which a drained socket
                    // would report on every poll.
                    self.reactor.cancel_deadline(token_of(slot));
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

    /// Routes one request read in place: the admin plane answers a
    /// `loopback` peer directly, everything else goes through the gate.
    /// An answer is staged into `out` (the slot's pooled write buffer,
    /// empty); a lease parks the client on an origin fetch. Returns the
    /// state the client moves to.
    fn dispatch(
        &mut self,
        slot: usize,
        request: &Incoming<'_>,
        loopback: bool,
        out: &mut Vec<u8>,
    ) -> ClientState {
        let close_after = self.draining || !request.keep_alive();
        let view = request.view();
        if loopback && view.uri().path() == "/admin/stats" {
            let body = serve_stats_json(&self.gateway.stats(), &self.shared, self.config.threads);
            let resp = Response::builder(StatusCode::OK)
                .header("Content-Type", "application/json")
                .body_bytes(body.into_bytes())
                .build();
            wire::write_response(&resp, close_after, out);
            return self.writing(slot, close_after);
        }
        let now = self.now();
        let lease = match self.gateway.gate(view, now, close_after, out) {
            Gate::Answered { .. } => return self.writing(slot, close_after),
            Gate::Leased(lease) => lease,
        };
        // Leased: only now is the request made owned.
        let pending = PendingOrigin::new(lease, request.to_request());
        let Some(origin_addr) = self.config.origin else {
            self.commit_empty(pending, StatusCode::NOT_FOUND, now);
            wire::write_empty(StatusCode::NOT_FOUND, close_after, out);
            return self.writing(slot, close_after);
        };
        let mut upstream = self.take_buf();
        upstream_request(pending.request(), &mut upstream);
        // Pool first: a parked connection skips connect and register
        // outright, and its cached READABLE interest is already what a
        // written-out fetch wants — the common warm takeout costs one
        // `write` and nothing else.
        let mut reused = false;
        let mut prepared = None;
        if let Some((pooled_slot, mut stream, mut interest)) = self.take_pooled() {
            self.shared.origin_reuses.fetch_add(1, Ordering::Relaxed);
            let mut pos = 0;
            match write_available(&mut stream, &upstream, &mut pos, &self.sys) {
                WriteStep::Dead => {
                    // The parked socket died between the probe and the
                    // write: retry on a fresh connection right here —
                    // this *is* the one retry, so the fresh fetch below
                    // is not `reused`.
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
                    self.connect_origin(origin_addr, origin_slot, &upstream)
                else {
                    // Origin unreachable before the fetch even started:
                    // commit (never drop) the lease so enforcement's
                    // in-flight count stays exact.
                    self.free.push(origin_slot);
                    self.recycle(upstream);
                    self.commit_empty(pending, StatusCode::BAD_GATEWAY, now);
                    wire::write_empty(StatusCode::BAD_GATEWAY, close_after, out);
                    return self.writing(slot, close_after);
                };
                (origin_slot, stream, pos, interest, connected)
            }
        };
        self.reactor.deadline(token_of(origin_slot), ORIGIN_TIMEOUT);
        let buf = self.take_read_buf();
        self.slots[origin_slot] = Some(Slot::OriginFetch(Box::new(OriginConn {
            stream,
            out: upstream,
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
        // Park the client with the registration it has: a hang-up is
        // reported whatever the mask, and a client that sends nothing
        // until it is answered (nearly all of them) never makes read
        // interest matter. The one that pipelines loses it on the event
        // that proves it, in `drive_client`, not here on a guess.
        self.reactor.cancel_deadline(token_of(slot));
        ClientState::Awaiting { origin_slot }
    }

    /// The state of a client whose response is staged in its write
    /// buffer: it is flushed under the read deadline, and the connection
    /// closes after it when `close_after`.
    fn writing(&mut self, slot: usize, close_after: bool) -> ClientState {
        self.reactor.deadline(token_of(slot), READ_TIMEOUT);
        ClientState::Writing { close_after }
    }

    /// Stages an answer of the server's own making: `write` puts it in
    /// the slot's pooled write buffer (one buffer, one `write` when the
    /// socket takes it whole) and the client turns to writing it.
    pub(crate) fn answer(
        &mut self,
        slot: usize,
        c: &mut ClientConn,
        close_after: bool,
        write: impl FnOnce(&mut Vec<u8>),
    ) {
        c.out.clear();
        c.pos = 0;
        write(&mut c.out);
        c.state = self.writing(slot, close_after);
    }

    /// Tears a client down, aborting (by *completing*) any origin fetch
    /// it was waiting on or streaming from.
    pub(crate) fn release_client(&mut self, slot: usize, c: ClientConn) {
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
                self.abandon_origin(origin_slot, o);
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
}

/// Maps a peer socket address to the session-key [`ClientIp`]. IPv4
/// octets pack big-endian, and so does an IPv4 address an IPv6 socket
/// reports mapped (`::ffff:a.b.c.d`): loopback tests therefore share one
/// IP and distinguish sessions by User-Agent (exactly the paper's
/// session key). Any other IPv6 address is folded over all sixteen of
/// its octets with 32-bit FNV-1a, so two addresses that differ anywhere
/// are, all but always, two clients. The key space is still 32 bits:
/// distinct IPv6 peers can collide, as can an IPv6 peer and an IPv4 one.
pub(crate) fn client_ip(peer: SocketAddr) -> ClientIp {
    match peer.ip() {
        IpAddr::V4(v4) => ClientIp::new(u32::from(v4)),
        IpAddr::V6(v6) => match v6.to_ipv4_mapped() {
            Some(v4) => ClientIp::new(u32::from(v4)),
            None => ClientIp::new(v6.octets().iter().fold(0x811c_9dc5, |hash, &octet| {
                (hash ^ u32::from(octet)).wrapping_mul(0x0100_0193)
            })),
        },
    }
}

/// Whether `peer` is this host: `127.0.0.0/8`, `::1`, or the first mapped
/// into IPv6. [`client_ip`] cannot tell: it hashes IPv6 peers.
pub(crate) fn is_loopback(peer: SocketAddr) -> bool {
    match peer.ip() {
        IpAddr::V4(v4) => v4.is_loopback(),
        IpAddr::V6(v6) => v6
            .to_ipv4_mapped()
            .map_or(v6.is_loopback(), |v4| v4.is_loopback()),
    }
}

/// Writes until done or the socket would block.
pub(crate) fn write_available(
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

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(addr: &str) -> ClientIp {
        client_ip(SocketAddr::new(addr.parse().unwrap(), 80))
    }

    #[test]
    fn only_a_loopback_peer_reaches_the_admin_plane() {
        let loopback = |addr: &str| is_loopback(SocketAddr::new(addr.parse().unwrap(), 80));
        for addr in [
            "127.0.0.1",
            "127.255.0.9",
            "::1",
            "::ffff:127.0.0.1",
            "::ffff:127.8.8.8",
        ] {
            assert!(loopback(addr), "{addr}");
        }
        for addr in [
            "10.1.2.3",
            "128.0.0.1",
            "0.0.0.0",
            "2001:db8::1",
            "::",
            "::ffff:10.1.2.3",
            // IPv4-compatible, not mapped: a public v6 address.
            "::127.0.0.1",
            "fe80::1",
        ] {
            assert!(!loopback(addr), "{addr}");
        }
    }

    #[test]
    fn an_ipv6_peer_is_keyed_on_all_sixteen_octets() {
        // IPv4, and IPv4 as an IPv6 socket reports it, key as they did.
        assert_eq!(key_of("10.1.2.3"), ClientIp::new(0x0a01_0203));
        assert_eq!(key_of("::ffff:10.1.2.3"), key_of("10.1.2.3"));
        assert_eq!(key_of("::ffff:127.0.0.1"), ClientIp::new(0x7f00_0001));
        // Two networks that share their last four octets are two keys.
        assert_ne!(key_of("2001:db8::1"), key_of("2001:db9::1"));
        assert_ne!(key_of("::1"), key_of("2001:db8::1"));
        // 32-bit FNV-1a over the octets: `::1` is fifteen zeros and a one
        // (it used to key as 0.0.0.1).
        let octets = [[0u8; 15].as_slice(), &[1]].concat();
        let fnv = octets.iter().fold(0x811c_9dc5_u32, |hash, &octet| {
            (hash ^ u32::from(octet)).wrapping_mul(0x0100_0193)
        });
        assert_eq!(key_of("::1"), ClientIp::new(fnv));
        assert_ne!(key_of("::1"), ClientIp::new(1));
    }
}
