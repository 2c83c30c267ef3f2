//! The origin side: one fetch's connection, from the request it is
//! sent to the response relayed back as a stream.
//!
//! # Streaming responses
//!
//! No origin response is buffered whole. An interim `1xx` ahead of the
//! response proper is skipped, not relayed. When the final head has
//! parsed, how the body travels is decided once (`BodyPlan`: nothing
//! follows a response to `HEAD`, a 204 or a 304) and the client's head
//! goes out at once. A `200` + `text/html` answers with a head of the
//! server's own and pipes body bytes through the gateway's
//! [`PageStream`] rewriter as they arrive, the body runs of one read as
//! one rewriter step; anything else answers with the origin's own
//! status line and headers, only the hop-by-hop and framing lines
//! replaced, and its bytes pass untouched. A length the
//! origin declared is relayed under one `Content-Length`, unframed; a
//! body whose length nobody knows yet (a page, a chunked or
//! close-delimited origin) is chunk-encoded to an HTTP/1.1 client and
//! ended by the close for an HTTP/1.0 one. A body byte is not copied on
//! its way through (`staged.rs`), and memory per response is bounded by
//! the rewriter's constant hold-back plus the client's write backlog,
//! never the body's size, so a multi-MB page or asset flows through in
//! O(chunk). Backpressure is explicit: a client backlog over
//! [`STREAM_HIGH_WATER`] parks the origin's read interest until the
//! backlog drains below [`STREAM_LOW_WATER`]. A truncated origin
//! (mid-body EOF, garbage chunk framing, stall past [`ORIGIN_TIMEOUT`])
//! still commits its lease, and the client's stream ends with a close
//! and *without* the terminal chunk, or short of the length declared —
//! truncation stays visible, never silently reframed as a complete
//! message.

use crate::conn::{
    set_interest, write_available, ClientConn, ClientState, WriteStep, READ_TIMEOUT,
};
use crate::frame::{self, BodyDecoder, BodyFraming};
use crate::pool::{read_available, ReadBuf, Slot};
use crate::server::{token_of, Worker, STREAM_HIGH_WATER, STREAM_LOW_WATER};
use crate::staged::{frame_body, push_side, write_staged, Part, Staged, MAX_RUNS};
use botwall_gateway::{PageStream, PendingOrigin, PAGE_HEAD_LINES};
use botwall_http::{
    wire, ContentClass, Head, HttpError, Method, Request, ResponseSummary, StatusCode,
};
use botwall_sessions::SimTime;
use reactor::{net, Event, Interest, Reactor};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// How long an origin fetch may go without progress: before its head,
/// the lease completes with a synthesized `504`; after it, the stream
/// ends truncated. Every read that moves the response re-arms it.
pub const ORIGIN_TIMEOUT: Duration = Duration::from_secs(10);

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

pub(crate) struct OriginConn {
    pub(crate) stream: TcpStream,
    /// Serialized upstream request, then how much of it has gone out.
    pub(crate) out: Vec<u8>,
    pub(crate) pos: usize,
    pub(crate) buf: ReadBuf,
    pub(crate) client_slot: usize,
    /// Whether to close the *client* connection after this response.
    pub(crate) close_after: bool,
    /// The leased exchange; always completed, never dropped.
    pub(crate) pending: Option<PendingOrigin>,
    pub(crate) connected: bool,
    /// Cached epoll interest, as on [`ClientConn`].
    pub(crate) interest: Interest,
    /// Riding a pooled connection. A reused fetch that dies before any
    /// response byte retries once on a fresh connection (the parked
    /// socket may have gone stale); a fresh fetch never retries.
    pub(crate) reused: bool,
    /// Whether any response byte has arrived — the retry window closes
    /// the moment one does.
    pub(crate) saw_byte: bool,
    /// The response on its way to the client, once its head has parsed.
    pub(crate) relay: Option<Box<StreamingFetch>>,
}

pub(crate) struct StreamingFetch {
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

impl Worker {
    /// Commits a lease no origin response head came back for as the
    /// empty `status` the server answers it with itself (the `404` with
    /// no origin configured, a `502`, a `504`): a relay of that head,
    /// counted as the bytes of [`ResponseSummary::empty`]. Every lease
    /// the front door takes ends in [`Gateway::commit_page_stream`].
    ///
    /// [`Gateway::commit_page_stream`]: botwall_gateway::Gateway::commit_page_stream
    pub(crate) fn commit_empty(&self, pending: PendingOrigin, status: StatusCode, now: SimTime) {
        let head = ResponseSummary::empty(status);
        let relay = PageStream::relay(head);
        let wire_bytes = head.wire_len as u64;
        self.gateway
            .commit_page_stream(pending, relay, &mut Vec::new(), wire_bytes, now);
    }

    /// The client is gone but the lease must still be committed —
    /// dropping it would leak the session's in-flight count until
    /// rollover. A synthesized 504 records "the exchange died on us".
    pub(crate) fn abandon_origin(&mut self, origin_slot: usize, mut o: Box<OriginConn>) {
        self.reactor.cancel_deadline(token_of(origin_slot));
        self.pending_free.push(origin_slot);
        if let Some(pending) = o.pending.take() {
            self.commit_empty(pending, StatusCode::GATEWAY_TIMEOUT, self.now());
        }
        self.retire_origin(o);
    }

    pub(crate) fn drive_origin(&mut self, slot: usize, mut o: Box<OriginConn>, ev: Event) {
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
    pub(crate) fn connect_origin(
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
    fn retry_origin(&mut self, slot: usize, mut o: Box<OriginConn>) {
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
        self.reactor.deadline(token_of(slot), ORIGIN_TIMEOUT);
        self.slots[slot] = Some(Slot::OriginFetch(o));
    }

    /// An origin fetch whose response head has not parsed yet: retry if
    /// the pooled connection turned out stale, wait for the rest of the
    /// head, or hand the response over to the stream. An interim `1xx`
    /// is not the answer (RFC 9110 §15.2; the origin may send `100
    /// Continue` because the client's `Expect` was passed on to it): it
    /// is skipped, and the final head is waited for inside the same
    /// [`ORIGIN_TIMEOUT`]. An origin that closes or sends garbage inside
    /// its head, or switches protocols (`101`: no hop here upgrades), is
    /// the `502`.
    fn origin_head_step(&mut self, slot: usize, mut o: Box<OriginConn>, eof: bool) {
        // A reused connection the origin closed without a single
        // response byte was stale in the pool: retry once, fresh.
        if eof && o.reused && !o.saw_byte && o.buf.is_empty() {
            self.retry_origin(slot, o);
            return;
        }
        loop {
            match frame::response_head(&o.buf) {
                Ok(Some(head)) if matches!(head.status, 100 | 102..=199) => o.buf.consume(head.len),
                Ok(Some(head)) if head.status != 101 => {
                    return self.begin_stream(slot, o, head, eof)
                }
                Ok(None) if !eof => {
                    self.slots[slot] = Some(Slot::OriginFetch(o));
                    return;
                }
                _ => return self.fail_origin(slot, o, StatusCode::BAD_GATEWAY),
            }
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
        mut o: Box<OriginConn>,
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
            // The byte ledger counts what goes on the wire, so `wire_len`
            // is only the origin's head, not what the client is sent.
            PageStream::relay(ResponseSummary {
                status: StatusCode::new(head.status).expect("response_head checked the range"),
                class: head
                    .content_type
                    .as_deref()
                    .and_then(ContentClass::from_content_type),
                wire_len: head.len,
            })
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
        self.reactor.deadline(token_of(o.client_slot), READ_TIMEOUT);
        self.slots[o.client_slot] = Some(Slot::Client(c));
        self.origin_stream_step(slot, o, head.len, eof);
    }

    /// One step of an active stream: decode what arrived and rewrite it
    /// where it lies ([`stream_step`]), then [`Worker::relay_stream`]
    /// sends on what resolved.
    fn origin_stream_step(&mut self, slot: usize, mut o: Box<OriginConn>, skip: usize, eof: bool) {
        let Some(fetch) = &mut o.relay else {
            unreachable!("caller checked for the stream");
        };
        let StreamingFetch { decoder, page, .. } = &mut **fetch;
        let decoded = stream_step(decoder, page, &o.buf, skip, &mut self.staged);
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
    fn relay_stream(
        &mut self,
        slot: usize,
        mut o: Box<OriginConn>,
        consumed: usize,
        end: StreamEnd,
    ) {
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
                .commit_page_stream(pending, page, &mut staged.side, sent, now);
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
        self.reactor.deadline(token_of(slot), ORIGIN_TIMEOUT);
        throttle(&mut self.reactor, slot, &mut o, backlog);
        self.slots[slot] = Some(Slot::OriginFetch(o));
    }

    /// Drops a finished origin connection, returning its buffers to the
    /// pool.
    pub(crate) fn retire_origin(&mut self, o: Box<OriginConn>) {
        let OriginConn { buf, out, .. } = *o;
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
    pub(crate) fn maybe_resume_origin(&mut self, client_slot: usize) {
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
    fn fail_origin(&mut self, slot: usize, mut o: Box<OriginConn>, status: StatusCode) {
        self.reactor.cancel_deadline(token_of(slot));
        let pending = o.pending.take().expect("a fetch fails once");
        self.commit_empty(pending, status, self.now());
        let client_slot = o.client_slot;
        let close_after = o.close_after;
        self.pending_free.push(slot);
        self.retire_origin(o);
        // The client may have died in this same batch: the lease is
        // committed all the same, and nobody is told.
        let Some(Slot::Client(mut c)) = self.slots.get_mut(client_slot).and_then(Option::take)
        else {
            return;
        };
        self.answer(client_slot, &mut c, close_after, |out| {
            wire::write_empty(status, close_after, out)
        });
        if self.pump(client_slot, &mut c, false) {
            self.slots[client_slot] = Some(Slot::Client(c));
        } else {
            self.release_client(client_slot, c);
        }
    }
}

/// Decodes what arrived in `origin` (past the `skip` bytes of response
/// head on a stream's first step) and rewrites it as one step. The
/// decoder names the body runs inside the read buffer, they are
/// collected on `staged.body`, and a page's rewriter is handed them in
/// one call and hunts them where they lie (a relay names each run
/// whole); an origin that chunks finer than [`MAX_RUNS`] runs a read is
/// rewritten a batch of that many at a time, each batch a step of its
/// own. What resolves is staged as ranges of that buffer plus the few
/// hundred bytes that are not in it. Returns what the decoder returns.
fn stream_step(
    decoder: &mut BodyDecoder,
    page: &mut PageStream,
    origin: &[u8],
    skip: usize,
    staged: &mut Staged,
) -> Result<(usize, bool), HttpError> {
    staged.clear();
    let mut body = std::mem::take(&mut staged.body);
    let decoded = decoder.decode(&origin[skip..], |at, run| {
        if run.is_empty() {
            return;
        }
        body.push(skip + at..skip + at + run.len());
        if body.len() == MAX_RUNS {
            page.write_runs(origin, &body, staged);
            body.clear();
        }
    });
    if !body.is_empty() {
        page.write_runs(origin, &body, staged);
        body.clear();
    }
    staged.body = body;
    decoded
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
pub(crate) fn upstream_request(request: &Request, out: &mut Vec<u8>) {
    wire::serialize_request_as(request, "HTTP/1.1", |name| !hop_by_hop(name), out);
}

/// Ends a streamed response's head with the only framing and
/// `Connection` lines it carries, which are this hop's: the length when
/// one is declared, `chunked` when the body goes out in chunks, neither
/// when no body follows or the close delimits it.
fn end_head(plan: &BodyPlan, close_after: bool, out: &mut Vec<u8>) {
    if let Some(length) = plan.length {
        wire::content_length(length, out);
    }
    if plan.chunked {
        out.extend_from_slice(b"Transfer-Encoding: chunked\r\n");
    }
    wire::end_head(close_after, out);
}

/// Appends the client-side response head for a streamed page: the
/// gateway's 200, `text/html`, uncacheable lines, and never a
/// `Content-Length` (the rewriter is about to change it). The head is
/// invariant per connection mode, so it lives as wire bytes — nothing
/// builds or serializes a `Response` on the streaming hot path.
fn streaming_head(plan: &BodyPlan, close_after: bool, out: &mut Vec<u8>) {
    out.extend_from_slice(PAGE_HEAD_LINES);
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

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::request::ClientIp;

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

    /// A page from an origin that sends a byte a chunk, read 4 KB at a
    /// time: each read's runs reach the rewriter in batches of at most
    /// [`MAX_RUNS`], the per-worker list they are collected in stops at
    /// that cap, and the client is sent what one write of the whole page
    /// makes of it.
    #[test]
    fn a_byte_a_chunk_origin_is_rewritten_in_batches_of_the_runs_cap() {
        use botwall_gateway::{Gateway, PendingServe};
        use botwall_sessions::SimTime;
        let html = format!(
            "<html><head><title>t</title></head><body class=\"b\">{}</body></html>\n",
            "<p>a paragraph of text</p>\n".repeat(300)
        );
        let mut framed = Vec::new();
        for byte in html.bytes() {
            framed.extend_from_slice(b"1\r\n");
            framed.push(byte);
            framed.extend_from_slice(b"\r\n");
        }
        framed.extend_from_slice(b"0\r\n\r\n");
        let request = Request::builder(Method::Get, "http://site.example/page.html")
            .header("User-Agent", "Mozilla/5.0")
            .build()
            .unwrap();
        // The same seed and request mint the same markup twice.
        let lease = |gateway: &Gateway| match gateway.handle_deferred(&request, SimTime::ZERO) {
            PendingServe::AwaitingOrigin(pending) => {
                let stream = gateway.begin_page_stream(&pending, SimTime::ZERO);
                (pending, stream)
            }
            other => panic!("{other:?}"),
        };
        let (one, two) = (
            Gateway::builder().seed(5).build(),
            Gateway::builder().seed(5).build(),
        );
        let (pending, mut whole) = lease(&one);
        let mut expected = Vec::new();
        whole.write(html.as_bytes(), &mut expected);
        one.commit_page_stream(pending, whole, &mut expected, 0, SimTime::ZERO);

        let (pending, mut page) = lease(&two);
        let mut decoder = BodyDecoder::new(BodyFraming::Chunked);
        let (mut staged, mut buf, mut sent) = (Staged::default(), Vec::new(), Vec::new());
        let mut done = false;
        for read in framed.chunks(4096) {
            buf.extend_from_slice(read);
            let (used, complete) =
                stream_step(&mut decoder, &mut page, &buf, 0, &mut staged).unwrap();
            assert_eq!(staged.body.capacity(), MAX_RUNS);
            frame_body(false, &mut staged.wire, &mut staged.side, &staged.runs);
            staged.queue(&mut sent, &buf, 0);
            buf.drain(..used);
            done = complete;
        }
        assert!(done);
        two.commit_page_stream(pending, page, &mut sent, 0, SimTime::ZERO);
        assert!(sent == expected, "the batched page differs");
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
}
