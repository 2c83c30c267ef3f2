//! Step-driven streaming HTML instrumentation.
//!
//! [`StreamingRewrite`] is the page rewriter built around an
//! incremental scanner: origin bytes go in a step at a time,
//! rewritten bytes come out as soon as they are resolved, and the only
//! buffering is the *unresolved* part of the document — never the page.
//! A step is what the caller has in hand at once: one chunk
//! ([`StreamingRewrite::write`]), or several runs of one buffer
//! ([`StreamingRewrite::write_runs`]: the front door hands over the data
//! of every chunk one read delivered, framing left between them). A
//! caller that holds the whole page hands it over as the one chunk, so
//! there is no buffered rewriter to drift from this one.
//!
//! # What is scanned
//!
//! One search, run in two directions, over one view of a step: the hold
//! followed by the step's runs, addressed by one offset. `</head>` and
//! the first `<body` are hunted forward from the front of it; from there
//! on only the *last* `</body>` matters, so it is hunted backward from
//! the far end. Either way the pieces (the hold, each run) are searched
//! where they lie, and a candidate that straddles two of them is checked
//! in a stitch of at most twelve bytes around the boundary. What lies
//! before the last `</body>` candidate goes out unscanned. A page whose
//! body arrives in one step is compared only from its start to `<body`
//! and from its last `</body>` to its end: most page bytes are never
//! compared. A step that does not hold the page's end is hunted through.
//! No byte is compared against an anchor twice: the scan cursors skip
//! what earlier steps ruled out of a hold. Both directions run the same
//! block filter (`scan.rs`).
//!
//! # Memory model
//!
//! Output lags input only where an injection decision is still open:
//!
//! * **Head hold** — until the first `</head>` is seen, nothing is
//!   emitted: the head markup lands before that tag, or (head-less
//!   pages) before the first `<body`, or at the very start. The hold is
//!   capped at [`MAX_HELD_BYTES`]; a page whose first 64KB contain
//!   neither tag gets its head markup at the resolution point (start of
//!   the unflushed stream) and flows on.
//! * **Anchor hold** — a step that ends inside a possible anchor
//!   (`<bo│dy`, `</bod│y>`) parks those few bytes, fewer than the
//!   anchor is long, for the next step to complete or refute.
//! * **Tail hold** — `body_inject` goes before the *last* `</body>`,
//!   so from the last candidate a step holds to the end of that step is
//!   held until a later step brings a later one (or EOF), capped like
//!   the rest.
//!
//! Everything else streams through; peak buffering is a small constant
//! independent of page size ([`StreamingRewrite::peak_buffered`] is the
//! gauge the benches and tests assert on, and counts a step under scan
//! on top of the bytes held before it, copied or not).
//!
//! A hold is the only time the injection scanner owns a copy of page
//! bytes. Everything resolved goes to the output as runs *of the
//! caller's buffer* (bytes an earlier step left held go out as a
//! copy); only the unresolved suffix of a step — all of it while the
//! head hold lasts, a few bytes of a possible anchor, or the tail from
//! a `</body>` candidate on — is copied into the hold for a later step
//! to extend.
//!
//! The output is a [`StreamSink`], which is told which of the two it is
//! getting: a run of the buffer just handed in (by offset), or bytes
//! that lie nowhere the caller can see (injected markup, a released
//! hold). A `Vec<u8>` appends both; the front door keeps the runs as
//! ranges of its read buffer and writes them to the client from there.
//!
//! # Equivalence across splits
//!
//! For any document that resolves its injection points within the hold
//! cap (every realistic page, and everything under 64KB outright), the
//! output is byte-identical to the page handed over as one chunk for
//! *every* split of the input into steps and runs — the property pinned
//! by the `stream_equivalence` proptest suite.
//!
//! Beyond the cap, one rule for every hold: a step behaves as one chunk
//! does. The whole step is searched before the cap is checked, so an
//! anchor anywhere in it counts, however many runs it came in. Only then
//! does the cap force a decision: the head markup goes at the resolution
//! point when the head hold reaches it with no `</head>` in hand, and
//! the body markup goes before the last `</body>` candidate in hand once
//! the tail held from it reaches it, instead of waiting for a later
//! one. So past the cap, output depends on how the page was cut into
//! steps (a page with two candidates further apart than the cap gets its
//! markup before the later one when both arrive in one step, before the
//! earlier one when the cap forces it first), never on how a step was
//! cut into runs. The byte-lock corpora never get there.

use crate::engine::{IssuedPageToken, Minted};
use crate::rewrite::ProbeManifest;
use crate::scan::{find_ci, partial_suffix, rfind_ci};
use botwall_http::Uri;
use std::ops::Range;

/// Cap on every hold buffer in the streaming rewriter. A document that
/// keeps an injection decision open past this many bytes gets the
/// decision forced at the cap instead of buffering the page.
pub const MAX_HELD_BYTES: usize = 64 * 1024;

/// What [`StreamingRewrite::finish`] yields once the last chunk is out:
/// how many bytes the markup added (counted at the injection sites), and
/// what was minted into the page, from which a caller that reads the
/// manifest derives it ([`FinishedStream::manifest`]).
#[derive(Debug, Clone)]
pub struct FinishedStream {
    /// Bytes the rewrite added to the page: the manifest's
    /// `html_overhead`.
    pub html_overhead: usize,
    pub(crate) minted: Minted,
}

impl FinishedStream {
    /// The manifest of what the page was minted with: `page` is the page
    /// and `authority` the site its probe URLs were written on, as the
    /// stream was begun ([`crate::RewriteEngine::begin_stream`]'s page
    /// and its authority; [`crate::RewriteEngine::begin_session_page`]'s
    /// request's target and [`botwall_http::Request::authority`]).
    pub fn manifest(&self, page: &Uri, authority: Option<&str>) -> ProbeManifest {
        self.minted.manifest(page, authority, self.html_overhead)
    }
}

/// Where a [`StreamingRewrite`] puts its output. Nearly all of a page
/// leaves the rewriter as it came in, so a sink that can reach the
/// caller's chunk itself need not copy those bytes.
pub trait StreamSink {
    /// The next output is `chunk[range]`, where `chunk` is the buffer the
    /// [`StreamingRewrite::write`] or [`StreamingRewrite::write_runs`]
    /// call in progress was given.
    fn run(&mut self, chunk: &[u8], range: Range<usize>);

    /// The next output is bytes of no chunk the caller still holds:
    /// injected markup, or a hold released.
    fn bytes(&mut self, bytes: &[u8]);
}

impl StreamSink for Vec<u8> {
    fn run(&mut self, chunk: &[u8], range: Range<usize>) {
        self.extend_from_slice(&chunk[range]);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

#[cfg(test)]
thread_local! {
    /// Held bytes released on this thread: page bytes the output got
    /// from a copy rather than from the caller's buffer.
    static RELEASED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

const HEAD_END: &[u8] = b"</head>";
const BODY_OPEN: &[u8] = b"<body";
const BODY_END: &[u8] = b"</body>";

/// How far past a piece's end an anchor that starts in it can reach.
const REACH: usize = BODY_END.len() - 1;

/// What a step brings past the hold: `runs` of `buf`, in order.
#[derive(Clone, Copy)]
struct Runs<'a> {
    buf: &'a [u8],
    runs: &'a [Range<usize>],
}

impl<'a> Runs<'a> {
    fn len(self) -> usize {
        self.runs.iter().map(|run| run.len()).sum()
    }

    /// Bytes `lo..hi` of the runs laid end to end, as ranges of `buf`.
    fn slice(self, lo: usize, hi: usize) -> impl Iterator<Item = Range<usize>> + 'a {
        self.runs
            .iter()
            .scan(0, move |start, run| {
                let from = *start;
                *start += run.len();
                (from < hi).then_some((from, run))
            })
            .filter_map(move |(from, run)| {
                let (a, b) = (lo.max(from) - from, hi.min(from + run.len()) - from);
                (a < b).then(|| run.start + a..run.start + b)
            })
    }
}

/// A share of what a step has: bytes of the hold, or of the caller's
/// buffer.
enum Piece {
    Held(Range<usize>),
    Run(Range<usize>),
}

/// Where the injection scanner stands in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Holding everything since the start, hunting `</head>` (and noting
    /// the first `<body` for the head-less fallback).
    Head,
    /// Head markup placed; hunting the first `<body` for the attribute.
    SeekBody,
    /// Attribute spliced; hunting the last `</body>`.
    SeekBodyEnd,
    /// Holding from a `</body>` candidate, watching for a later one (the
    /// body markup goes before the *last* `</body>`).
    HoldTail,
    /// Every injection point resolved; bytes flow straight through.
    Passthrough,
}

/// The injection scanner: places the head markup, the `<body>`
/// attribute and the body markup where the page held whole would get
/// them, holding only what is still unresolved.
#[derive(Debug)]
struct Injector {
    /// The three pieces of markup, in that order: the attribute starts
    /// at `attr` and the body markup at `body`.
    markup: Vec<u8>,
    attr: usize,
    body: usize,
    phase: Phase,
    held: Vec<u8>,
    /// Incremental-scan cursors: offsets of the step (the hold, then the
    /// runs) before which no match start for the phase's needle(s) is
    /// left. Between steps they index `held`.
    head_scan: usize,
    body_scan: usize,
    scan: usize,
    /// First `<body` seen during the head hold, if any.
    body_at: Option<usize>,
    /// Bytes injected so far (the manifest's `html_overhead`).
    injected: usize,
    peak_held: usize,
}

impl Injector {
    fn new(markup: Vec<u8>, attr: usize, body: usize) -> Injector {
        Injector {
            markup,
            attr,
            body,
            phase: Phase::Head,
            held: Vec::new(),
            head_scan: 0,
            body_scan: 0,
            scan: 0,
            body_at: None,
            injected: 0,
            peak_held: 0,
        }
    }

    /// One stream step: the page's next bytes are `runs` of `buf`, and
    /// at `eof` there are no more. The step is one view, the hold
    /// followed by the runs: `</head>` and the first `<body` are hunted
    /// forward from its front, the last `</body>` backward from its end.
    fn step(&mut self, buf: &[u8], runs: &[Range<usize>], eof: bool, out: &mut impl StreamSink) {
        if self.phase == Phase::Passthrough {
            runs.iter().for_each(|run| out.run(buf, run.clone()));
            return;
        }
        let rest = Runs { buf, runs };
        let end = self.held.len() + rest.len();
        // The gauge counts the step on top of what was held before it,
        // whether or not any of it is ever copied into `held`.
        self.peak_held = self.peak_held.max(end);
        // What of the step has gone out: everything before `at`.
        let mut at = 0;
        if self.phase == Phase::Head {
            let found = self.find(rest, self.head_scan, HEAD_END);
            if found.is_none() {
                self.head_scan = end.saturating_sub(HEAD_END.len() - 1);
                if self.body_at.is_none() {
                    self.body_at = self.find(rest, self.body_scan, BODY_OPEN);
                    self.body_scan = end.saturating_sub(BODY_OPEN.len() - 1);
                }
                if !eof && end < MAX_HELD_BYTES {
                    return self.hold(rest, 0, end); // keep holding for `</head>`
                }
            }
            // Before `</head>`; without one, before the first `<body`
            // when one was seen, else at the start of the unflushed
            // stream (document start, unless the hold cap already forced
            // an earlier flush), the `<body` hunt resuming where the
            // head hold left it.
            let anchor = found.or(self.body_at);
            (at, self.scan) = (anchor.unwrap_or(0), anchor.unwrap_or(self.body_scan));
            self.emit(rest, 0, at, out);
            self.emit_injection(Which::Head, out);
            self.phase = Phase::SeekBody;
        }
        if self.phase == Phase::SeekBody {
            let Some(j) = self.find(rest, self.scan, BODY_OPEN) else {
                if eof {
                    // No `<body` in the page: the body markup goes last.
                    return self.close(rest, at, end, out);
                }
                // All goes out but a `<body` the next step may complete.
                let keep = self.partial(rest, at, end, BODY_OPEN);
                self.emit(rest, at, keep, out);
                self.hold(rest, keep, end);
                self.scan = 0;
                return;
            };
            let after = j + BODY_OPEN.len();
            self.emit(rest, at, after, out);
            self.emit_injection(Which::BodyAttr, out);
            (at, self.scan) = (after, after);
            self.phase = Phase::SeekBodyEnd;
        }
        self.hunt_body_end(rest, at, eof, out);
    }

    fn finish(&mut self, out: &mut impl StreamSink) {
        self.step(&[], &[], true, out);
    }

    fn emit_injection(&mut self, which: Which, out: &mut impl StreamSink) {
        let markup = match which {
            Which::Head => &self.markup[..self.attr],
            Which::BodyAttr => &self.markup[self.attr..self.body],
            Which::BodyEnd => &self.markup[self.body..],
        };
        out.bytes(markup);
        self.injected += markup.len();
    }

    /// The hunt for the last `</body>` over the step from `at` on. What
    /// lies before the last candidate goes out unscanned; from the
    /// candidate on is held, since a later step may bring a later one.
    /// With no candidate, all of it goes out but a `</body>` the next
    /// step may complete. At EOF, or once the held candidate's tail
    /// reaches the cap, the markup goes before the candidate in hand.
    fn hunt_body_end(&mut self, rest: Runs, at: usize, eof: bool, out: &mut impl StreamSink) {
        let end = self.held.len() + rest.len();
        let (keep, candidate) = match self.rfind(rest, self.scan, BODY_END) {
            Some(i) => (i, true),
            // No later candidate: the held one stands.
            None if self.phase == Phase::HoldTail => (0, true),
            None if eof => (end, false),
            None => (self.partial(rest, at, end, BODY_END), false),
        };
        if eof || (candidate && end - keep >= MAX_HELD_BYTES) {
            return self.close(rest, at, keep, out);
        }
        self.emit(rest, at, keep, out);
        self.hold(rest, keep, end);
        self.scan = 0;
        if candidate {
            self.phase = Phase::HoldTail;
            // Every later start the hold fits was ruled out; its last
            // few may yet begin a `</body>` the next step completes.
            self.scan = self.held.len().saturating_sub(REACH).max(1);
        }
    }

    /// Sends the step from `at` on with the body markup before `keep`:
    /// every injection point is resolved.
    fn close(&mut self, rest: Runs, at: usize, keep: usize, out: &mut impl StreamSink) {
        self.emit(rest, at, keep, out);
        self.emit_injection(Which::BodyEnd, out);
        self.emit(rest, keep, self.held.len() + rest.len(), out);
        self.held.clear();
        self.phase = Phase::Passthrough;
    }

    /// Keeps bytes `keep..end` of the step for the next one: the hold's
    /// own where they are, the runs' copied behind them.
    fn hold(&mut self, rest: Runs, keep: usize, end: usize) {
        let held = self.held.len();
        self.held.drain(..keep.min(held));
        for run in rest.slice(keep.saturating_sub(held), end - held) {
            self.held.extend_from_slice(&rest.buf[run]);
        }
    }

    /// Where a `needle` the next step may complete starts in `lo..end`:
    /// `end` less the longest proper prefix of it that ends there.
    fn partial(&self, rest: Runs, lo: usize, end: usize, needle: &[u8]) -> usize {
        let mut last = [0u8; REACH];
        let from = lo.max(end.saturating_sub(needle.len() - 1));
        let n = self.gather(rest, from, end, &mut last);
        end - partial_suffix(&last[..n], needle)
    }

    /// Where the first `needle` starting at or after `from` lies in the
    /// step. The pieces are searched from the first, each from its
    /// start; after a piece's own bytes, a candidate that starts in its
    /// last few and runs on into the next ([`Injector::stitch`]).
    fn find(&self, rest: Runs, from: usize, needle: &[u8]) -> Option<usize> {
        let mut start = 0;
        for piece in self.slices(rest) {
            let end = start + piece.len();
            if let Some(i) = find_ci(piece, from.saturating_sub(start), needle) {
                return Some(start + i);
            }
            if let Some(i) = self.stitch(rest, start.max(from), end, needle, find_ci) {
                return Some(i);
            }
            start = end;
        }
        None
    }

    /// [`Injector::find`] from the far end: the last `needle` starting
    /// at or after `from`, a straddling candidate checked before the
    /// bytes of the piece it starts in.
    fn rfind(&self, rest: Runs, from: usize, needle: &[u8]) -> Option<usize> {
        let mut end = self.held.len() + rest.len();
        for piece in self.slices(rest).rev() {
            if end <= from {
                break;
            }
            let start = end - piece.len();
            if let Some(i) = self.stitch(rest, start.max(from), end, needle, rfind_ci) {
                return Some(i);
            }
            if let Some(i) = rfind_ci(piece, from.saturating_sub(start), needle) {
                return Some(start + i);
            }
            end = start;
        }
        None
    }

    /// A `needle` that starts at or after `lo` in the last few bytes
    /// before a piece boundary at `end` and runs on past it, found by
    /// `search` in a stitch of at most `2 * REACH` bytes around the
    /// boundary.
    fn stitch(
        &self,
        rest: Runs,
        lo: usize,
        end: usize,
        needle: &[u8],
        search: fn(&[u8], usize, &[u8]) -> Option<usize>,
    ) -> Option<usize> {
        let lo = lo.max(end.saturating_sub(needle.len() - 1));
        let hi = (self.held.len() + rest.len()).min(end + needle.len() - 1);
        if lo >= end || hi <= end {
            return None;
        }
        let mut stitch = [0u8; 2 * REACH];
        let n = self.gather(rest, lo, hi, &mut stitch);
        search(&stitch[..n], 0, needle).map(|i| lo + i)
    }

    /// The step's pieces, whole: the hold, then each run.
    fn slices<'a>(&'a self, rest: Runs<'a>) -> impl DoubleEndedIterator<Item = &'a [u8]> + 'a {
        let runs = rest.runs.iter().map(move |run| &rest.buf[run.clone()]);
        std::iter::once(self.held.as_slice()).chain(runs)
    }

    /// Bytes `lo..hi` of what the step has (the hold, then `rest`),
    /// piece by piece.
    fn pieces<'a>(&self, rest: Runs<'a>, lo: usize, hi: usize) -> impl Iterator<Item = Piece> + 'a {
        let held = self.held.len();
        let from_hold = (lo < hi.min(held)).then(|| Piece::Held(lo..hi.min(held)));
        let runs = rest.slice(lo.saturating_sub(held), hi.saturating_sub(held));
        from_hold.into_iter().chain(runs.map(Piece::Run))
    }

    /// Sends bytes `lo..hi` of what the step has to `out`: the runs' by
    /// offset, the hold's as bytes of no buffer the caller can see.
    fn emit(&self, rest: Runs, lo: usize, hi: usize, out: &mut impl StreamSink) {
        for piece in self.pieces(rest, lo, hi) {
            match piece {
                Piece::Held(range) => {
                    #[cfg(test)]
                    RELEASED.with(|n| n.set(n.get() + range.len()));
                    out.bytes(&self.held[range]);
                }
                Piece::Run(range) => out.run(rest.buf, range),
            }
        }
    }

    /// Copies bytes `lo..hi` of what the step has into `into`; returns
    /// how many there were.
    fn gather(&self, rest: Runs, lo: usize, hi: usize, into: &mut [u8]) -> usize {
        let mut n = 0;
        for piece in self.pieces(rest, lo, hi) {
            let bytes = match piece {
                Piece::Held(range) => &self.held[range],
                Piece::Run(range) => &rest.buf[range],
            };
            into[n..n + bytes.len()].copy_from_slice(bytes);
            n += bytes.len();
        }
        n
    }
}

#[derive(Debug, Clone, Copy)]
enum Which {
    Head,
    BodyAttr,
    BodyEnd,
}

/// One in-flight streaming page rewrite, produced by
/// [`crate::RewriteEngine::begin_stream`]: chunk in → chunk out →
/// [`StreamingRewrite::finish`] yields what was injected. Owns every
/// piece of its state (no borrow of the engine), so it can ride inside a
/// connection slot across event-loop turns.
#[derive(Debug)]
pub struct StreamingRewrite {
    injector: Injector,
    minted: Minted,
}

impl StreamingRewrite {
    /// A rewrite injecting `markup`: the head markup, then from `attr`
    /// the `<body>` attribute, then from `body` the body markup.
    pub(crate) fn new(
        markup: String,
        attr: usize,
        body: usize,
        minted: Minted,
    ) -> StreamingRewrite {
        StreamingRewrite {
            injector: Injector::new(markup.into_bytes(), attr, body),
            minted,
        }
    }

    /// The issued beacon token (available from the start — streaming
    /// callers store it in the session before the body has streamed).
    pub fn token(&self) -> Option<&IssuedPageToken> {
        self.minted.token.as_ref()
    }

    /// Feeds one origin chunk in; rewritten bytes go to `out` (a
    /// `Vec<u8>` appends them) as soon as they are resolved. The one-run
    /// [`StreamingRewrite::write_runs`].
    pub fn write(&mut self, chunk: &[u8], out: &mut impl StreamSink) {
        self.write_runs(chunk, std::slice::from_ref(&(0..chunk.len())), out);
    }

    /// Feeds one stream step in: `runs` of `buf`, in order, are the
    /// page's next bytes (a chunked body's data between its framing,
    /// say). Rewritten bytes go to `out` as soon as they are resolved,
    /// as runs of `buf` where they lie there. The step is hunted for its
    /// last `</body>` from its far end, so the more of a page one step
    /// carries, the less of it is ever compared.
    pub fn write_runs(&mut self, buf: &[u8], runs: &[Range<usize>], out: &mut impl StreamSink) {
        self.injector.step(buf, runs, false, out);
    }

    /// Bytes currently held back waiting for an unresolved injection
    /// point.
    pub fn buffered(&self) -> usize {
        self.injector.held.len()
    }

    /// High-water mark of [`StreamingRewrite::buffered`] — the gauge the
    /// O(chunk) memory claim is asserted on.
    pub fn peak_buffered(&self) -> usize {
        self.injector.peak_held
    }

    /// Ends the stream: emits everything still held (placing any
    /// injection whose anchor never arrived) and yields how many bytes
    /// were injected and what was minted.
    pub fn finish(mut self, out: &mut Vec<u8>) -> FinishedStream {
        self.injector.finish(out);
        FinishedStream {
            html_overhead: self.injector.injected,
            minted: self.minted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{BLOCK, FULL_COMPARES, VISITED};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Runs the injector alone with visible markers over `html` cut
    /// into pieces of the given sizes, cycled.
    fn inject_pieces(html: &[u8], sizes: &[usize]) -> (Vec<u8>, Injector) {
        let mut inj = Injector::new(b"[H][A][B]".to_vec(), 3, 6);
        let mut out = Vec::new();
        let mut rest = html;
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(size.clamp(1, rest.len()));
            inj.step(
                piece,
                std::slice::from_ref(&(0..piece.len())),
                false,
                &mut out,
            );
            rest = tail;
        }
        inj.finish(&mut out);
        (out, inj)
    }

    fn inject_chunked(html: &str, chunk: usize) -> String {
        String::from_utf8(inject_pieces(html.as_bytes(), &[chunk]).0).unwrap()
    }

    fn inject(html: &str) -> String {
        let whole = inject_chunked(html, html.len().max(1));
        for chunk in 1..=7 {
            assert_eq!(
                inject_chunked(html, chunk),
                whole,
                "chunk size {chunk} diverged from one-shot injection"
            );
        }
        whole
    }

    #[test]
    fn well_formed_page_gets_all_three_injections() {
        assert_eq!(
            inject("<html><head><title>t</title></head><body class=c>hi</body></html>"),
            "<html><head><title>t</title>[H]</head><body[A] class=c>hi[B]</body></html>"
        );
    }

    #[test]
    fn body_inject_goes_before_the_last_body_end() {
        assert_eq!(
            inject("<head></head><body>a</body>b</body>c"),
            "<head>[H]</head><body[A]>a</body>b[B]</body>c"
        );
    }

    #[test]
    fn headless_page_injects_before_first_body() {
        assert_eq!(
            inject("<html><body>x</body></html>"),
            "<html>[H]<body[A]>x[B]</body></html>"
        );
    }

    #[test]
    fn bare_fragment_gets_markup_at_edges() {
        // No <head>, no <body>: head markup at the very start, body
        // markup at EOF, attribute nowhere.
        assert_eq!(inject("just text"), "[H]just text[B]");
        assert_eq!(inject(""), "[H][B]");
    }

    #[test]
    fn tail_hold_is_capped() {
        // Two </body> candidates far apart: the injector may not buffer
        // the span between them past the cap.
        let mut html = String::from("<head></head><body></body>");
        html.push_str(&"y".repeat(3 * MAX_HELD_BYTES));
        html.push_str("</body>");
        let mut inj = Injector::new(b"[H][A][B]".to_vec(), 3, 6);
        let mut out = Vec::new();
        for piece in html.as_bytes().chunks(4096) {
            inj.step(
                piece,
                std::slice::from_ref(&(0..piece.len())),
                false,
                &mut out,
            );
        }
        inj.finish(&mut out);
        assert!(inj.peak_held <= MAX_HELD_BYTES + 4096);
        let text = String::from_utf8(out).unwrap();
        // The cap forces the injection at the first candidate instead of
        // scanning 192KB ahead — but it is injected exactly once.
        assert_eq!(text.matches("[B]").count(), 1);
        assert!(text.contains("[B]</body>"));
    }

    /// Anchors whole, shouted, and pre-cut, so random piece sizes land
    /// boundaries inside `</bo│dy>` and between an anchor's halves.
    fn anchor_fragment() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("<head><title>t</title>".to_string()),
            Just("</head>".to_string()),
            Just("</HEAD>".to_string()),
            Just("<body class=\"c\">".to_string()),
            Just("<BoDy>".to_string()),
            Just("</body>".to_string()),
            Just("</BODY>".to_string()),
            Just("</bo".to_string()),
            Just("dy>".to_string()),
            Just("<".to_string()),
            Just("</".to_string()),
            Just("<b".to_string()),
            Just("<p>héllo ☃</p>".to_string()),
            "[ -~]{0,30}",
        ]
    }

    proptest! {
        /// Any split of the input — through the in-place path when
        /// nothing is held, through `held` when something is — injects
        /// exactly what the one-shot push does.
        #[test]
        fn any_split_of_the_input_injects_identically(
            parts in vec(anchor_fragment(), 0..12),
            sizes in vec(1usize..48, 1..10),
        ) {
            let html = parts.concat();
            let (whole, _) = inject_pieces(html.as_bytes(), &[html.len().max(1)]);
            let (split, _) = inject_pieces(html.as_bytes(), &sizes);
            prop_assert_eq!(
                String::from_utf8_lossy(&split),
                String::from_utf8_lossy(&whole),
                "piece sizes {:?}", sizes
            );
        }
    }

    #[test]
    fn a_partial_anchor_at_a_chunk_end_releases_only_itself() {
        // A megabyte past `<body` in 16 KB chunks that each end in
        // `</bo`, which the next chunk's first byte refutes: only the
        // four held bytes go out as a copy, never the chunk behind them.
        const CHUNK: usize = 16 * 1024;
        let mut html = b"<html><head></head><body>".to_vec();
        while html.len() < 1 << 20 {
            html.resize(html.len() + CHUNK - 4 - html.len() % CHUNK, b'y');
            html.extend_from_slice(b"</bo");
        }
        html.extend_from_slice(b"</body></html>");
        let (whole, _) = inject_pieces(&html, &[html.len()]);
        RELEASED.with(|n| n.set(0));
        let (chunked, _) = inject_pieces(&html, &[CHUNK]);
        let released = RELEASED.with(|n| n.get());
        assert!(chunked == whole);
        let chunks = html.len().div_ceil(CHUNK);
        assert!(
            released <= 6 * chunks,
            "{released} bytes released over {chunks} chunks"
        );
    }

    /// A page of at most 64 KB around repeats of `item`.
    fn page_of(item: &str) -> Vec<u8> {
        const END: &[u8] = b"</body></html>\n";
        let mut html = b"<html><head><title>t</title></head><body class=\"c\">".to_vec();
        while html.len() + item.len() + END.len() <= 64 * 1024 {
            html.extend_from_slice(item.as_bytes());
        }
        html.extend_from_slice(END);
        html
    }

    #[test]
    fn a_page_held_whole_is_scanned_at_its_head_and_its_tail() {
        let text = format!(
            "<p>{}</p>\n",
            "the quick brown fox jumps over the lazy dog ".repeat(12)
        );
        let markup =
            "<div class=\"c7\"><a href=\"/p/7.html\">fox</a><img src=\"/a/3.png\"></div>\n";
        for page in [page_of(&text), page_of(markup)] {
            let (expected, _) = inject_pieces(&page, &[page.len()]);
            let body_open = page.windows(5).position(|w| w == b"<body").unwrap();
            let tail = page.len() - page.windows(7).rposition(|w| w == b"</body>").unwrap();
            let eighths: Vec<Range<usize>> = (0..page.len())
                .step_by(8 * 1024)
                .map(|start| start..page.len().min(start + 8 * 1024))
                .collect();
            // One step, as one run and as eight: the head up to `<body`
            // and the tail from the last `</body>` are looked at, and
            // the block each of the three searches (`</head>`, `<body`,
            // `</body>`) found its anchor in.
            let whole = std::iter::once(0..page.len()).collect();
            for runs in [whole, eighths.clone()] {
                VISITED.with(|n| n.set(0));
                let mut inj = Injector::new(b"[H][A][B]".to_vec(), 3, 6);
                let mut out = Vec::new();
                inj.step(&page, &runs, false, &mut out);
                inj.finish(&mut out);
                let visited = VISITED.with(|n| n.get());
                assert!(out == expected);
                assert!(
                    visited <= body_open + tail + 3 * BLOCK,
                    "{} runs: {visited} of {} bytes visited, head {body_open}, tail {tail}",
                    runs.len(),
                    page.len()
                );
            }
            // Eight steps: a step that does not hold the page's end is
            // hunted through.
            VISITED.with(|n| n.set(0));
            let (out, _) = inject_pieces(&page, &[8 * 1024]);
            let visited = VISITED.with(|n| n.get());
            assert!(out == expected);
            assert!(visited >= page.len() * 7 / 8, "{visited} of {}", page.len());
        }
    }

    #[test]
    fn hostile_origins_are_scanned_in_linear_time() {
        // A megabyte of nothing but candidates: bare `<`, the longest
        // prefix of `</body>` that never completes, and `<B` (passes
        // the second-byte filter for `<body` every time).
        for unit in ["<", "</bod", "<B"] {
            let html = unit.repeat((1 << 20) / unit.len());
            let candidates = html.bytes().filter(|&b| b == b'<').count();
            let expected = format!("[H]{html}[B]");
            for write in [1, 16 * 1024] {
                FULL_COMPARES.with(|n| n.set(0));
                let (out, inj) = inject_pieces(html.as_bytes(), &[write]);
                assert!(
                    out == expected.as_bytes(),
                    "{unit:?} in {write}-byte writes"
                );
                assert!(inj.peak_held <= MAX_HELD_BYTES + write);
                // No candidate is compared twice: not after it failed,
                // not when a hold resolves, not across a chunk boundary.
                let compares = FULL_COMPARES.with(|n| n.get());
                assert!(
                    compares <= candidates,
                    "{unit:?} in {write}-byte writes: {compares} compares for {candidates} `<`"
                );
            }
        }
    }
}
