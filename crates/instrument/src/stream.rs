//! Chunk-driven streaming HTML instrumentation.
//!
//! [`StreamingRewrite`] is the PR-8 restructuring of the page rewriter
//! around an incremental scanner: origin bytes go in chunk by chunk,
//! rewritten bytes come out as soon as they are resolved, and the only
//! buffering is the *unresolved* part of the document — never the page.
//! A caller that holds the whole page hands it over as the one chunk
//! ([`StreamingRewrite::rewrite_whole`]), so there is no buffered
//! rewriter to drift from this one.
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
//! * **Anchor hold** — a chunk that ends inside a possible anchor
//!   (`<bo│dy`, `</bod│y>`) parks those few bytes, fewer than the
//!   anchor is long, for the next chunk to complete or refute.
//! * **Tail hold** — `body_inject` goes before the *last* `</body>`,
//!   so from a `</body>` sighting to the next one (or EOF) the candidate
//!   tail is held, capped like the rest.
//!
//! Everything else streams through; peak buffering is a small constant
//! independent of page size ([`StreamingRewrite::peak_buffered`] is the
//! gauge the benches and tests assert on).
//!
//! A hold is the only time the injection scanner owns a copy of page
//! bytes. With nothing held, a chunk is scanned where the caller put it
//! (a block at a time, `scan.rs`): the resolved prefix goes to the
//! output as runs *of the caller's slice*, and only the unresolved
//! suffix — a few bytes of a possible anchor, or the tail from a
//! `</body>` candidate on — is copied into the hold buffer for the next
//! chunk to extend. The scan cursors count from the start
//! of that unresolved window either way, so no byte is compared against
//! an anchor twice. [`StreamingRewrite::peak_buffered`] counts a chunk
//! under scan on top of the bytes held before it, copied or not.
//!
//! The output is a [`StreamSink`], which is told which of the two it is
//! getting: a run of the chunk just handed in (by offset), or bytes that
//! lie nowhere the caller can see (injected markup, a released hold). A
//! `Vec<u8>` appends both; the front door keeps the runs as ranges of
//! its read buffer and writes them to the client from there.
//!
//! # Equivalence with the buffered path
//!
//! For any document that resolves its injection points within the hold
//! cap (every realistic page, and everything under 64KB outright), the
//! streaming output is byte-identical to the old buffered `inject()` for
//! *every* chunking of the input — the property pinned by the
//! `streaming_equivalence` proptest suite. Beyond the cap the streaming
//! path degrades by injecting at the cap boundary instead of scanning
//! the whole page; the byte-lock corpora never get there.

use crate::engine::{BuiltPage, IssuedPageToken};
use crate::rewrite::ProbeManifest;
use crate::scan::{find_ci, partial_suffix};
use std::ops::Range;

/// Cap on every hold buffer in the streaming rewriter. A document that
/// keeps an injection decision open past this many bytes gets the
/// decision forced at the cap instead of buffering the page.
pub const MAX_HELD_BYTES: usize = 64 * 1024;

/// What [`StreamingRewrite::finish`] yields once the last chunk is out:
/// the completed manifest (with `html_overhead` counted at the injection
/// sites) and the issued beacon token for the caller to store.
#[derive(Debug, Clone)]
pub struct FinishedStream {
    /// Manifest of everything injected into the page.
    pub manifest: ProbeManifest,
    /// The issued beacon token, when the mouse beacon is deployed.
    pub token: Option<IssuedPageToken>,
}

/// Where a [`StreamingRewrite`] puts its output. Nearly all of a page
/// leaves the rewriter as it came in, so a sink that can reach the
/// caller's chunk itself need not copy those bytes.
pub trait StreamSink {
    /// The next output is `chunk[range]`, where `chunk` is the slice the
    /// [`StreamingRewrite::write`] call in progress was given.
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

/// The sink of a scan over the hold buffer: what resolves there is a
/// run of the hold, not of the caller's chunk.
struct Released<'a, S>(&'a mut S);

impl<S: StreamSink> StreamSink for Released<'_, S> {
    fn run(&mut self, held: &[u8], range: Range<usize>) {
        self.0.bytes(&held[range]);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0.bytes(bytes);
    }
}

const HEAD_END: &[u8] = b"</head>";
const BODY_OPEN: &[u8] = b"<body";
const BODY_END: &[u8] = b"</body>";

/// Where the injection scanner stands in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Holding everything since the start, hunting `</head>` (and noting
    /// the first `<body` for the head-less fallback).
    Head,
    /// Head markup placed; hunting the first `<body` for the attribute.
    SeekBody,
    /// Attribute spliced; hunting the first `</body>` candidate.
    SeekBodyEnd,
    /// Holding from a `</body>` candidate, watching for a later one (the
    /// buffered path injects before the *last* `</body>`).
    HoldTail,
    /// Every injection point resolved; bytes flow straight through.
    Passthrough,
}

/// The injection scanner: places `head_inject`, `body_attr`, and
/// `body_inject` with exactly the buffered `inject()` semantics, holding
/// only what is still unresolved.
#[derive(Debug)]
struct Injector {
    head_inject: Vec<u8>,
    body_attr: Vec<u8>,
    body_inject: Vec<u8>,
    phase: Phase,
    held: Vec<u8>,
    /// Incremental-scan cursors: positions of `held` already ruled out
    /// as a match start for the phase's needle(s).
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
    fn new(head_inject: String, body_attr: String, body_inject: String) -> Injector {
        Injector {
            head_inject: head_inject.into_bytes(),
            body_attr: body_attr.into_bytes(),
            body_inject: body_inject.into_bytes(),
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

    fn push(&mut self, data: &[u8], out: &mut impl StreamSink) {
        if self.is_passthrough() {
            out.run(data, 0..data.len());
            return;
        }
        // The gauge counts the chunk under scan on top of what was held
        // before it, whether or not the chunk is ever copied into `held`.
        self.peak_held = self.peak_held.max(self.held.len() + data.len());
        if self.held.is_empty() {
            // Nothing carried over: scan the caller's bytes where they
            // lie and keep only the unresolved suffix.
            let resolved = self.scan(data, out, false);
            self.held.extend_from_slice(&data[resolved..]);
        } else {
            self.held.extend_from_slice(data);
            self.scan_held(out, false);
        }
    }

    /// Every injection point resolved and nothing held back: `push` is
    /// a pure hand-over.
    fn is_passthrough(&self) -> bool {
        self.phase == Phase::Passthrough && self.held.is_empty()
    }

    fn finish(&mut self, out: &mut impl StreamSink) {
        self.scan_held(out, true);
    }

    fn scan_held(&mut self, out: &mut impl StreamSink, eof: bool) {
        let held = std::mem::take(&mut self.held);
        let resolved = self.scan(&held, &mut Released(out), eof);
        self.held = held;
        self.held.drain(..resolved);
    }

    fn emit_injection(&mut self, which: Which, out: &mut impl StreamSink) {
        let markup = match which {
            Which::Head => &self.head_inject,
            Which::BodyAttr => &self.body_attr,
            Which::BodyEnd => &self.body_inject,
        };
        out.bytes(markup);
        self.injected += markup.len();
    }

    /// Runs the state machine over `buf` — everything unresolved so far,
    /// carried-over bytes first — and hands what resolves to `out` as
    /// runs of `buf`. Returns how many leading bytes of `buf` were
    /// resolved; the caller keeps the rest for the next call. The scan
    /// cursors index into that unresolved window (`buf[resolved..]`),
    /// which is what `held` will hold between calls.
    fn scan(&mut self, buf: &[u8], out: &mut impl StreamSink, eof: bool) -> usize {
        let mut resolved = 0;
        loop {
            let win = &buf[resolved..];
            match self.phase {
                Phase::Head => {
                    if let Some(i) = find_ci(win, self.head_scan, HEAD_END) {
                        out.run(buf, resolved..resolved + i);
                        self.emit_injection(Which::Head, out);
                        resolved += i;
                        self.scan = 0;
                        self.phase = Phase::SeekBody;
                        continue;
                    }
                    self.head_scan = win.len().saturating_sub(HEAD_END.len() - 1);
                    if self.body_at.is_none() {
                        self.body_at = find_ci(win, self.body_scan, BODY_OPEN);
                        if self.body_at.is_none() {
                            self.body_scan = win.len().saturating_sub(BODY_OPEN.len() - 1);
                        }
                    }
                    if !eof && win.len() < MAX_HELD_BYTES {
                        return resolved; // keep holding for `</head>`
                    }
                    // Resolve without a `</head>`: before the first
                    // `<body` when one was seen, else at the start of
                    // the unflushed stream (document start, unless the
                    // hold cap already forced an earlier flush).
                    match self.body_at {
                        Some(j) => {
                            out.run(buf, resolved..resolved + j);
                            resolved += j;
                            self.scan = 0;
                        }
                        // No `<body` up to `body_scan`: the body hunt
                        // resumes there instead of rescanning the hold.
                        None => self.scan = self.body_scan,
                    }
                    self.emit_injection(Which::Head, out);
                    self.phase = Phase::SeekBody;
                }
                Phase::SeekBody => {
                    if let Some(j) = find_ci(win, self.scan, BODY_OPEN) {
                        let after = j + BODY_OPEN.len();
                        out.run(buf, resolved..resolved + after);
                        self.emit_injection(Which::BodyAttr, out);
                        resolved += after;
                        self.scan = 0;
                        self.phase = Phase::SeekBodyEnd;
                        continue;
                    }
                    if eof {
                        out.run(buf, resolved..buf.len());
                        self.emit_injection(Which::BodyEnd, out);
                        self.phase = Phase::Passthrough;
                        return buf.len();
                    }
                    let flush = win.len() - partial_suffix(win, BODY_OPEN);
                    out.run(buf, resolved..resolved + flush);
                    self.scan = 0;
                    return resolved + flush;
                }
                Phase::SeekBodyEnd => {
                    if let Some(i) = find_ci(win, self.scan, BODY_END) {
                        out.run(buf, resolved..resolved + i);
                        resolved += i;
                        self.scan = 1; // the candidate itself sits at 0
                        self.phase = Phase::HoldTail;
                        continue;
                    }
                    if eof {
                        out.run(buf, resolved..buf.len());
                        self.emit_injection(Which::BodyEnd, out);
                        self.phase = Phase::Passthrough;
                        return buf.len();
                    }
                    let flush = win.len() - partial_suffix(win, BODY_END);
                    out.run(buf, resolved..resolved + flush);
                    self.scan = 0;
                    return resolved + flush;
                }
                Phase::HoldTail => {
                    if let Some(i) = find_ci(win, self.scan.max(1), BODY_END) {
                        out.run(buf, resolved..resolved + i);
                        resolved += i;
                        self.scan = 1;
                        continue; // later candidate supersedes this one
                    }
                    self.scan = win.len().saturating_sub(BODY_END.len() - 1).max(1);
                    if eof || win.len() >= MAX_HELD_BYTES {
                        // Inject before the held candidate — at EOF this
                        // IS the last `</body>`; at the cap we stop
                        // waiting for a later one.
                        self.emit_injection(Which::BodyEnd, out);
                        out.run(buf, resolved..buf.len());
                        self.phase = Phase::Passthrough;
                        return buf.len();
                    }
                    return resolved;
                }
                Phase::Passthrough => {
                    out.run(buf, resolved..buf.len());
                    return buf.len();
                }
            }
        }
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
/// [`StreamingRewrite::finish`] yields the manifest and issued token.
/// Owns every piece of its state (no borrow of the engine), so it can
/// ride inside a connection slot across event-loop turns.
#[derive(Debug)]
pub struct StreamingRewrite {
    injector: Injector,
    manifest: ProbeManifest,
    token: Option<IssuedPageToken>,
}

impl StreamingRewrite {
    pub(crate) fn new(
        head_inject: String,
        body_attr: String,
        body_inject: String,
        manifest: ProbeManifest,
        token: Option<IssuedPageToken>,
    ) -> StreamingRewrite {
        StreamingRewrite {
            injector: Injector::new(head_inject, body_attr, body_inject),
            manifest,
            token,
        }
    }

    /// The issued beacon token (available from the start — streaming
    /// callers store it in the session before the body has streamed).
    pub fn token(&self) -> Option<&IssuedPageToken> {
        self.token.as_ref()
    }

    /// Moves the issued token out, for a caller that stores it in the
    /// session up front ([`StreamingRewrite::finish`] then yields none).
    pub fn take_token(&mut self) -> Option<IssuedPageToken> {
        self.token.take()
    }

    /// Feeds one origin chunk in; rewritten bytes go to `out` (a
    /// `Vec<u8>` appends them) as soon as they are resolved.
    pub fn write(&mut self, chunk: &[u8], out: &mut impl StreamSink) {
        self.injector.push(chunk, out);
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
    /// injection whose anchor never arrived) and yields the manifest —
    /// with `html_overhead` counted at the injection sites — plus the
    /// issued token.
    pub fn finish(mut self, out: &mut Vec<u8>) -> FinishedStream {
        self.injector.finish(out);
        self.manifest.html_overhead = self.injector.injected;
        FinishedStream {
            manifest: self.manifest,
            token: self.token,
        }
    }

    /// The whole page at once: `html` in as the one chunk, everything
    /// out. What tests, benches and in-process callers that hold a page
    /// whole use; byte for byte what any chunking of `html` comes to.
    pub fn rewrite_whole(mut self, html: &str) -> BuiltPage {
        let mut out = Vec::with_capacity(html.len() + 512);
        self.write(html.as_bytes(), &mut out);
        let finished = self.finish(&mut out);
        BuiltPage {
            html: String::from_utf8(out).expect("the rewriter only injects ASCII at ASCII anchors"),
            manifest: finished.manifest,
            token: finished.token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FULL_COMPARES;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Runs the injector alone with visible markers over `html` cut
    /// into pieces of the given sizes, cycled.
    fn inject_pieces(html: &[u8], sizes: &[usize]) -> (Vec<u8>, Injector) {
        let mut inj = Injector::new("[H]".into(), "[A]".into(), "[B]".into());
        let mut out = Vec::new();
        let mut rest = html;
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(size.clamp(1, rest.len()));
            inj.push(piece, &mut out);
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
        let mut inj = Injector::new("[H]".into(), "[A]".into(), "[B]".into());
        let mut out = Vec::new();
        for piece in html.as_bytes().chunks(4096) {
            inj.push(piece, &mut out);
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
