//! Chunk-driven streaming HTML instrumentation.
//!
//! [`StreamingRewrite`] is the PR-8 restructuring of the page rewriter
//! around an incremental scanner: origin bytes go in chunk by chunk,
//! rewritten bytes come out as soon as they are resolved, and the only
//! buffering is the *unresolved* part of the document — never the page.
//! [`crate::RewriteEngine::build_page`] is now a thin buffered wrapper
//! over this module, so the buffered and streaming paths cannot drift.
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
//! * **Tag hold** — mid-token chunk boundaries (`<bo│dy`, a tag split
//!   across reads, an attribute value split mid-URL) park at most one
//!   unfinished token, again capped at [`MAX_HELD_BYTES`] (an attacker
//!   origin streaming an endless tag gets it flushed raw).
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
//! (word-at-a-time, `scan.rs`): the resolved prefix is appended to the
//! output straight from the caller's slice, and only the unresolved
//! suffix — a few bytes of a possible anchor, or the tail from a
//! `</body>` candidate on — is copied into the hold buffer for the next
//! chunk to extend. The scan cursors count from the start
//! of that unresolved window either way, so no byte is compared against
//! an anchor twice. [`StreamingRewrite::peak_buffered`] counts a chunk
//! under scan on top of the bytes held before it, copied or not.
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
//!
//! # Asset-proxy rewriting
//!
//! With [`AssetProxyConfig`] set, the scanner additionally rewrites the
//! full trusted-server attribute surface to route external asset fetches
//! through a first-party endpoint: `src`/`href`-style URL attributes,
//! descriptor-preserving `srcset`/`imagesrcset` splitting (a `data:`
//! candidate's mediatype comma does not end the candidate), CSS
//! `url(...)` in `<style>` blocks and inline `style=` attributes, and
//! SVG `href`/`xlink:href`. Absolute `http(s)://` and protocol-relative
//! URLs are proxied; relative URLs (already same-origin) and
//! non-fetchable schemes (`data:`, `javascript:`, `mailto:`, …) pass
//! through untouched.

use crate::engine::IssuedPageToken;
use crate::rewrite::ProbeManifest;
use crate::scan::{find_byte, find_ci, partial_suffix};
use serde::{Deserialize, Serialize};

/// Cap on every hold buffer in the streaming rewriter. A document that
/// keeps an injection decision open past this many bytes gets the
/// decision forced at the cap instead of buffering the page.
pub const MAX_HELD_BYTES: usize = 64 * 1024;

/// First-party asset-proxy rewriting: when set, every external asset
/// URL on the trusted-server attribute surface is rewritten to
/// `{endpoint}?u=<percent-encoded original>`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssetProxyConfig {
    /// Path (or absolute URL) of the first-party proxy endpoint.
    pub endpoint: String,
}

impl AssetProxyConfig {
    /// Proxy through `endpoint` (e.g. `/assets/fetch`).
    pub fn new(endpoint: impl Into<String>) -> AssetProxyConfig {
        AssetProxyConfig {
            endpoint: endpoint.into(),
        }
    }
}

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

/// The injection half of the scanner: places `head_inject`, `body_attr`,
/// and `body_inject` with exactly the buffered `inject()` semantics,
/// holding only what is still unresolved.
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
    /// Bytes this layer injected (the manifest overhead contribution).
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

    fn push(&mut self, data: &[u8], out: &mut Vec<u8>) {
        if self.is_passthrough() {
            out.extend_from_slice(data);
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
    /// a pure copy.
    fn is_passthrough(&self) -> bool {
        self.phase == Phase::Passthrough && self.held.is_empty()
    }

    fn finish(&mut self, out: &mut Vec<u8>) {
        self.scan_held(out, true);
    }

    fn scan_held(&mut self, out: &mut Vec<u8>, eof: bool) {
        let held = std::mem::take(&mut self.held);
        let resolved = self.scan(&held, out, eof);
        self.held = held;
        self.held.drain(..resolved);
    }

    fn emit_injection(&mut self, which: Which, out: &mut Vec<u8>) {
        let markup = match which {
            Which::Head => &self.head_inject,
            Which::BodyAttr => &self.body_attr,
            Which::BodyEnd => &self.body_inject,
        };
        out.extend_from_slice(markup);
        self.injected += markup.len();
    }

    /// Runs the state machine over `buf` — everything unresolved so far,
    /// carried-over bytes first — and appends what resolves to `out`.
    /// Returns how many leading bytes of `buf` were resolved; the caller
    /// keeps the rest for the next call. The scan cursors index into
    /// that unresolved window (`buf[resolved..]`), which is what `held`
    /// will hold between calls.
    fn scan(&mut self, buf: &[u8], out: &mut Vec<u8>, eof: bool) -> usize {
        let mut resolved = 0;
        loop {
            let win = &buf[resolved..];
            match self.phase {
                Phase::Head => {
                    if let Some(i) = find_ci(win, self.head_scan, HEAD_END) {
                        out.extend_from_slice(&win[..i]);
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
                            out.extend_from_slice(&win[..j]);
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
                        out.extend_from_slice(&win[..after]);
                        self.emit_injection(Which::BodyAttr, out);
                        resolved += after;
                        self.scan = 0;
                        self.phase = Phase::SeekBodyEnd;
                        continue;
                    }
                    if eof {
                        out.extend_from_slice(win);
                        self.emit_injection(Which::BodyEnd, out);
                        self.phase = Phase::Passthrough;
                        return buf.len();
                    }
                    let flush = win.len() - partial_suffix(win, BODY_OPEN);
                    out.extend_from_slice(&win[..flush]);
                    self.scan = 0;
                    return resolved + flush;
                }
                Phase::SeekBodyEnd => {
                    if let Some(i) = find_ci(win, self.scan, BODY_END) {
                        out.extend_from_slice(&win[..i]);
                        resolved += i;
                        self.scan = 1; // the candidate itself sits at 0
                        self.phase = Phase::HoldTail;
                        continue;
                    }
                    if eof {
                        out.extend_from_slice(win);
                        self.emit_injection(Which::BodyEnd, out);
                        self.phase = Phase::Passthrough;
                        return buf.len();
                    }
                    let flush = win.len() - partial_suffix(win, BODY_END);
                    out.extend_from_slice(&win[..flush]);
                    self.scan = 0;
                    return resolved + flush;
                }
                Phase::HoldTail => {
                    if let Some(i) = find_ci(win, self.scan.max(1), BODY_END) {
                        out.extend_from_slice(&win[..i]);
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
                        out.extend_from_slice(win);
                        self.phase = Phase::Passthrough;
                        return buf.len();
                    }
                    return resolved;
                }
                Phase::Passthrough => {
                    out.extend_from_slice(win);
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

/// What kind of rewriting an attribute's value gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    /// A single URL (`src`, `href`, `data`, …).
    Url,
    /// A `srcset`/`imagesrcset` candidate list.
    Srcset,
    /// Inline CSS (`style=`) — rewrite `url(...)` tokens.
    Css,
}

/// The attribute catalogue: which attributes of which elements carry
/// fetchable URLs (the trusted-server surface).
fn attr_kind(tag: &[u8], attr: &[u8]) -> Option<ValueKind> {
    let is = |name: &[u8]| attr.eq_ignore_ascii_case(name);
    if is(b"style") {
        return Some(ValueKind::Css); // inline CSS on any element
    }
    let tag_is = |name: &[u8]| tag.eq_ignore_ascii_case(name);
    if tag_is(b"img") {
        if is(b"src") || is(b"data-src") {
            return Some(ValueKind::Url);
        }
        if is(b"srcset") {
            return Some(ValueKind::Srcset);
        }
    } else if tag_is(b"source") {
        if is(b"src") {
            return Some(ValueKind::Url);
        }
        if is(b"srcset") {
            return Some(ValueKind::Srcset);
        }
    } else if tag_is(b"link") {
        if is(b"href") {
            return Some(ValueKind::Url);
        }
        if is(b"imagesrcset") {
            return Some(ValueKind::Srcset);
        }
    } else if tag_is(b"script")
        || tag_is(b"video")
        || tag_is(b"audio")
        || tag_is(b"embed")
        || tag_is(b"input")
        || tag_is(b"iframe")
    {
        if is(b"src") {
            return Some(ValueKind::Url);
        }
    } else if tag_is(b"object") {
        if is(b"data") {
            return Some(ValueKind::Url);
        }
    } else if (tag_is(b"image") || tag_is(b"use")) && (is(b"href") || is(b"xlink:href")) {
        return Some(ValueKind::Url);
    }
    None
}

/// Percent-encodes everything outside the RFC 3986 unreserved set.
fn percent_encode(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + raw.len() / 2);
    for &b in raw.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Internal slice size for [`AssetRewriter::push`]: large writes are
/// processed in pieces this big so the working buffer (and with it the
/// `peak_held` gauge) stays chunk-sized even when the caller hands over
/// a whole page at once.
const PUSH_SLICE: usize = 16 * 1024;

/// Scanner state of the asset-rewriting layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AState {
    /// Between tags.
    Text,
    /// Buffering a tag from `<` to its quote-aware `>`.
    Tag,
    /// An oversized tag being streamed raw; still scanning for its `>`.
    TagOverflow,
    /// Raw text to the closing token: `<style>` content (buffered so its
    /// CSS can be rewritten) or `<script>`/comment content (streamed).
    RawText,
}

/// The asset-proxy half of the scanner: a tag/attribute state machine
/// that tolerates tokens split across arbitrary chunk boundaries and
/// rewrites the catalogued URL attributes as each element completes.
#[derive(Debug)]
struct AssetRewriter {
    endpoint: String,
    state: AState,
    /// Working buffer; `pending[start..]` is the unconsumed input (only
    /// ever one unfinished token deep).
    pending: Vec<u8>,
    /// Consumed offset into `pending`. Emitting a token advances this
    /// instead of `drain`ing the tail down — one memmove per processed
    /// chunk instead of one per token. Zero between calls.
    start: usize,
    /// Quote state while scanning a tag for its terminator.
    quote: Option<u8>,
    /// Absolute scan cursor into `pending` for the current token
    /// (always `>= start`).
    cursor: usize,
    /// Raw-text terminator (`</style`, `</script`, `-->`) and whether the
    /// content is CSS to rewrite (style) or opaque (script, comment).
    raw_end: &'static [u8],
    raw_css: bool,
    /// Bytes grown by URL rewrites (overhead contribution).
    grown: usize,
    peak_held: usize,
}

impl AssetRewriter {
    fn new(config: &AssetProxyConfig) -> AssetRewriter {
        AssetRewriter {
            endpoint: config.endpoint.clone(),
            state: AState::Text,
            pending: Vec::new(),
            start: 0,
            quote: None,
            cursor: 0,
            raw_end: b"",
            raw_css: false,
            grown: 0,
            peak_held: 0,
        }
    }

    fn push(&mut self, data: &[u8], out: &mut Vec<u8>) {
        // The working buffer stays chunk-sized regardless of how the
        // caller batches its writes, so `peak_held` keeps measuring
        // held-back bytes (not caller batch size) even when the
        // buffered `build_page` path hands a whole page over at once.
        for piece in data.chunks(PUSH_SLICE.max(1)) {
            self.pending.extend_from_slice(piece);
            self.peak_held = self.peak_held.max(self.pending.len());
            self.process(out, false);
        }
    }

    fn finish(&mut self, out: &mut Vec<u8>) {
        self.process(out, true);
        // Unfinished token at EOF (unclosed tag, unterminated style or
        // script): flush raw — never swallow origin bytes.
        out.extend_from_slice(&self.pending);
        self.pending.clear();
    }

    fn process(&mut self, out: &mut Vec<u8>, eof: bool) {
        self.scan(out, eof);
        // Tokens advanced `start` through the buffer without touching
        // the tail; shift the unconsumed remainder down once per call —
        // O(chunk) total, instead of the former O(pending) `drain`
        // memmove on every emitted token.
        if self.start > 0 {
            self.pending.drain(..self.start);
            self.cursor = self.cursor.saturating_sub(self.start);
            self.start = 0;
        }
    }

    fn scan(&mut self, out: &mut Vec<u8>, eof: bool) {
        loop {
            match self.state {
                AState::Text => match find_byte(&self.pending, self.start, b'<') {
                    None => {
                        out.extend_from_slice(&self.pending[self.start..]);
                        self.pending.clear();
                        self.start = 0;
                        self.cursor = 0;
                        return;
                    }
                    Some(lt) => {
                        out.extend_from_slice(&self.pending[self.start..lt]);
                        self.start = lt;
                        self.state = AState::Tag;
                        self.quote = None;
                        self.cursor = lt + 1;
                    }
                },
                AState::Tag => {
                    let held = self.pending.len() - self.start;
                    // A comment is not a tag: `<!--` opens raw text that
                    // a quote-blind `>` scan would mis-terminate.
                    if held >= 4 && self.pending[self.start..].starts_with(b"<!--") {
                        out.extend_from_slice(b"<!--");
                        self.start += 4;
                        self.state = AState::RawText;
                        self.raw_end = b"-->";
                        self.raw_css = false;
                        self.cursor = self.start;
                        continue;
                    }
                    if held < 4 && !eof {
                        return; // could still become `<!--`
                    }
                    match self.tag_terminator() {
                        Some(end) => {
                            self.emit_tag(end, out);
                            continue;
                        }
                        None => {
                            if self.pending.len() - self.start >= MAX_HELD_BYTES {
                                out.extend_from_slice(&self.pending[self.start..]);
                                self.pending.clear();
                                self.start = 0;
                                self.cursor = 0;
                                self.state = AState::TagOverflow;
                                continue;
                            }
                            return;
                        }
                    }
                }
                AState::TagOverflow => match self.tag_terminator() {
                    Some(end) => {
                        out.extend_from_slice(&self.pending[self.start..end]);
                        self.start = end;
                        self.cursor = end;
                        self.state = AState::Text;
                    }
                    None => {
                        out.extend_from_slice(&self.pending[self.start..]);
                        self.pending.clear();
                        self.start = 0;
                        self.cursor = 0;
                        return;
                    }
                },
                AState::RawText => {
                    if let Some(p) = find_ci(&self.pending, self.cursor, self.raw_end) {
                        if self.raw_css {
                            let content = std::str::from_utf8(&self.pending[self.start..p])
                                .ok()
                                .and_then(|css| self.rewrite_css(css));
                            match content {
                                Some(rewritten) => {
                                    self.grown += rewritten.len() - (p - self.start);
                                    out.extend_from_slice(rewritten.as_bytes());
                                }
                                None => out.extend_from_slice(&self.pending[self.start..p]),
                            }
                        } else {
                            out.extend_from_slice(&self.pending[self.start..p]);
                        }
                        self.start = p;
                        self.cursor = p;
                        // The terminator re-enters through Text: `</style`
                        // and `</script` parse as ordinary closing tags,
                        // `-->` is plain text.
                        self.state = AState::Text;
                        continue;
                    }
                    self.cursor = self
                        .pending
                        .len()
                        .saturating_sub(self.raw_end.len() - 1)
                        .max(self.start);
                    if self.raw_css {
                        if self.pending.len() - self.start >= MAX_HELD_BYTES {
                            // Oversized style block: stream it raw.
                            out.extend_from_slice(&self.pending[self.start..]);
                            self.pending.clear();
                            self.start = 0;
                            self.cursor = 0;
                            self.raw_css = false;
                        }
                        return;
                    }
                    // Opaque raw text streams, holding back only a
                    // possible terminator prefix.
                    out.extend_from_slice(&self.pending[self.start..self.cursor]);
                    self.start = self.cursor;
                    return;
                }
            }
        }
    }

    /// Quote-aware scan for the `>` ending the tag at `pending[start..]`;
    /// returns the end offset (one past `>`). Persists progress in
    /// `cursor`/`quote` across chunks.
    fn tag_terminator(&mut self) -> Option<usize> {
        while self.cursor < self.pending.len() {
            let b = self.pending[self.cursor];
            self.cursor += 1;
            match self.quote {
                Some(q) => {
                    if b == q {
                        self.quote = None;
                    }
                }
                None => match b {
                    b'"' | b'\'' => self.quote = Some(b),
                    b'>' => return Some(self.cursor),
                    _ => {}
                },
            }
        }
        None
    }

    /// A complete tag sits in `pending[start..end]`: rewrite its catalogued
    /// attributes, emit it, and transition (style/script open raw text).
    fn emit_tag(&mut self, end: usize, out: &mut Vec<u8>) {
        let tag_len = end - self.start;
        let (name, closing) = tag_name(&self.pending[self.start..end]);
        let name = name.to_vec();
        let self_closing = tag_len >= 2 && self.pending[end - 2] == b'/';
        if !closing {
            if let Some(rewritten) = self.rewrite_tag(&name, &self.pending[self.start..end]) {
                self.grown += rewritten.len() - tag_len;
                out.extend_from_slice(&rewritten);
            } else {
                out.extend_from_slice(&self.pending[self.start..end]);
            }
        } else {
            out.extend_from_slice(&self.pending[self.start..end]);
        }
        self.start = end;
        self.cursor = end;
        self.quote = None;
        if !closing && !self_closing && name.eq_ignore_ascii_case(b"style") {
            self.state = AState::RawText;
            self.raw_end = b"</style";
            self.raw_css = true;
        } else if !closing && !self_closing && name.eq_ignore_ascii_case(b"script") {
            self.state = AState::RawText;
            self.raw_end = b"</script";
            self.raw_css = false;
        } else {
            self.state = AState::Text;
        }
    }

    /// Rewrites the catalogued URL attributes of one complete tag.
    /// `None` means the tag is unchanged.
    fn rewrite_tag(&self, name: &[u8], tag: &[u8]) -> Option<Vec<u8>> {
        let mut out: Option<Vec<u8>> = None;
        let mut copied = 0; // how much of `tag` is already in `out`
        let mut i = 1 + name.len();
        while i < tag.len() {
            // Skip to the next attribute name.
            while i < tag.len() && (tag[i].is_ascii_whitespace() || tag[i] == b'/') {
                i += 1;
            }
            if i >= tag.len() || tag[i] == b'>' {
                break;
            }
            let attr_start = i;
            while i < tag.len() && !tag[i].is_ascii_whitespace() && tag[i] != b'=' && tag[i] != b'>'
            {
                i += 1;
            }
            let attr = &tag[attr_start..i];
            while i < tag.len() && tag[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= tag.len() || tag[i] != b'=' {
                continue; // valueless attribute
            }
            i += 1;
            while i < tag.len() && tag[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= tag.len() {
                break;
            }
            let (value_start, value_end) = match tag[i] {
                q @ (b'"' | b'\'') => {
                    let start = i + 1;
                    let end = tag[start..]
                        .iter()
                        .position(|&b| b == q)
                        .map(|p| start + p)
                        .unwrap_or(tag.len());
                    i = (end + 1).min(tag.len());
                    (start, end)
                }
                _ => {
                    let start = i;
                    while i < tag.len() && !tag[i].is_ascii_whitespace() && tag[i] != b'>' {
                        i += 1;
                    }
                    (start, i)
                }
            };
            let Some(kind) = attr_kind(name, attr) else {
                continue;
            };
            let Ok(value) = std::str::from_utf8(&tag[value_start..value_end]) else {
                continue;
            };
            let replaced = match kind {
                ValueKind::Url => self.rewrite_url(value.trim()),
                ValueKind::Srcset => self.rewrite_srcset(value),
                ValueKind::Css => self.rewrite_css(value),
            };
            if let Some(new_value) = replaced {
                let buf = out.get_or_insert_with(|| Vec::with_capacity(tag.len() + 64));
                buf.extend_from_slice(&tag[copied..value_start]);
                buf.extend_from_slice(new_value.as_bytes());
                copied = value_end;
            }
        }
        let mut buf = out?;
        buf.extend_from_slice(&tag[copied..]);
        Some(buf)
    }

    /// Proxies one URL, or `None` when it should pass through (relative,
    /// fragment-only, or a non-fetchable scheme).
    fn rewrite_url(&self, url: &str) -> Option<String> {
        if url.is_empty() || url.starts_with('#') {
            return None;
        }
        // Proxy protocol-relative and http(s) URLs; leave relative URLs
        // (already same-origin) and non-fetchable schemes (data:,
        // javascript:, mailto:, tel:, blob:, about:, …) untouched.
        let scheme = url
            .split(['/', '?', '#'])
            .next()
            .and_then(|first| first.split_once(':'))
            .map(|(scheme, _)| scheme.to_ascii_lowercase());
        let absolute = url.starts_with("//") || matches!(scheme.as_deref(), Some("http" | "https"));
        absolute.then(|| format!("{}?u={}", self.endpoint, percent_encode(url)))
    }

    /// Rewrites a `srcset`/`imagesrcset` candidate list, preserving
    /// descriptors and separators byte-for-byte. A `data:` candidate
    /// extends to the next *whitespace* — its mediatype/payload commas
    /// do not end it.
    fn rewrite_srcset(&self, value: &str) -> Option<String> {
        let bytes = value.as_bytes();
        let mut out = String::with_capacity(value.len() + 64);
        let mut changed = false;
        let mut i = 0;
        while i < bytes.len() {
            // Separators (whitespace and commas) copy verbatim.
            while i < bytes.len() && (bytes[i].is_ascii_whitespace() || bytes[i] == b',') {
                out.push(bytes[i] as char);
                i += 1;
            }
            if i >= bytes.len() {
                break;
            }
            let start = i;
            let is_data = value[i..].len() >= 5 && value[i..i + 5].eq_ignore_ascii_case("data:");
            while i < bytes.len()
                && !bytes[i].is_ascii_whitespace()
                && (is_data || bytes[i] != b',')
            {
                i += 1;
            }
            let url = &value[start..i];
            match self.rewrite_url(url) {
                Some(proxied) => {
                    out.push_str(&proxied);
                    changed = true;
                }
                None => out.push_str(url),
            }
            // Descriptor (e.g. ` 2x`, ` 640w`): verbatim to the comma.
            let desc_start = i;
            while i < bytes.len() && bytes[i] != b',' {
                i += 1;
            }
            out.push_str(&value[desc_start..i]);
        }
        changed.then_some(out)
    }

    /// Rewrites `url(...)` tokens in CSS (a `<style>` block or an inline
    /// `style=` value). Quoting inside the token is preserved.
    fn rewrite_css(&self, css: &str) -> Option<String> {
        let bytes = css.as_bytes();
        let mut out = String::with_capacity(css.len() + 64);
        let mut changed = false;
        let mut copied = 0;
        let mut i = 0;
        while let Some(p) = find_ci(bytes, i, b"url(") {
            let mut j = p + 4;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let quote = match bytes.get(j) {
                Some(&q @ (b'"' | b'\'')) => {
                    j += 1;
                    Some(q)
                }
                _ => None,
            };
            let url_start = j;
            while j < bytes.len() {
                let b = bytes[j];
                let ends = match quote {
                    Some(q) => b == q,
                    None => b == b')' || b.is_ascii_whitespace(),
                };
                if ends {
                    break;
                }
                j += 1;
            }
            if let Some(proxied) = std::str::from_utf8(&bytes[url_start..j])
                .ok()
                .and_then(|url| self.rewrite_url(url.trim()))
            {
                out.push_str(&css[copied..url_start]);
                out.push_str(&proxied);
                copied = j;
                changed = true;
            }
            i = j.max(p + 4);
        }
        if !changed {
            return None;
        }
        out.push_str(&css[copied..]);
        Some(out)
    }
}

/// The element name of a complete tag (lowercase comparison is the
/// caller's job) and whether it is a closing tag.
fn tag_name(tag: &[u8]) -> (&[u8], bool) {
    let closing = tag.len() > 1 && tag[1] == b'/';
    let start = if closing { 2 } else { 1 };
    let end = tag[start..]
        .iter()
        .position(|&b| b.is_ascii_whitespace() || b == b'>' || b == b'/')
        .map(|p| start + p)
        .unwrap_or(tag.len());
    (&tag[start..end], closing)
}

/// One in-flight streaming page rewrite, produced by
/// [`crate::RewriteEngine::begin_stream`]: chunk in → chunk out →
/// [`StreamingRewrite::finish`] yields the manifest and issued token.
/// Owns every piece of its state (no borrow of the engine), so it can
/// ride inside a connection slot across event-loop turns.
#[derive(Debug)]
pub struct StreamingRewrite {
    injector: Injector,
    assets: Option<AssetRewriter>,
    manifest: ProbeManifest,
    token: Option<IssuedPageToken>,
    scratch: Vec<u8>,
}

impl StreamingRewrite {
    pub(crate) fn new(
        head_inject: String,
        body_attr: String,
        body_inject: String,
        manifest: ProbeManifest,
        token: Option<IssuedPageToken>,
        asset_proxy: Option<&AssetProxyConfig>,
    ) -> StreamingRewrite {
        StreamingRewrite {
            injector: Injector::new(head_inject, body_attr, body_inject),
            assets: asset_proxy.map(AssetRewriter::new),
            manifest,
            token,
            scratch: Vec::new(),
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

    /// Feeds one origin chunk in; rewritten bytes are appended to `out`
    /// as soon as they are resolved.
    pub fn write(&mut self, chunk: &[u8], out: &mut Vec<u8>) {
        match &mut self.assets {
            // Once the injector has placed everything and holds nothing,
            // its `push` is a pure copy — let the asset layer write
            // straight into `out` and skip the scratch hop.
            Some(assets) if self.injector.is_passthrough() => assets.push(chunk, out),
            Some(assets) => {
                self.scratch.clear();
                assets.push(chunk, &mut self.scratch);
                self.injector.push(&self.scratch, out);
            }
            None => self.injector.push(chunk, out),
        }
    }

    /// Bytes currently held back waiting for an unresolved token or
    /// injection point.
    pub fn buffered(&self) -> usize {
        self.injector.held.len() + self.assets.as_ref().map_or(0, |a| a.pending.len())
    }

    /// High-water mark of [`StreamingRewrite::buffered`] — the gauge the
    /// O(chunk) memory claim is asserted on.
    pub fn peak_buffered(&self) -> usize {
        self.injector.peak_held + self.assets.as_ref().map_or(0, |a| a.peak_held)
    }

    /// Ends the stream: emits everything still held (placing any
    /// injection whose anchor never arrived) and yields the manifest —
    /// with `html_overhead` counted at the injection sites — plus the
    /// issued token.
    pub fn finish(mut self, out: &mut Vec<u8>) -> FinishedStream {
        if let Some(assets) = &mut self.assets {
            self.scratch.clear();
            assets.finish(&mut self.scratch);
            self.injector.push(&self.scratch, out);
        }
        self.injector.finish(out);
        self.manifest.html_overhead =
            self.injector.injected + self.assets.as_ref().map_or(0, |a| a.grown);
        FinishedStream {
            manifest: self.manifest,
            token: self.token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FULL_COMPARES;
    use proptest::collection::vec;
    use proptest::prelude::*;

    // ---- asset-proxy surface -------------------------------------------

    /// Runs the asset rewriter alone over `html` in `chunk`-byte pieces.
    fn proxy_chunked(html: &str, chunk: usize) -> String {
        let config = AssetProxyConfig::new("/assets/fetch");
        let mut rw = AssetRewriter::new(&config);
        let mut out = Vec::new();
        for piece in html.as_bytes().chunks(chunk.max(1)) {
            rw.push(piece, &mut out);
        }
        rw.finish(&mut out);
        String::from_utf8(out).unwrap()
    }

    /// One-shot rewrite, cross-checked against every small chunking —
    /// a boundary inside a tag name, an attribute value, a srcset
    /// candidate, or a UTF-8 sequence must not change the output.
    fn proxy(html: &str) -> String {
        let whole = proxy_chunked(html, html.len().max(1));
        for chunk in 1..=7 {
            assert_eq!(
                proxy_chunked(html, chunk),
                whole,
                "chunk size {chunk} diverged from one-shot rewrite"
            );
        }
        whole
    }

    fn proxied(url: &str) -> String {
        format!("/assets/fetch?u={}", percent_encode(url))
    }

    #[test]
    fn img_src_is_proxied_descriptors_preserved_in_srcset() {
        let out = proxy(
            "<img src=\"http://cdn.example/a.png\" \
             srcset=\"http://cdn.example/a.png 1x, pics/b.png 2x,\thttps://cdn.example/c.png 640w\">",
        );
        assert!(out.contains(&proxied("http://cdn.example/a.png")));
        // Relative candidate passes through; descriptors and separators
        // are byte-identical.
        assert!(out.contains(" 1x, pics/b.png 2x,\t"));
        assert!(out.contains(&format!("{} 640w", proxied("https://cdn.example/c.png"))));
    }

    #[test]
    fn data_uri_comma_does_not_end_a_srcset_candidate() {
        let data = "data:image/png;base64,iVBORw0KGgo=";
        let out = proxy(&format!(
            "<img srcset=\"{data} 1x, http://cdn.example/big.png 2x\">"
        ));
        // The data: candidate survives untouched, comma and all, and the
        // *next* candidate is still found and proxied.
        assert!(out.contains(&format!("{data} 1x, ")));
        assert!(out.contains(&format!("{} 2x", proxied("http://cdn.example/big.png"))));
    }

    #[test]
    fn css_urls_rewritten_in_style_blocks_and_inline_style() {
        let out = proxy(
            "<style>p { background: url( \"http://cdn.example/bg.png\" ); }</style>\
             <div style='background: url(\"https://cdn.example/i.png\"); color: red'>x</div>",
        );
        assert!(out.contains(&format!(
            "url( \"{}\" )",
            proxied("http://cdn.example/bg.png")
        )));
        // Inline style= with nested double quotes inside single quotes.
        assert!(out.contains(&format!(
            "style='background: url(\"{}\"); color: red'",
            proxied("https://cdn.example/i.png")
        )));
    }

    #[test]
    fn svg_href_and_xlink_href_are_proxied() {
        let out = proxy(
            "<svg><use xlink:href=\"http://cdn.example/s.svg#icon\"/>\
             <image href=\"//cdn.example/pic.jpg\"/></svg>",
        );
        assert!(out.contains(&proxied("http://cdn.example/s.svg#icon")));
        assert!(out.contains(&proxied("//cdn.example/pic.jpg")));
        // The bare <svg> and <use>/<image> structure is otherwise intact.
        assert!(out.starts_with("<svg><use xlink:href="));
    }

    #[test]
    fn source_object_link_and_media_elements_are_covered() {
        let out = proxy(
            "<source src=\"http://m.example/v.mp4\" srcset=\"http://m.example/v.webp 1x\">\
             <object data=\"http://m.example/o.swf\"></object>\
             <link href=\"http://m.example/l.css\" imagesrcset=\"http://m.example/p.png 2x\">\
             <video src=\"http://m.example/w.mp4\"></video>\
             <iframe src=\"http://m.example/f.html\"></iframe>",
        );
        for url in [
            "http://m.example/v.mp4",
            "http://m.example/v.webp",
            "http://m.example/o.swf",
            "http://m.example/l.css",
            "http://m.example/p.png",
            "http://m.example/w.mp4",
            "http://m.example/f.html",
        ] {
            assert!(out.contains(&proxied(url)), "missing proxied {url}");
        }
    }

    #[test]
    fn script_bodies_and_comments_are_opaque() {
        let html = "<script src=\"http://cdn.example/app.js\">\
                    var a = '<img src=\"http://cdn.example/in-js.png\">';</script>\
                    <!-- <img src=\"http://cdn.example/in-comment.png\"> -->";
        let out = proxy(html);
        // The script *attribute* is proxied; the script *content* and the
        // comment content are untouched.
        assert!(out.contains(&proxied("http://cdn.example/app.js")));
        assert!(out.contains("var a = '<img src=\"http://cdn.example/in-js.png\">';"));
        assert!(out.contains("<!-- <img src=\"http://cdn.example/in-comment.png\"> -->"));
    }

    #[test]
    fn relative_urls_and_nonfetchable_schemes_pass_through() {
        let html = "<img src=\"pics/local.png\">\
                    <img src=\"data:image/gif;base64,R0lGOD==\">\
                    <a href=\"javascript:void(0)\">x</a>\
                    <img src=\"#frag\">\
                    <img src=\"mailto:a@b.example\">";
        assert_eq!(proxy(html), html);
    }

    #[test]
    fn unclosed_tag_at_eof_is_flushed_raw() {
        // EOF mid-tag, mid-style, and mid-comment: the rewriter never
        // swallows origin bytes.
        for html in [
            "text <img src=\"http://cdn.example/a.png",
            "<style>p { background: url(http://cdn.example/bg.png",
            "<!-- never closed",
            "<",
        ] {
            assert_eq!(proxy(html), html, "EOF flush changed {html:?}");
        }
    }

    #[test]
    fn grown_matches_output_growth() {
        let html = "<img src=\"http://cdn.example/a.png\"> plain \
                    <style>q{background:url(http://cdn.example/b.png)}</style>";
        let config = AssetProxyConfig::new("/assets/fetch");
        let mut rw = AssetRewriter::new(&config);
        let mut out = Vec::new();
        rw.push(html.as_bytes(), &mut out);
        rw.finish(&mut out);
        assert_eq!(rw.grown, out.len() - html.len());
    }

    #[test]
    fn oversized_tag_streams_without_unbounded_buffering() {
        // A "tag" whose terminator never comes within the cap: the
        // rewriter overflows to raw streaming instead of buffering it.
        let mut html = String::from("<img src=\"http://cdn.example/a.png\" alt=\"");
        html.push_str(&"x".repeat(2 * MAX_HELD_BYTES));
        let config = AssetProxyConfig::new("/assets/fetch");
        let mut rw = AssetRewriter::new(&config);
        let mut out = Vec::new();
        for piece in html.as_bytes().chunks(1024) {
            rw.push(piece, &mut out);
        }
        rw.finish(&mut out);
        assert!(rw.peak_held <= MAX_HELD_BYTES + 1024);
        assert_eq!(String::from_utf8(out).unwrap(), html);
    }

    // ---- injection placement -------------------------------------------

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
