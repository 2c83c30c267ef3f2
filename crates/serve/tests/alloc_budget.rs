//! What the heap pays for a request the gate answers alone, counted
//! where it is paid. This file is its own crate root, outside the
//! libraries' `#![forbid(unsafe_code)]`, so it can install a counting
//! allocator: every allocation made on a thread that has a tally set is
//! counted into it, and only the server's one reactor thread (and, for
//! the codec case, the test's own) has one.
//!
//! Counted per request, on a warm keep-alive connection, across the
//! whole of read → gate → staged write → write: the four answers the
//! benchmark's `gate_only` mix sends (a `403` to a blocked robot, and a
//! verified human's CSS probe, pixel and script), and a streamed 64 KB
//! page from each of three origins. Release CI runs it beside the
//! system-call budget; the counts are printed either way.

mod support;

use botwall_http::request::ClientIp;
use botwall_http::{wire, Method};
use botwall_serve::frame::MAX_FRAME_BYTES;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use support::{exchange, get, Fixture};

/// Allocations (fresh or grown) and the bytes they asked for.
struct Tally {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl Tally {
    const fn new() -> Tally {
        Tally {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn read(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::SeqCst),
            self.bytes.load(Ordering::SeqCst),
        )
    }
}

thread_local! {
    /// The tally this thread's allocations go to, if any.
    static TALLY: Cell<Option<&'static Tally>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    if let Ok(Some(tally)) = TALLY.try_with(Cell::get) {
        tally.allocs.fetch_add(1, Ordering::Relaxed);
        tally.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is passed straight to `System` with the arguments
// it came with; the counting beside it touches only atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The server thread's tally.
static SERVER: Tally = Tally::new();

/// Requests measured per answer, after as many again to warm up.
const REQUESTS: u64 = 256;

/// The most a gate-only answer may allocate, per request, on average:
/// nothing. The session key is looked up by the request's borrowed
/// parts, so a known key is not copied.
const BUDGET: f64 = 0.0;

#[test]
fn a_gate_answered_request_allocates_nothing() {
    let fx = Fixture::start(|_| {}, || TALLY.with(|t| t.set(Some(&SERVER))));
    // A verified human: page, script, mouse beacon.
    let human = "Mozilla/5.0 alloc-human";
    let mut conn = fx.connect();
    let probes = support::browse(&mut conn, human);
    exchange(&mut conn, &get(&probes.mouse_beacon, human, false));
    // A robot the policy blocks.
    let robot = "scraper/1.0 alloc-robot";
    support::page(&mut conn, robot);
    let key = botwall_sessions::SessionKey::new(ClientIp::new(0x7f00_0001), robot);
    fx.gateway
        .detector()
        .with_key_state(&key, |_, state| state.policy.block());

    let mut counts = Vec::new();
    for (answer, request, status) in [
        (
            "403 to a blocked robot",
            get("/index.html", robot, false),
            "403",
        ),
        ("CSS probe", get(&probes.css, human, false), "200"),
        ("pixel", get(&probes.pixel, human, false), "200"),
        ("script", get(&probes.script, human, false), "200"),
    ] {
        let mut measure = || {
            let before = SERVER.read();
            for _ in 0..REQUESTS {
                let raw = exchange(&mut conn, &request);
                assert!(raw.starts_with(format!("HTTP/1.1 {status}").as_bytes()));
            }
            let after = SERVER.read();
            (after.0 - before.0, after.1 - before.1)
        };
        measure();
        let (allocs, bytes) = measure();
        let per_request = allocs as f64 / REQUESTS as f64;
        println!(
            "{answer}: {per_request:.2} allocations, {:.0} bytes per request",
            bytes as f64 / REQUESTS as f64
        );
        counts.push((answer, per_request));
    }
    drop(conn);
    fx.finish();
    for (answer, per_request) in counts {
        assert!(
            per_request <= BUDGET,
            "{answer}: {per_request:.2} allocations per request, over {BUDGET}"
        );
    }
}

/// The server thread's tally while it streams pages.
static STREAM: Tally = Tally::new();

/// Pages measured per origin, after as many again to warm up.
const PAGES: u64 = 128;

/// What a streamed page allocated per page when these budgets were last
/// set (the median of thirty release runs of this test), for each origin
/// [`a_streamed_page_allocates_what_it_did`] holds to it, and the slack
/// a run's timing moves the count by (a read split differently or a
/// buffer grown, a sweep tick). The slack is the widest run-to-run spread
/// seen over thirty release and thirty unoptimised runs on a 2-CPU Xeon
/// VM, plus one: the 8 KB-chunked origin reads either at its median or
/// ~2.9 above it, and an unoptimised build reads up to ~3 higher from
/// the byte-a-chunk origin (16.50-17.25 in ten unoptimised runs against
/// 14.50-15.75 in thirty release runs, measured with these medians).
/// Most of what is left is the owned request a lease builds and the
/// page's one markup buffer; the page's beacon token, its decoys
/// inline, is copied into its session's entry list, which takes no
/// block of its own (a token entry keeps no page path). The medians
/// were [14.92, 15.15, 16.88] while the token kept its decoys in a
/// list of their own, which the rewriter kept and issued into the
/// session as a copy: two blocks a page.
const BEFORE: [f64; 3] = [12.85, 13.04, 15.00];
const SLACK: f64 = 4.0;

/// A verified human's 64 KB page, streamed through the rewriter from an
/// origin that declares its length, from one that sends 8 KB chunks and
/// from one that sends a byte a chunk (fewer pages: it takes three
/// writes a byte): no more allocations per page than before. The last
/// costs what the others do: no origin read allocates (the fetch's box
/// goes back into its slot, a vectored write's list is on the stack),
/// and the runs the rewriter is handed stay in a list capped at 32
/// (`origin::tests`).
#[test]
fn a_streamed_page_allocates_what_it_did() {
    let fx = Fixture::start(|_| {}, || TALLY.with(|t| t.set(Some(&STREAM))));
    let human = "Mozilla/5.0 alloc-pages";
    let mut conn = fx.connect();
    let probes = support::browse(&mut conn, human);
    exchange(&mut conn, &get(&probes.mouse_beacon, human, false));
    let origin_page = support::big_page();
    let mut counts = Vec::new();
    for (path, pages) in support::BIG_PATHS.into_iter().zip([PAGES, PAGES, 4]) {
        let mut measure = || {
            let before = STREAM.read();
            for _ in 0..pages {
                let page = support::page_at(&mut conn, path, human);
                assert!(page.len() > origin_page.len() && page.contains("onmousemove"));
            }
            let after = STREAM.read();
            (after.0 - before.0, after.1 - before.1)
        };
        measure();
        let (allocs, bytes) = measure();
        let per_page = allocs as f64 / pages as f64;
        counts.push((path, per_page));
        println!(
            "{path}: {per_page:.2} allocations, {:.0} bytes per page",
            bytes as f64 / pages as f64
        );
    }
    drop(conn);
    fx.finish();
    for ((path, per_page), before) in counts.into_iter().zip(BEFORE) {
        println!("{path}: {before:.2} allocations per page before");
        assert!(
            per_page <= before + SLACK,
            "{path}: {per_page:.2} allocations per page, {before:.2} before"
        );
    }
}

/// The codec's budget for a request body arriving in pieces.
static CODEC: Tally = Tally::new();

/// A 1 MB chunked body arriving 1 KiB per read: the front door calls
/// the codec on everything buffered at every read. Reading in place, a
/// call on a body still arriving measures it and copies nothing; the one
/// copy is the owned request, made once the body is whole (and only if
/// the gate leases it). The same loop over `wire::read_request`, which
/// copied the partial body on every call, allocated ~1.3 GB on the
/// parent of this change.
#[test]
fn a_chunked_body_arriving_in_pieces_is_copied_once() {
    let mut raw =
        b"POST /upload HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    for _ in 0..1000 {
        raw.extend_from_slice(format!("{:x}\r\n", 1000).as_bytes());
        raw.extend_from_slice(&[b'x'; 1000]);
        raw.extend_from_slice(b"\r\n");
    }
    raw.extend_from_slice(b"0\r\n\r\n");
    assert!(raw.len() < MAX_FRAME_BYTES);
    let peer = ClientIp::new(1);
    let (mut calls, mut whole) = (0, None);
    TALLY.with(|t| t.set(Some(&CODEC)));
    for end in (1024..raw.len()).step_by(1024).chain([raw.len()]) {
        calls += 1;
        if let Some(read) = wire::read_incoming(&raw[..end], peer).unwrap() {
            whole = Some((read.len(), read.to_request()));
        }
    }
    let (codec_allocs, codec_bytes) = CODEC.read();
    // The library's owned read over the same pieces costs the same.
    for end in (1024..raw.len()).step_by(1024).chain([raw.len()]) {
        if let Some((request, len)) = wire::read_request(&raw[..end], peer).unwrap() {
            assert_eq!(len, raw.len());
            assert_eq!(request.body().len(), 1_000_000);
        }
    }
    TALLY.with(|t| t.set(None));
    let (total_allocs, total_bytes) = CODEC.read();
    let (len, request) = whole.expect("the last read is whole");
    assert_eq!((len, request.method()), (raw.len(), &Method::Post));
    assert_eq!(request.body(), &[b'x'; 1_000_000][..]);
    println!(
        "{calls} calls: {codec_allocs} allocations, {codec_bytes} bytes in place; \
         {} and {} through read_request",
        total_allocs - codec_allocs,
        total_bytes - codec_bytes
    );
    const MIB: u64 = 1024 * 1024;
    assert!(codec_bytes < 4 * MIB, "{codec_bytes} bytes read in place");
    assert!(
        total_bytes - codec_bytes < 4 * MIB,
        "{} bytes through read_request",
        total_bytes - codec_bytes
    );
}
