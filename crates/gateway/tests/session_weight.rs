//! What a live session holds on the heap, counted block by block. This
//! file is its own crate root, outside the libraries'
//! `#![forbid(unsafe_code)]`, so it can install a counting allocator:
//! every allocation and free made on a thread that has a tally set moves
//! that tally's live blocks and bytes, and only a test's own thread sets
//! one, around the requests it weighs.
//!
//! The requests go through the gateway in process (no sockets, no
//! reactor), so whatever a window leaves live is what the gateway kept.

use botwall_core::classifier::Verdict;
use botwall_core::{DetectorConfig, EvidenceSet, KeyState};
use botwall_gateway::{Decision, Gateway, Origin};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request};
use botwall_instrument::TokenState;
use botwall_sessions::{RequestRecord, SeenUrls, Session, SessionKey, SimTime, TrackerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// Blocks and bytes allocated and not yet freed.
struct Live {
    blocks: AtomicI64,
    bytes: AtomicI64,
}

impl Live {
    const fn new() -> Live {
        Live {
            blocks: AtomicI64::new(0),
            bytes: AtomicI64::new(0),
        }
    }

    fn read(&self) -> (i64, i64) {
        (
            self.blocks.load(Ordering::SeqCst),
            self.bytes.load(Ordering::SeqCst),
        )
    }
}

thread_local! {
    /// The tally this thread's allocations and frees go to, if any.
    static TALLY: Cell<Option<&'static Live>> = const { Cell::new(None) };
}

fn count(blocks: i64, bytes: i64) {
    if let Ok(Some(live)) = TALLY.try_with(Cell::get) {
        live.blocks.fetch_add(blocks, Ordering::Relaxed);
        live.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is passed straight to `System` with the arguments
// it came with; the counting beside it touches only atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(0, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-1, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` left live on this thread's heap: `(blocks, bytes)`.
fn weigh(live: &'static Live, f: impl FnOnce()) -> (i64, i64) {
    TALLY.with(|t| t.set(Some(live)));
    let before = live.read();
    f();
    let after = live.read();
    TALLY.with(|t| t.set(None));
    (after.0 - before.0, after.1 - before.1)
}

fn get(uri: &str, agent: &str) -> Request {
    Request::builder(Method::Get, uri)
        .header("User-Agent", agent)
        .client(ClientIp::new(0x0a00_0001))
        .build()
        .unwrap()
}

/// The heap blocks a stranger's session may hold after its first
/// contact: its key's `User-Agent` (one copy, in the session's slab
/// slot; the tracker's index keeps the slot and a hash tag, no key).
/// Its one remembered URL and its one evidence entry are inline in the
/// session and its `KeyState`.
const FIRST_CONTACT_BLOCKS: i64 = 1;

/// The bytes that block may come to: a 16-byte `Arc` header and a
/// ~26-byte agent, 48 bytes measured (the layout rounds to 8). The
/// bound leaves room for a longer agent, not for either list taking a
/// block of its own (the seen set's would be 56 bytes in all, the
/// evidence list's 72).
///
/// Counted bytes are what was asked for; RSS sees malloc's chunks,
/// none smaller than 32 bytes on a 64-bit glibc. While the seen set and
/// the evidence list each took a block for their first item (three
/// blocks, ~80 bytes counted), the 8-byte hash and the 24-byte entry
/// cost a 32-byte chunk each.
///
/// The session's slab slot and index bucket are not in this: they are
/// inline in the tracker's tables, whose growth this median does not
/// see; the slot's parts are pinned by
/// `a_live_sessions_inline_state_is_sized_to_its_common_case`, the
/// bucket at 8 bytes where the sessions crate defines it.
/// `a_full_table_of_strangers_holds_a_stated_heap_per_session` counts
/// them.
const FIRST_CONTACT_BYTES: i64 = 64;

static STRANGERS: Live = Live::new();

/// A harvested CSS probe URL replayed by keys the gateway never saw
/// (the benchmark's `first_contact` traffic): each is answered by the
/// gate alone, and each new session holds one heap block.
#[test]
fn a_strangers_first_contact_holds_one_block() {
    let gw = Gateway::builder().seed(36).build();
    let page = "<html><head></head><body><p>hi</p></body></html>";
    let Decision::Serve { manifest, .. } = gw.handle_with(
        &get("http://site.example/index.html", "Mozilla/5.0 harvester"),
        SimTime::ZERO,
        |_| Origin::Page(page.to_string()),
    ) else {
        panic!("a fresh session's page is served");
    };
    let css = manifest.unwrap().css_probe.unwrap().to_string();
    let stranger = |n: usize| get(&css, &format!("Mozilla/5.0 stranger/{n:05}"));
    let now = SimTime::from_secs(1);
    for n in 0..2_000 {
        let _ = gw.handle_deferred(&stranger(n), now);
    }
    let mut weights: Vec<(i64, i64)> = (2_000..2_064)
        .map(|n| {
            let request = stranger(n);
            let weight = weigh(&STRANGERS, || drop(gw.handle_deferred(&request, now)));
            assert!(
                weight.0 <= FIRST_CONTACT_BLOCKS,
                "stranger {n} left {} blocks, {} bytes",
                weight.0,
                weight.1
            );
            weight
        })
        .collect();
    assert_eq!(gw.stats().live_sessions, 2_065);
    weights.sort_unstable_by_key(|&(_, bytes)| bytes);
    let (blocks, bytes) = weights[weights.len() / 2];
    println!("a stranger's first contact: {blocks} blocks, {bytes} bytes (median)");
    assert!(
        bytes <= FIRST_CONTACT_BYTES,
        "{bytes} bytes, over {FIRST_CONTACT_BYTES}"
    );
}

/// Sessions a full table holds when it is weighed whole: the 100 000
/// the server's tracker is capped at (and the benchmark's
/// `first_contact` fills) in release, a tenth of that under debug
/// assertions, as `tests/capacity.rs` scales.
fn full_table() -> usize {
    if cfg!(debug_assertions) {
        10_000
    } else {
        100_000
    }
}

/// The live heap per session of a table filled to its cap by
/// one-request strangers, the gateway and the tracker's tables
/// included. 332 bytes measured in release, 415 under debug assertions
/// (365 and 456 while the index was a `HashMap` that kept a copy of
/// each key):
///
/// - the slab slot, 208 bytes, and the index bucket, the slot and 32
///   bits of the key's hash, 8 bytes in an index at most seven-eighths
///   full (the key is stored only in the slot; a `HashMap` bucket of
///   key and slot was 32 bytes and a control byte);
/// - the agent, 48 bytes, its only heap block;
/// - the slack a doubling slab and index leave, by where the cap falls:
///   100 000 sessions over 16 shards are 6 250 a shard in 8 192 slots,
///   10 000 are 625 in 1 024.
///
/// The bound is ~5 % over the measurement and below what the `HashMap`
/// index read, so a copy of the key back in the index fails it. Counted
/// bytes are not RSS: malloc rounds each block,
/// with its 8-byte header, up to a 16-byte multiple of at least 32
/// bytes. While the seen set and the evidence list each took a block
/// for their first item, a stranger held three and this read ~20 bytes
/// more (the 8-byte hash and, for half of them, a 24-byte entry), ~48
/// bytes more in malloc's chunks.
const FULL_TABLE_BYTES_PER_SESSION: i64 = if cfg!(debug_assertions) { 436 } else { 348 };

static FULL: Live = Live::new();

/// A gateway's tracker filled to `max_sessions` by the benchmark's
/// `first_contact` strangers: each replays the CSS probe (even ones) or
/// the transparent pixel (odd ones) of one harvested page under an agent
/// of its own, so half of them record evidence and none holds more than
/// its agent. Weighed whole, from the gateway's construction on.
#[test]
fn a_full_table_of_strangers_holds_a_stated_heap_per_session() {
    let cap = full_table();
    let mut gateway = None;
    let (blocks, bytes) = weigh(&FULL, || {
        let gw = Gateway::builder()
            .seed(36)
            .detector(DetectorConfig {
                tracker: TrackerConfig {
                    max_sessions: cap,
                    ..TrackerConfig::default()
                },
            })
            .build();
        let page = "<html><head></head><body><p>hi</p></body></html>";
        let Decision::Serve { manifest, .. } = gw.handle_with(
            &get("http://site.example/index.html", "Mozilla/5.0 harvester"),
            SimTime::ZERO,
            |_| Origin::Page(page.to_string()),
        ) else {
            panic!("a fresh session's page is served");
        };
        let manifest = manifest.unwrap();
        let probes = [
            manifest.css_probe.unwrap().to_string(),
            manifest.transparent_pixel.unwrap().to_string(),
        ];
        let now = SimTime::from_secs(1);
        for n in 1..cap {
            let stranger = get(&probes[n % 2], &format!("Mozilla/5.0 stranger/{n:06}"));
            drop(gw.handle_deferred(&stranger, now));
        }
        gateway = Some(gw);
    });
    let stats = gateway.expect("the gateway was built").stats();
    assert_eq!((stats.live_sessions, stats.evicted_sessions), (cap, 0));
    let per_session = bytes / cap as i64;
    println!(
        "a full table of {cap} strangers: {blocks} blocks, {bytes} bytes, \
         {per_session} bytes a session"
    );
    assert!(
        per_session <= FULL_TABLE_BYTES_PER_SESSION,
        "{per_session} bytes a session, over {FULL_TABLE_BYTES_PER_SESSION}"
    );
}

static EXTENSION: Live = Live::new();

/// A hostile client's session: 600 requests whose method is a
/// 12 000-byte extension token. The session counts which kind of method
/// each was (a `HEAD` or not), never the token, so it weighs what any
/// other does.
#[test]
fn an_extension_method_session_holds_no_copy_of_its_method() {
    let gw = Gateway::builder().seed(36).build();
    let method: Method = "X".repeat(12_000).parse().unwrap();
    let requests: Vec<Request> = (0..600)
        .map(|n| {
            Request::builder(
                method.clone(),
                format!("http://site.example/{}.html", n % 8),
            )
            .header("User-Agent", "hostile/1.0")
            .client(ClientIp::new(0x0a00_0002))
            .build()
            .unwrap()
        })
        .collect();
    let (blocks, bytes) = weigh(&EXTENSION, || {
        for (n, request) in requests.iter().enumerate() {
            drop(gw.handle(request, SimTime::from_millis(10 * n as u64)));
        }
    });
    assert_eq!(gw.stats().live_sessions, 1);
    println!("an extension-method session: {blocks} blocks, {bytes} bytes");
    assert!(bytes < 64 * 1024, "{bytes} bytes");
}

/// What every live session carries inline, used or not: its
/// [`Session`] record and the detection core's [`KeyState`] (a slab
/// slot is the two plus the table's links). Token and challenge state,
/// which only a session served a page or challenged fills, sit behind
/// one pointer each. The seen-URL set and the evidence list each take
/// the 24 bytes of the `Vec` they spill to, their first item inline.
#[test]
fn a_live_sessions_inline_state_is_sized_to_its_common_case() {
    use std::mem::size_of;
    let (key_state, tokens, session) = (
        size_of::<KeyState>(),
        size_of::<TokenState>(),
        size_of::<Session>(),
    );
    let (seen, evidence) = (size_of::<SeenUrls>(), size_of::<EvidenceSet>());
    println!(
        "inline: KeyState {key_state} B, TokenState {tokens} B, Session {session} B, \
         SeenUrls {seen} B, EvidenceSet {evidence} B"
    );
    assert!(key_state <= 72, "KeyState is {key_state} bytes");
    assert_eq!(tokens, 8, "TokenState is one pointer");
    assert!(session <= 120, "Session is {session} bytes");
    assert_eq!(seen, 24, "SeenUrls is one Vec wide");
    assert_eq!(evidence, 24, "EvidenceSet is one Vec wide");
}

/// A record keeps the five facts the Table-2 attributes count (method,
/// content class, status class, `Referer` sent, `Referer` seen) and no
/// more: 512 of them are a full offline log.
#[test]
fn a_request_record_holds_only_what_the_features_read() {
    use std::mem::{align_of, size_of};
    assert_eq!(size_of::<RequestRecord>(), 5);
    assert_eq!(align_of::<RequestRecord>(), 1);
}

/// The bytes a verified human's session may hold once its page, its
/// script and its mouse beacon are in (288 measured, release and
/// debug). Its one token entry keeps where in the session's stream its
/// page's token was drawn, and the fetch draws the decoys and the seed
/// its script is written from again, never keeping the ~1.85 KB source;
/// its token list is sized to that one entry; its instrumentation RNG
/// is kept as its seed and the number of words drawn from its stream,
/// not as a 136-byte generator. (The same walk left 360 bytes while the
/// entry kept its decoys and script seed inline, 400 while the decoys
/// took a block of their own, 536 while the generator was kept, and
/// 2 784 while a fetched script stayed in its entry and the list took
/// four slots.)
const VERIFIED_HUMAN_BYTES: i64 = 304;

static HUMAN: Live = Live::new();

/// A browser's first visit: the page, its script and the mouse beacon
/// that proves a human, in process.
#[test]
fn a_verified_humans_session_holds_no_script() {
    let gw = Gateway::builder().seed(39).build();
    let page = "<html><head></head><body><p>hi</p></body></html>";
    for n in 0..2_000 {
        let _ = gw.handle_deferred(
            &get("http://site.example/other.css", &format!("other/{n:05}")),
            SimTime::ZERO,
        );
    }
    let agent = "Mozilla/5.0 (X11; Linux x86_64) human/1.0";
    let mut verdict = None;
    let (blocks, bytes) = weigh(&HUMAN, || {
        let decision = gw.handle_with(
            &get("http://site.example/index.html", agent),
            SimTime::from_secs(1),
            |_| Origin::Page(page.to_string()),
        );
        let Decision::Serve { manifest, .. } = decision else {
            panic!("the page is served: {decision:?}");
        };
        let manifest = manifest.unwrap();
        let script = manifest.js_file.unwrap().to_string();
        let decision = gw.handle_with(&get(&script, agent), SimTime::from_secs(2), |_| {
            panic!("a script is answered by the gate")
        });
        let Decision::Serve { response, .. } = decision else {
            panic!("the script is served: {decision:?}");
        };
        assert!(response.body().len() > 1024, "the whole script is sent");
        let beacon = manifest.mouse_beacon.unwrap().to_string();
        verdict = gw
            .handle_with(&get(&beacon, agent), SimTime::from_secs(3), |_| {
                panic!("a beacon is answered by the gate")
            })
            .verdict();
    });
    assert!(matches!(verdict, Some(Verdict::Human(_))), "{verdict:?}");
    println!("a verified human: {blocks} blocks, {bytes} bytes");
    assert!(
        bytes <= VERIFIED_HUMAN_BYTES,
        "{bytes} bytes, over {VERIFIED_HUMAN_BYTES}"
    );
}

/// The live heap one session may hold at every per-session cap
/// (7 280 bytes in 4 blocks measured, release and debug; 12 392 while
/// each token entry kept its five decoys and its script seed inline,
/// 15 456 in 68 while each entry's decoys took a block and the entry
/// list grew as `Vec` does, 15 592 while it kept its RNG whole, 15 616
/// while its one evidence kind took a block, 18 176 while it kept a log
/// of its records):
///
/// - the seen-URL set, 512 hashes: 4 096 bytes;
/// - 64 outstanding page tokens, every script fetched: 64 entries of
///   48 bytes, 3 KB in all — the decoys and the script seed are drawn
///   again from the session's stream, and no script is kept;
/// - the key's agent (the one evidence kind it saw is inline), under
///   300 bytes.
///
/// Times the 100 000-session cap this is ~0.75 GB, the tracker's worst
/// case (~1.2 GB while each entry kept its decoys, ~1.6 GB while they
/// took a block, ~1.8 GB while a session kept a log of 5-byte records,
/// ~3.6 GB while a record was 40 bytes, ~15.5 GB while every fetched
/// script stayed in its entry).
const WORST_CASE_BYTES: i64 = 7_680;

static WORST: Live = Live::new();

/// One key driven to every per-session cap: 600 requests over 600
/// distinct URLs, each with a `Referer` (so the seen set fills), 536 of
/// them pages and the last 64 pages' scripts fetched
/// (so 64 tokens are outstanding, each with its script served).
#[test]
fn a_session_at_every_cap_holds_a_stated_heap() {
    const PAGES: usize = 536;
    const SCRIPTS: usize = 64;
    let gw = Gateway::builder().seed(38).enforcement(false).build();
    let page = "<html><head></head><body><p>hi</p></body></html>";
    // Other keys first, so the tracker's tables have grown before the
    // window opens and what it sees is the one session.
    for n in 0..2_000 {
        let _ = gw.handle_deferred(
            &get("http://site.example/other.css", &format!("other/{n:05}")),
            SimTime::ZERO,
        );
    }
    let agent = "Mozilla/5.0 (X11; Linux x86_64) worst-case/1.0";
    let request = |uri: &str, referer: &str| {
        Request::builder(Method::Get, uri)
            .header("User-Agent", agent)
            .header("Referer", referer)
            .client(ClientIp::new(0x0a00_0003))
            .build()
            .unwrap()
    };
    let mut at = 0;
    let mut tick = || {
        at += 100;
        SimTime::from_millis(at)
    };
    let (blocks, bytes) = weigh(&WORST, || {
        let mut referer = "http://site.example/".to_string();
        for n in 0..PAGES {
            let uri = format!("http://site.example/p{n}.html");
            let decision = gw.handle_with(&request(&uri, &referer), tick(), |_| {
                Origin::Page(page.to_string())
            });
            let Decision::Serve { manifest, .. } = decision else {
                panic!("page {n} is served: {decision:?}");
            };
            if n >= PAGES - SCRIPTS {
                let script = manifest.unwrap().js_file.unwrap().to_string();
                let answer = gw.handle_with(&request(&script, &uri), tick(), |_| {
                    panic!("a script is answered by the gate")
                });
                assert!(matches!(answer, Decision::Serve { .. }), "{answer:?}");
            }
            referer = uri;
        }
    });
    assert_eq!(gw.stats().live_sessions, 2_001);
    let key = SessionKey::of(&request("http://site.example/", "x"));
    let (requests, tokens) = gw
        .detector()
        .with_key_state(&key, |session, state| {
            (session.request_count(), state.tokens.len())
        })
        .expect("the session is live");
    assert_eq!((requests, tokens), ((PAGES + SCRIPTS) as u64, SCRIPTS));
    println!("a session at every cap: {blocks} blocks, {bytes} bytes");
    assert!(
        bytes <= WORST_CASE_BYTES,
        "{bytes} bytes, over {WORST_CASE_BYTES}"
    );
}

static PAGES: Live = Live::new();

/// What a token entry may come to: 48 bytes measured (its key, where
/// its page's token was drawn in the session's stream, its script's
/// nonce, its issue time with its flags in one word, and its decoys'
/// 12-bit tags in another; 128 while it kept its five decoys and its
/// script's seed).
const ENTRY_BYTES: i64 = 56;

/// Sessions served one to six pages each (what a `browse_mix` browser
/// is served, and a little more): each session's token state, taken
/// out of its live session and dropped inside the window, frees the
/// same two blocks (the state's box and its entry list) whatever the
/// count, and each page adds the same bytes, one entry's: the list
/// holds one slot a page, no spare, and no entry owns a block.
#[test]
fn a_session_served_n_pages_holds_n_entries() {
    let gw = Gateway::builder().seed(40).enforcement(false).build();
    let page = "<html><head></head><body><p>hi</p></body></html>";
    let mut freed = Vec::new();
    for n in 1..=6 {
        let agent = format!("Mozilla/5.0 pages/{n}");
        for p in 0..n {
            let uri = format!("http://site.example/p{p}.html");
            let decision = gw.handle_with(&get(&uri, &agent), SimTime::from_secs(p), |_| {
                Origin::Page(page.to_string())
            });
            assert!(matches!(decision, Decision::Serve { .. }), "{decision:?}");
        }
        let key = SessionKey::of(&get("http://site.example/", &agent));
        let (blocks, bytes) = weigh(&PAGES, || {
            let tokens = gw
                .detector()
                .with_key_state(&key, |_, state| std::mem::take(&mut state.tokens))
                .expect("the session is live");
            assert_eq!(tokens.len(), n as usize);
            drop(tokens);
        });
        freed.push((-blocks, -bytes));
    }
    let entry = freed[1].1 - freed[0].1;
    println!("a session's tokens after 1..=6 pages: {freed:?} (blocks, bytes freed), {entry} bytes a page");
    for (n, &(blocks, bytes)) in (1..).zip(&freed) {
        assert_eq!(blocks, 2, "{n} pages: the box and the list");
        assert_eq!(bytes, freed[0].1 + (n - 1) * entry, "{n} pages");
    }
    assert!(
        entry <= ENTRY_BYTES,
        "{entry} bytes an entry, over {ENTRY_BYTES}"
    );
}
