//! What a live session holds on the heap, counted block by block. This
//! file is its own crate root, outside the libraries'
//! `#![forbid(unsafe_code)]`, so it can install a counting allocator:
//! every allocation and free made on a thread that has a tally set moves
//! that tally's live blocks and bytes, and only a test's own thread sets
//! one, around the requests it weighs.
//!
//! The requests go through the gateway in process (no sockets, no
//! reactor), so whatever a window leaves live is what the gateway kept.

use botwall_gateway::{Decision, Gateway, Origin};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request};
use botwall_sessions::SimTime;
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
/// contact: its key's `User-Agent` (one copy, shared by the tracker's
/// index and the session), its one remembered URL, its evidence and its
/// record log.
const FIRST_CONTACT_BLOCKS: i64 = 4;

/// The bytes those blocks may come to: a 16-byte `Arc` header and a
/// ~25-byte agent, a 4-slot seen set (32), a 4-slot evidence list (96)
/// and a 4-slot record log (160), with some room. The session's slab
/// slot and index entry are not in this: they are inline in the
/// tracker's tables, whose growth this median does not see.
const FIRST_CONTACT_BYTES: i64 = 384;

static STRANGERS: Live = Live::new();

/// A harvested CSS probe URL replayed by keys the gateway never saw
/// (the benchmark's `first_contact` traffic): each is answered by the
/// gate alone, and each new session holds at most four heap blocks.
#[test]
fn a_strangers_first_contact_holds_four_blocks() {
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

static EXTENSION: Live = Live::new();

/// A hostile client's session: 600 requests whose method is a
/// 12 000-byte extension token. A record keeps which kind of method it
/// was, never the token, so the session weighs what any other does.
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
