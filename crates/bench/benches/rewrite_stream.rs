//! The streaming rewriter, against the buffered path and on its own.
//! A sweep of page sizes from 4KB to 4MB times `build_page` (one
//! buffered pass) against `begin_stream` fed 16KB chunks, the shape the
//! front door delivers. Of the streaming rewriter's two costs only the
//! memory one is asserted: it holds O(chunk), never the page (the
//! peak-buffered gauge beside the MB/s rows must stay within
//! `MAX_HELD_BYTES`). Its throughput is printed, not held to the
//! buffered path's, and past one write it is slower: on a 2-core Xeon
//! VM `streaming_16k` read 10.7 µs against `buffered`'s 8.5 at 64KB and
//! 176.6 µs against 99.3 at 1MB (1.78x), level at 4MB (a 4KB page, one
//! write, streamed in 1.9 µs against 4.9). Each 16KB write that does
//! not hold the page's end is hunted backward whole for `</body>` by
//! `scan::rfind_ci`, where a page held whole is hunted from its end
//! once. And its anchor hunt runs at vector width whatever the page is
//! made of: the `scan_only` rows run the rewriter over a
//! text-dominated, a markup-dense and a hostile 64KB page into a sink
//! that only counts (the scan alone, what the front door pays, since it
//! writes page bytes from where they were read), `inject_only/hostile`
//! runs the hostile page into a `Vec` (scan plus copy), and a
//! markup-dense page may cost at most 1.5x a text page per byte — the
//! guard that fails this bench if a compiler stops vectorising the
//! scan's block loop. The text and markup pages into a `Vec` are
//! `benchmark/`'s `instrument.stream.{text,markup}_mbps`.

use botwall_http::Uri;
use botwall_instrument::{InstrumentConfig, RewriteEngine, StreamSink, MAX_HELD_BYTES};
use botwall_sessions::SimTime;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Chunk size the serve loop hands the rewriter (its high-water mark is
/// 64KB, but origin reads typically arrive smaller).
const CHUNK: usize = 16 * 1024;

fn page_uri() -> Uri {
    "http://bench.example/page.html".parse().unwrap()
}

/// A page of roughly `size` bytes around repeats of `item`.
fn page_of(size: usize, item: &str) -> String {
    let mut html = String::with_capacity(size + 256);
    html.push_str("<html><head><title>bench</title></head><body>");
    while html.len() < size {
        html.push_str(item);
    }
    html.push_str("</body></html>");
    html
}

/// A realistic page of roughly `size` bytes: head, text, links and
/// images.
fn page(size: usize) -> String {
    let item = "<p>The quick brown fox jumps over the lazy dog.</p>\
                <img src=\"http://cdn.example/a.png\" alt=\"a\">\
                <div class=\"c\"><a href=\"/next.html\">text</a></div>";
    page_of(size, item)
}

/// The 64KB pages the scan is judged on: running text (a `<` every few
/// hundred bytes), link-and-image markup (a `<` every twenty), and a
/// page stuffed with the three bytes `</body>` opens with, so every
/// block of the scan holds candidates.
fn scan_pages() -> [(&'static str, String); 3] {
    let text = format!(
        "<p>{}</p>\n",
        "the quick brown fox jumps over the lazy dog ".repeat(12)
    );
    let markup =
        "<div class=\"c7\"><a href=\"/page/7.html\">fox</a><img src=\"/asset/3.bin\" alt=\"dog\"></div>\n";
    [
        ("text", page_of(64 * 1024, &text)),
        ("markup", page_of(64 * 1024, markup)),
        ("hostile", page_of(64 * 1024, "</b</B<")),
    ]
}

/// A sink that counts what it is sent and keeps nothing.
#[derive(Default)]
struct Counted(usize);

impl StreamSink for Counted {
    fn run(&mut self, _chunk: &[u8], range: std::ops::Range<usize>) {
        self.0 += range.len();
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// One streamed rewrite of `html` in [`CHUNK`]-byte writes into `out`
/// (cleared first, and reused across iterations as the front door
/// reuses its buffers — a fresh 64KB+ allocation per iteration costs as
/// much as the scan and varies with the heap's mood).
fn stream_once(eng: &RewriteEngine, html: &str, rng: &mut ChaCha8Rng, out: &mut Vec<u8>) -> usize {
    out.clear();
    let mut stream = eng.begin_stream(&page_uri(), SimTime::ZERO, rng);
    for piece in html.as_bytes().chunks(CHUNK) {
        stream.write(piece, out);
    }
    black_box(stream.finish(out));
    out.len()
}

/// [`stream_once`] into a counting sink: the scan without the copy
/// (`tail` takes the few hundred bytes `finish` flushes).
fn scan_once(eng: &RewriteEngine, html: &str, rng: &mut ChaCha8Rng, tail: &mut Vec<u8>) -> usize {
    tail.clear();
    let mut counted = Counted::default();
    let mut stream = eng.begin_stream(&page_uri(), SimTime::ZERO, rng);
    for piece in html.as_bytes().chunks(CHUNK) {
        stream.write(piece, &mut counted);
    }
    black_box(stream.finish(tail));
    counted.0 + tail.len()
}

/// Best of 200 timed [`stream_once`] passes, in nanoseconds per byte.
fn best_ns_per_byte(eng: &RewriteEngine, html: &str) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut out = Vec::with_capacity(html.len() + 4096);
    let best = (0..200)
        .map(|_| {
            let start = Instant::now();
            black_box(stream_once(eng, html, &mut rng, &mut out));
            start.elapsed()
        })
        .min()
        .expect("200 passes");
    best.as_nanos() as f64 / html.len() as f64
}

fn bench_rewrite_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite_stream");
    let eng = RewriteEngine::new(InstrumentConfig::default(), 42);
    let pages = scan_pages();
    for (label, html) in &pages {
        group.throughput(Throughput::Bytes(html.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("scan_only/{label}"), "64KB"),
            html,
            |b, html| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let mut tail = Vec::with_capacity(4096);
                b.iter(|| black_box(scan_once(&eng, html, &mut rng, &mut tail)))
            },
        );
    }
    let hostile = &pages[2].1;
    group.throughput(Throughput::Bytes(hostile.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("inject_only/hostile", "64KB"),
        hostile,
        |b, html| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut out = Vec::with_capacity(html.len() + 4096);
            b.iter(|| black_box(stream_once(&eng, html, &mut rng, &mut out)))
        },
    );
    // The vectorisation guard, outside the timing loops: with the block
    // filter a tag every twenty bytes costs what running text costs
    // (the per-`<` scan it replaced read 2.8x here). Best-of-many, so a
    // noisy neighbour cannot fail it; a scalar block loop does.
    let [text, markup] = [&pages[0].1, &pages[1].1].map(|html| best_ns_per_byte(&eng, html));
    println!("rewrite_stream/inject_only: text {text:.3} ns/B, markup {markup:.3} ns/B");
    assert!(
        markup <= 1.5 * text,
        "markup-dense pages cost {:.2}x text pages per byte: is the block scan still vectorised?",
        markup / text
    );
    for (label, size) in [
        ("4KB", 4 * 1024),
        ("64KB", 64 * 1024),
        ("1MB", 1024 * 1024),
        ("4MB", 4 * 1024 * 1024),
    ] {
        let html = page(size);
        group.throughput(Throughput::Bytes(html.len() as u64));
        group.bench_with_input(BenchmarkId::new("buffered", label), &html, |b, html| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            b.iter(|| black_box(eng.build_page(html, &page_uri(), SimTime::ZERO, &mut rng)))
        });
        group.bench_with_input(
            BenchmarkId::new("streaming_16k", label),
            &html,
            |b, html| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let mut out = Vec::with_capacity(html.len() + 4096);
                b.iter(|| black_box(stream_once(&eng, html, &mut rng, &mut out)))
            },
        );
        // The memory half of the claim, measured once per size outside
        // the timing loop: peak bytes held back while streaming.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut stream = eng.begin_stream(&page_uri(), SimTime::ZERO, &mut rng);
        let mut out = Vec::with_capacity(html.len() + 4096);
        for piece in html.as_bytes().chunks(CHUNK) {
            stream.write(piece, &mut out);
        }
        let peak = stream.peak_buffered();
        stream.finish(&mut out);
        assert!(
            peak <= MAX_HELD_BYTES,
            "peak buffered {peak} exceeds the {MAX_HELD_BYTES} hold cap"
        );
        println!("rewrite_stream/{label}: peak_buffered = {peak} bytes (cap {MAX_HELD_BYTES})");
    }
    group.finish();
}

criterion_group!(benches, bench_rewrite_stream);
criterion_main!(benches);
