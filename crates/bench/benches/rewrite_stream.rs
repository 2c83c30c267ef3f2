//! PR-8 perf claim: the streaming rewriter is O(chunk) in memory and
//! within noise of the buffered path in throughput. Sweeps page sizes
//! from 4KB to 4MB, comparing `build_page` (one buffered pass) against
//! `begin_stream` fed 16KB chunks — the shape the front door delivers —
//! and reports the peak-buffered gauge alongside the MB/s rows. The
//! `inject_only` rows run the same rewriter over a text-dominated and a
//! markup-dense 64KB page.

use botwall_http::Uri;
use botwall_instrument::{InstrumentConfig, RewriteEngine, MAX_HELD_BYTES};
use botwall_sessions::SimTime;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// Chunk size the serve loop hands the rewriter (its high-water mark is
/// 64KB, but origin reads typically arrive smaller).
const CHUNK: usize = 16 * 1024;

fn page_uri() -> Uri {
    "http://bench.example/page.html".parse().unwrap()
}

/// A realistic page of roughly `size` bytes: head, text, and a spread of
/// asset references.
fn page(size: usize) -> String {
    let mut html = String::with_capacity(size + 256);
    html.push_str(
        "<html><head><title>bench</title><link href=\"http://cdn.example/s.css\"></head><body>",
    );
    let para = "<p>The quick brown fox jumps over the lazy dog.</p>\
                <img src=\"http://cdn.example/a.png\" srcset=\"http://cdn.example/a.png 1x, b.png 2x\">\
                <div style=\"background:url(http://cdn.example/bg.png)\">text</div>";
    while html.len() < size {
        html.push_str(para);
    }
    html.push_str("</body></html>");
    html
}

/// A 64KB page that is either running text (a `<` every few hundred
/// bytes) or link-and-image markup (a `<` every twenty).
fn plain_page(dense: bool) -> String {
    let size = 64 * 1024;
    let mut html = String::with_capacity(size + 256);
    html.push_str("<html><head><title>bench</title></head><body>");
    let item = if dense {
        "<div class=\"c7\"><a href=\"/page/7.html\">fox</a><img src=\"/asset/3.bin\" alt=\"dog\"></div>\n"
            .to_string()
    } else {
        format!(
            "<p>{}</p>\n",
            "the quick brown fox jumps over the lazy dog ".repeat(12)
        )
    };
    while html.len() < size {
        html.push_str(&item);
    }
    html.push_str("</body></html>");
    html
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

fn bench_rewrite_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite_stream");
    let eng = RewriteEngine::new(InstrumentConfig::default(), 42);
    for (label, dense) in [("text", false), ("markup", true)] {
        let html = plain_page(dense);
        group.throughput(Throughput::Bytes(html.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("inject_only/{label}"), "64KB"),
            &html,
            |b, html| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                let mut out = Vec::with_capacity(html.len() + 4096);
                b.iter(|| black_box(stream_once(&eng, html, &mut rng, &mut out)))
            },
        );
    }
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
