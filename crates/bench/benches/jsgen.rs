//! §3.2 latency claim: "A fake JavaScript code of size 1KB with simple
//! obfuscation is generated in 144 µs on a machine with a 2 GHz Pentium 4
//! processor, which would contribute to little additional delay."
//!
//! Generation must land far below request service time (micro-, not
//! milliseconds) on any modern machine.
//!
//! The `page_setup` group holds what a request for a page's
//! `<script src>` URL costs: a token keeps where in the session's
//! stream its page drew, and every fetch draws the key, decoys and seed
//! again from there and writes the script from them into the response.
//! `script_on_first_fetch` times one such answer from a fresh session:
//! `RewriteEngine::object_in_session`, the call the gate makes, head
//! and script.
//! Minting a page's probes and issuing its token are `benchmark/`'s
//! `instrument.engine.begin_stream_us` and `instrument.token.issue_ns`.

use botwall_http::request::ClientIp;
use botwall_http::{Method, Request};
use botwall_instrument::beacon;
use botwall_instrument::jsgen::{generate, JsSpec, Obfuscation};
use botwall_instrument::token::BeaconKey;
use botwall_instrument::{InstrumentConfig, RewriteEngine, TokenState};
use botwall_sessions::SimTime;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn spec(m: usize, obfuscation: Obfuscation, target_size: usize) -> JsSpec {
    JsSpec {
        mouse_beacon: beacon::encode("www.example.com", BeaconKey::from_raw(0x1234)),
        decoys: (0..m)
            .map(|i| beacon::encode("www.example.com", BeaconKey::from_raw(i as u128)))
            .collect(),
        agent_beacon: botwall_http::Uri::absolute("www.example.com", "/a.gif"),
        obfuscation,
        target_size,
    }
}

fn bench_jsgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("jsgen");
    for (name, obf) in [
        ("plain", Obfuscation::None),
        ("lexical_1kb", Obfuscation::Lexical),
        ("split_strings_1kb", Obfuscation::SplitStrings),
    ] {
        let s = spec(5, obf, 1024);
        group.bench_function(BenchmarkId::new("1kb_m5", name), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            b.iter(|| black_box(generate(black_box(&s), &mut rng)))
        });
    }
    for m in [0usize, 5, 10, 20] {
        let s = spec(m, Obfuscation::Lexical, 0);
        group.bench_with_input(BenchmarkId::new("decoys", m), &s, |b, s| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            b.iter(|| black_box(generate(black_box(s), &mut rng)))
        });
    }
    group.finish();
}

fn bench_page_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_setup");
    let engine = RewriteEngine::new(InstrumentConfig::default(), 7);
    // An 8 KB-page request as a browser behind a reverse proxy sends it.
    let page = Request::builder(Method::Get, "/page/8ml/2.html")
        .header("Host", "site.example")
        .header("User-Agent", "Mozilla/5.0 (bench)")
        .client(ClientIp::new(1))
        .build()
        .unwrap();
    let now = SimTime::from_secs(1);

    group.bench_function("script_on_first_fetch", |b| {
        b.iter_custom(|iters| {
            let mut busy = Duration::ZERO;
            for _ in 0..iters {
                let mut tokens = TokenState::default();
                let stream = engine.begin_session_page(&page, &mut tokens, || 7, now);
                let manifest = stream
                    .finish(&mut Vec::new())
                    .manifest(page.uri(), page.authority().as_deref());
                let script = manifest
                    .js_file
                    .expect("the default config deploys the script");
                let fetch = Request::builder(Method::Get, script.path())
                    .header("Host", "site.example")
                    .build()
                    .unwrap();
                let hit = engine.classify(&fetch, now).resolve(&mut tokens, now);
                let mut out = Vec::new();
                let start = Instant::now();
                black_box(engine.object_in_session(
                    &hit,
                    &tokens,
                    &fetch.view(),
                    now,
                    false,
                    &mut out,
                ));
                busy += start.elapsed();
            }
            busy
        })
    });
    group.finish();
}

criterion_group!(benches, bench_jsgen, bench_page_setup);
criterion_main!(benches);
