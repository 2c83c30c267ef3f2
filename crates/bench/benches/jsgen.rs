//! §3.2 latency claim: "A fake JavaScript code of size 1KB with simple
//! obfuscation is generated in 144 µs on a machine with a 2 GHz Pentium 4
//! processor, which would contribute to little additional delay."
//!
//! Generation must land far below request service time (micro-, not
//! milliseconds) on any modern machine.
//!
//! The `page_setup` group splits what a page serve does before its
//! first body byte: `mint_probes` (nonces, keys, manifest, markup) and
//! `issue_token` add up to `begin_page_stream` (plus the shard lock);
//! the script is not in there — a token keeps its seed, and every
//! request for the `<script src>` URL writes the script from it into
//! the response: `script_on_first_fetch` times the first, from a fresh
//! session, `script_refetch` a later one into a buffer already grown.

use botwall_gateway::{Gateway, PendingServe};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Uri};
use botwall_instrument::beacon;
use botwall_instrument::jsgen::{generate, JsSpec, Obfuscation};
use botwall_instrument::token::{BeaconKey, ScriptSeed};
use botwall_instrument::{InstrumentConfig, IssuedPageToken, RewriteEngine, TokenState};
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

/// An 8 KB-page request as a browser behind a reverse proxy sends it.
fn page_request(ip: u32) -> Request {
    Request::builder(Method::Get, "/page/8ml/2.html")
        .header("Host", "site.example")
        .header("User-Agent", "Mozilla/5.0 (bench)")
        .client(ClientIp::new(ip))
        .build()
        .unwrap()
}

fn bench_page_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("page_setup");
    let engine = RewriteEngine::new(InstrumentConfig::default(), 7);
    let page = page_request(1);
    let now = SimTime::from_secs(1);

    group.bench_function("mint_probes", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let uri = Uri::absolute("site.example", page.uri().path().to_string());
        b.iter(|| black_box(engine.begin_stream(black_box(&uri), now, &mut rng)))
    });

    // A session at its 64-entry cap: every issue also drops the oldest.
    group.bench_function("issue_token", |b| {
        let mut tokens = TokenState::default();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let token = IssuedPageToken {
                key: BeaconKey::from_raw(n as u128),
                decoys: vec![BeaconKey::from_raw(1); 5],
                js_nonce: n,
                script: ScriptSeed {
                    seed: n,
                    agent_nonce: n,
                },
            };
            tokens.issue_page(token, now);
            black_box(tokens.len())
        })
    });

    // The gateway step itself, timed alone: the gate before it and the
    // commit after it run off the clock. Enforcement is off so that 64
    // sessions that never prove human keep being served.
    group.bench_function("begin_page_stream", |b| {
        let gateway = Gateway::builder().seed(7).enforcement(false).build();
        let requests: Vec<Request> = (0..64).map(page_request).collect();
        let mut out = Vec::new();
        let mut i = 0usize;
        b.iter_custom(|iters| {
            let mut busy = Duration::ZERO;
            for _ in 0..iters {
                i += 1;
                let request = &requests[i % requests.len()];
                let PendingServe::AwaitingOrigin(pending) = gateway.handle_deferred(request, now)
                else {
                    panic!("a page request leases its session");
                };
                let start = Instant::now();
                let stream = black_box(gateway.begin_page_stream(&pending, now));
                busy += start.elapsed();
                out.clear();
                gateway.finish_page_stream(pending, stream, &mut out, 0, now);
            }
            busy
        })
    });

    let script_fetch = |tokens: &mut TokenState| {
        let manifest = engine
            .build_session_page("<html></html>", &page, tokens, || 7, now)
            .manifest;
        let script = manifest
            .js_file
            .expect("the default config deploys the script");
        let nonce = script.file_name()[..20].parse().expect("a 20-digit nonce");
        let fetch = Request::builder(Method::Get, script.path())
            .header("Host", "site.example")
            .build()
            .unwrap();
        (nonce, fetch)
    };

    group.bench_function("script_on_first_fetch", |b| {
        b.iter_custom(|iters| {
            let mut busy = Duration::ZERO;
            for _ in 0..iters {
                let mut tokens = TokenState::default();
                let (nonce, fetch) = script_fetch(&mut tokens);
                let mut out = Vec::new();
                let start = Instant::now();
                black_box(engine.session_script(&tokens, nonce, &fetch, now, &mut out));
                busy += start.elapsed();
            }
            busy
        })
    });

    group.bench_function("script_refetch", |b| {
        let mut tokens = TokenState::default();
        let (nonce, fetch) = script_fetch(&mut tokens);
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            black_box(engine.session_script(&tokens, nonce, &fetch, now, &mut out));
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_jsgen, bench_page_setup);
criterion_main!(benches);
