//! Token-state and probe-classification costs — the per-page server-side
//! state §2.1 introduces. The paper's design goal is detection "without
//! overburdening the server"; issuing and redeeming must be O(1)-ish,
//! and since PR 4 probe classification is a *stateless* keyed-hash
//! recomputation (no registry lookup at all).

use botwall_instrument::token::{BeaconKey, TokenState};
use botwall_instrument::{InstrumentConfig, RewriteEngine, Sighting};
use botwall_sessions::SimTime;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_token_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("token_table");
    group.throughput(Throughput::Elements(1));
    // The shard-colocated per-session state the gateway uses: issue +
    // redeem with no table indirection at all.
    group.bench_function("session_state_issue_then_redeem", |b| {
        let mut state = TokenState::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = BeaconKey::random(&mut rng);
            state.issue("/p", key, Vec::new(), None, SimTime::from_millis(i), 64);
            black_box(state.redeem(key, SimTime::from_millis(i + 1)))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("probe_classify");
    group.throughput(Throughput::Elements(1));
    // Stateless MAC-nonce classification: mint a probe URL, then verify
    // it back — the whole pre-lock half of the request path.
    group.bench_function("issue_and_classify", |b| {
        let engine = RewriteEngine::new(InstrumentConfig::default(), 7);
        let mut tokens = TokenState::default();
        let page = botwall_http::Request::builder(
            botwall_http::Method::Get,
            "http://h.example/index.html",
        )
        .build()
        .unwrap();
        let manifest = engine
            .build_session_page("<html></html>", &page, &mut tokens, || 1, SimTime::ZERO)
            .manifest;
        let css = manifest.css_probe.unwrap();
        let req = botwall_http::Request::builder(botwall_http::Method::Get, css.to_string())
            .build()
            .unwrap();
        b.iter(|| match engine.classify(black_box(&req), SimTime::ZERO) {
            Sighting::Probe(hit) => black_box(hit.nonce),
            other => panic!("probe expected, got {other:?}"),
        })
    });
    // The miss path: ordinary traffic must reject fast.
    group.bench_function("classify_ordinary", |b| {
        let engine = RewriteEngine::new(InstrumentConfig::default(), 7);
        let req = botwall_http::Request::builder(
            botwall_http::Method::Get,
            "http://h.example/catalog/item42.html",
        )
        .build()
        .unwrap();
        b.iter(|| black_box(engine.classify(black_box(&req), SimTime::ZERO)))
    });
    group.finish();
}

criterion_group!(benches, bench_token_table);
criterion_main!(benches);
