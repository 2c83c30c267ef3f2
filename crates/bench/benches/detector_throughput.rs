//! The paper's core operational claim: detection works "on-line at data
//! request rates" (CoDeeN: 20M+ requests/day ≈ 230 req/s sustained).
//! This bench measures the full node request path — classify, detect,
//! policy, respond — in requests per second.

use botwall_agents::world::{Client, ClientWorld, FetchSpec};
use botwall_agents::Population;
use botwall_codeen::network::{Network, NetworkConfig};
use botwall_codeen::node::Deployment;
use botwall_http::request::ClientIp;
use botwall_http::Uri;
use botwall_sessions::SimTime;
use botwall_webgraph::{SiteConfig, Web, WebConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;

fn bench_request_path(c: &mut Criterion) {
    let web = Arc::new(Web::generate(
        &WebConfig {
            sites: 4,
            site: SiteConfig {
                pages: 30,
                ..SiteConfig::default()
            },
        },
        11,
    ));
    let mut group = c.benchmark_group("request_path");
    group.throughput(Throughput::Elements(1));
    group.bench_function("page_fetch_full_deployment", |b| {
        let gateway = Arc::new(Deployment::full().gateway(42));
        let host = web.sites().next().unwrap().host().to_string();
        let entry = Uri::absolute(&host, "/index.html");
        let mut start = SimTime::ZERO;
        let mut ip = 1u32;
        b.iter(|| {
            ip = ip.wrapping_add(1);
            let visitor = (ClientIp::new(ip), "bench-agent".to_string());
            let (gateway, web) = (Arc::clone(&gateway), Arc::clone(&web));
            let mut client = Client::new(gateway, web, visitor, entry.clone(), start);
            let out = client.fetch(FetchSpec::get(entry.clone()));
            // The next session starts where this one's clock stopped.
            start = client.now();
            black_box(out)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("session_throughput");
    group.throughput(Throughput::Elements(1));
    group.bench_function("demo_population_session", |b| {
        let config = NetworkConfig {
            nodes: 2,
            web: WebConfig {
                sites: 2,
                site: SiteConfig {
                    pages: 15,
                    ..SiteConfig::default()
                },
            },
            deployment: Deployment::full(),
            sessions: 0,
            session_gap_ms: 100,
        };
        let mut network = Network::new(&config, 5);
        let population = Population::demo();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        b.iter(|| black_box(network.run_session(&population, &mut rng, 100)))
    });
    group.finish();
}

criterion_group!(benches, bench_request_path);
criterion_main!(benches);
