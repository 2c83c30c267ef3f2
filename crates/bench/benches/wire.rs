//! HTTP substrate costs the front door pays on every origin exchange
//! and `benchmark/` has no row for: writing the request sent upstream,
//! and classifying the exchange's content. Reading a request is
//! `benchmark/`'s `http.wire.parse_request_ns`.

use botwall_http::request::ClientIp;
use botwall_http::{wire, ContentClass, Method, Request};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_wire(c: &mut Criterion) {
    let req = Request::builder(Method::Get, "http://www.example.com/pages/page_7.html")
        .header("User-Agent", "Mozilla/5.0 (Windows; U) Firefox/1.5.0.1")
        .header("Referer", "http://www.example.com/index.html")
        .header("Accept", "text/html,image/*,*/*")
        .header("Host", "www.example.com")
        .client(ClientIp::new(7))
        .build()
        .unwrap();

    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(req.wire_len() as u64));
    // The upstream request, as `botwall-serve` writes it into a reused
    // buffer (this request carries no hop-by-hop line to filter out).
    group.bench_function("serialize_request", |b| {
        let mut out = Vec::with_capacity(1024);
        b.iter(|| {
            out.clear();
            wire::serialize_request_as(black_box(&req), "HTTP/1.1", |_| true, &mut out);
            black_box(out.len())
        })
    });
    group.finish();

    // The class an exchange is recorded under: the response's
    // `Content-Type` read when its head parses, then the request's path.
    let mut group = c.benchmark_group("classify");
    group.throughput(Throughput::Elements(1));
    let view = req.view();
    group.bench_function("content_class", |b| {
        b.iter(|| {
            let typed = ContentClass::from_content_type(black_box("text/html"));
            black_box(ContentClass::of_view(black_box(&view), typed))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
