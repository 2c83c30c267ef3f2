//! The population-scale capacity harness.
//!
//! The ROADMAP's "millions of users" proof obligation: fill one
//! [`Gateway`] with live sessions into the millions, drive
//! Zipf-distributed traffic at it (a few clients make most requests —
//! the empirical web shape), and measure what occupancy costs: handle
//! latency at scale, one sweep slice, a stats snapshot, and
//! carry-channel saturation. The bench
//! targets in `benches/capacity.rs` record the numbers as
//! `BENCH_baseline.json` rows; the root `tests/capacity.rs` integration
//! test holds the ≥ 1M-live-sessions line.

use botwall_gateway::{Gateway, Origin};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Response, StatusCode};
use botwall_sessions::SimTime;
use rand::Rng;

/// A Zipf(s) sampler over ranks `0..n` via a precomputed harmonic CDF
/// and binary search — no floating-point rejection loops, so identical
/// draws for identical RNG streams.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s` (`s = 1.0` is
    /// the classic web-traffic shape).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A minimal page request from `client` — the cheapest exchange that
/// still creates and touches a live session.
pub fn capacity_request(client: u32) -> Request {
    Request::builder(Method::Get, "http://cap.example.com/index.html")
        .header("User-Agent", "Mozilla/5.0 Firefox/1.5")
        .client(ClientIp::new(client))
        .build()
        .expect("static uri parses")
}

/// Handles one exchange for `client` with a non-HTML origin (no
/// instrumentation, no token issuance — pure session-tracking load).
pub fn touch(gw: &Gateway, client: u32, now: SimTime) {
    let req = capacity_request(client);
    gw.handle_with(&req, now, |_| {
        Origin::Response(Response::empty(StatusCode::OK))
    });
}

/// Prefills `clients` distinct live sessions (one exchange each),
/// spreading arrival times over `span_ms` so idle ordering is
/// non-degenerate. Returns the time just past the last arrival.
pub fn prefill(gw: &Gateway, clients: u32, start: SimTime, span_ms: u64) -> SimTime {
    for c in 0..clients {
        let at = start + (c as u64 * span_ms) / clients.max(1) as u64;
        touch(gw, c, at);
    }
    start + span_ms
}

/// Drives `requests` Zipf-distributed exchanges over the prefilled
/// client population.
pub fn zipf_traffic<R: Rng>(gw: &Gateway, zipf: &Zipf, requests: u64, now: SimTime, rng: &mut R) {
    for _ in 0..requests {
        let client = zipf.sample(rng) as u32;
        touch(gw, client, now);
    }
}
