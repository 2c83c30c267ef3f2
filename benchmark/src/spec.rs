//! What `BENCHMARK.json` declares, as data: the benchmark checks its own
//! output against these tables at the end of every run, `compare` reads
//! directions and bounds from them, and `botwall-benchmark spec` prints
//! the file itself, so the three cannot drift apart.

use std::fmt::Write as _;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 10;

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "browse_mix",
        "85 % browser sessions (page, probes, beacons, assets, second page) and 15 % page-only crawlers: every layer works, none dominates",
    ),
    (
        "page_stream",
        "verified humans fetching 64 KB pages, Content-Length and chunked: the streaming rewriter and body framing dominate, gate and tracker are noise",
    ),
    (
        "gate_only",
        "403 rejections and probe-object fetches for known sessions, origin never touched: read, parse, gate, serialize, write and a tracker lookup",
    ),
    (
        "first_contact",
        "harvested probe URLs replayed with the tracker at its 100k cap, one key in sixteen never seen: the gate-only path where that key evicts one session and inserts another",
    ),
];

/// End-to-end metrics: name, unit, bound. All are better when lower.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("cost_x", "x", 0.10),
    ("ttfb_x", "x", 0.10),
    ("server_rss_peak_mb", "MB", 0.05),
    ("wire_bytes_per_op", "B", 0.01),
];

/// Per-layer metrics: name, unit, whether lower is better.
pub const PER_LAYER: [(&str, &str, bool); 67] = [
    ("sessions.tracker.insert_ns", "ns", true),
    ("sessions.tracker.evict_insert_ns", "ns", true),
    ("gateway.first_contact_ns", "ns", true),
    ("sessions.tracker.bytes_per_session", "B", true),
    ("core.detector.sweep_ms_per_100k", "ms", true),
    ("http.wire.parse_request_ns", "ns", true),
    ("http.wire.serialize_response_ns", "ns", true),
    ("serve.frame.measure_ns", "ns", true),
    ("serve.frame.response_head_ns", "ns", true),
    ("serve.frame.decode_mbps", "MB/s", false),
    ("gateway.gate_ready_ns", "ns", true),
    ("instrument.engine.classify_ns", "ns", true),
    ("sessions.tracker.lookup_ns", "ns", true),
    ("core.policy.decide_ns", "ns", true),
    ("gateway.gate_lease_ns", "ns", true),
    ("gateway.complete_ns", "ns", true),
    ("gateway.begin_page_stream_us", "us", true),
    ("gateway.page_stream_us", "us", true),
    ("instrument.added_bytes_per_page", "B", true),
    ("instrument.engine.begin_stream_us", "us", true),
    ("instrument.jsgen.generate_us", "us", true),
    ("instrument.token.issue_ns", "ns", true),
    ("instrument.token.redeem_ns", "ns", true),
    ("instrument.stream.text_mbps", "MB/s", false),
    ("instrument.stream.markup_mbps", "MB/s", false),
    ("instrument.stream.peak_held_bytes", "B", true),
    ("reactor.poll_ns", "ns", true),
    ("reactor.echo_rtt_us", "us", true),
    ("serve.server.requests", "count", true),
    ("serve.server.connections", "count", true),
    ("serve.server.origin_connects", "count", true),
    ("serve.server.origin_reuse_ratio", "ratio", false),
    ("serve.server.origin_retries", "count", true),
    ("gateway.live_sessions", "count", true),
    ("gateway.token_entries", "count", true),
    ("gateway.refused_share", "ratio", true),
    ("serve.proc.cpu_us_per_op", "us", true),
    ("serve.proc.ctx_switches_per_op", "1/op", true),
    ("client.serve_us_p50", "us", true),
    ("client.serve_us_p90", "us", true),
    ("client.serve_us_p99", "us", true),
    ("client.serve_us_max", "us", true),
    ("client.direct_us_p50", "us", true),
    ("client.ttfb_us_p50", "us", true),
    ("client.ops_per_s_mean", "1/s", false),
    ("client.setup_wall_s", "s", true),
    ("client.cost_x_all_pairs", "x", true),
    ("client.ops", "count", false),
    ("client.block_pairs", "count", false),
    ("client.ratio_iqr", "ratio", true),
    ("origin.requests", "count", true),
    ("origin.connections", "count", true),
    ("host.pinned_cpu", "cpu", false),
    ("host.steal_share", "ratio", true),
    ("host.other_cpu_busy_share", "ratio", true),
    ("host.calib_ns", "ns", true),
    ("host.rounds_rerun", "count", true),
    ("host.fast_pair_share", "ratio", false),
    ("trace.inbound_us", "us", true),
    ("trace.origin_us", "us", true),
    ("trace.outbound_ttfb_us", "us", true),
    ("trace.body_us", "us", true),
    ("trace.inproc_us_per_op", "us", true),
    ("trace.socket_hops_us", "us", true),
    ("trace.unattributed_us", "us", true),
    ("trace.unattributed_share", "ratio", true),
    ("trace.overhead_share", "ratio", true),
];

/// Whether `name` is better when lower, and its bound if it has one.
pub fn direction_and_bound(name: &str) -> Option<(bool, Option<f64>)> {
    if let Some(&(_, _, bound)) = END_TO_END.iter().find(|m| m.0 == name) {
        return Some((true, Some(bound)));
    }
    PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .map(|&(_, _, lower)| (lower, None))
}

/// The name and unit of every metric a run with or without `--trace 1`
/// must report.
pub fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    }
}

/// `BENCHMARK.json`, exactly as committed at the repository's root.
pub fn benchmark_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}{comma}"
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, lower)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let better = if *lower { "lower" } else { "higher" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in expected(false).into_iter().chain(expected(true)) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{why}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.2 > 0.0 && m.2 <= 0.25));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
