//! The `/admin/stats` rendering: [`GatewayStats`] as a JSON object.
//!
//! Formatted by hand because the workspace's serde is a no-op marker
//! shim — there is no serializer to drive. The field list is pinned by a
//! test so a new `GatewayStats` column cannot silently go missing here.

use crate::server::SharedCounters;
use botwall_gateway::GatewayStats;
use std::sync::atomic::Ordering;

/// Renders the gateway snapshot plus the front door's own merged
/// counters (connections/requests/origin-pool traffic across every
/// reactor thread) as one JSON object — the `/admin/stats` body.
pub(crate) fn serve_stats_json(s: &GatewayStats, serve: &SharedCounters, threads: usize) -> String {
    let mut json = stats_json(s);
    json.pop();
    json.push_str(&format!(
        concat!(
            ",\"serve_connections\":{},\"serve_requests\":{},\"serve_live\":{},",
            "\"serve_threads\":{},\"origin_connects\":{},\"origin_reuses\":{},",
            "\"origin_retries\":{}}}"
        ),
        serve.connections_total.load(Ordering::Relaxed),
        serve.requests_total.load(Ordering::Relaxed),
        serve.live.load(Ordering::Relaxed),
        threads,
        serve.origin_connects.load(Ordering::Relaxed),
        serve.origin_reuses.load(Ordering::Relaxed),
        serve.origin_retries.load(Ordering::Relaxed),
    ));
    json
}

/// Renders a stats snapshot as one line of JSON.
pub fn stats_json(s: &GatewayStats) -> String {
    format!(
        concat!(
            "{{\"requests\":{},\"served\":{},\"throttled\":{},\"blocked\":{},",
            "\"challenged\":{},\"probe_requests\":{},\"completed_sessions\":{},",
            "\"ml_overrides\":{},\"live_sessions\":{},\"evicted_sessions\":{},",
            "\"shard_count\":{},\"total_bytes\":{},\"instrumentation_bytes\":{},",
            "\"captcha_issued\":{},\"captcha_passed\":{},\"captcha_failed\":{},",
            "\"pending_challenges\":{},\"token_entries\":{}}}"
        ),
        s.requests,
        s.served,
        s.throttled,
        s.blocked,
        s.challenged,
        s.probe_requests,
        s.completed_sessions,
        s.ml_overrides,
        s.live_sessions,
        s.evicted_sessions,
        s.shard_count,
        s.total_bytes,
        s.instrumentation_bytes,
        s.captcha_issued,
        s.captcha_passed,
        s.captcha_failed,
        s.pending_challenges,
        s.token_entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_gateway_stats_field() {
        let stats = GatewayStats {
            requests: 1,
            served: 2,
            throttled: 3,
            blocked: 4,
            challenged: 5,
            probe_requests: 6,
            completed_sessions: 7,
            ml_overrides: 8,
            live_sessions: 9,
            evicted_sessions: 18,
            shard_count: 10,
            total_bytes: 11,
            instrumentation_bytes: 12,
            captcha_issued: 13,
            captcha_passed: 14,
            captcha_failed: 15,
            pending_challenges: 16,
            token_entries: 17,
        };
        let json = stats_json(&stats);
        // Struct-update from a fully-listed literal: adding a field to
        // GatewayStats breaks this literal, forcing the JSON to follow.
        for (field, value) in [
            ("requests", 1u64),
            ("served", 2),
            ("throttled", 3),
            ("blocked", 4),
            ("challenged", 5),
            ("probe_requests", 6),
            ("completed_sessions", 7),
            ("ml_overrides", 8),
            ("live_sessions", 9),
            ("evicted_sessions", 18),
            ("shard_count", 10),
            ("total_bytes", 11),
            ("instrumentation_bytes", 12),
            ("captcha_issued", 13),
            ("captcha_passed", 14),
            ("captcha_failed", 15),
            ("pending_challenges", 16),
            ("token_entries", 17),
        ] {
            assert!(
                json.contains(&format!("\"{field}\":{value}")),
                "{field} missing from {json}"
            );
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn renders_every_serve_counter() {
        let serve = SharedCounters::default();
        serve.connections_total.store(21, Ordering::Relaxed);
        serve.requests_total.store(22, Ordering::Relaxed);
        serve.live.store(23, Ordering::Relaxed);
        serve.origin_connects.store(24, Ordering::Relaxed);
        serve.origin_reuses.store(25, Ordering::Relaxed);
        serve.origin_retries.store(26, Ordering::Relaxed);
        let json = serve_stats_json(&GatewayStats::default(), &serve, 4);
        for (field, value) in [
            ("serve_connections", 21u64),
            ("serve_requests", 22),
            ("serve_live", 23),
            ("serve_threads", 4),
            ("origin_connects", 24),
            ("origin_reuses", 25),
            ("origin_retries", 26),
        ] {
            assert!(
                json.contains(&format!("\"{field}\":{value}")),
                "{field} missing from {json}"
            );
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
