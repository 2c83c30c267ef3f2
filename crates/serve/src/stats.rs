//! The `/admin/stats` rendering: [`GatewayStats`] as a JSON object.
//!
//! Formatted by hand: the workspace has no serializer. The field list is
//! pinned by a test so a new `GatewayStats` column cannot silently go
//! missing here.

use crate::server::SharedCounters;
use botwall_gateway::GatewayStats;
use std::sync::atomic::Ordering;

/// Renders the gateway snapshot plus the front door's own merged
/// counters (connections/requests/origin-pool traffic, then the system
/// calls by class, across every reactor thread) as one JSON object —
/// the `/admin/stats` body. New fields go at the end: readers take the
/// first occurrence of a key.
pub(crate) fn serve_stats_json(s: &GatewayStats, serve: &SharedCounters, threads: usize) -> String {
    let sys = serve.sys_calls();
    let mut json = stats_json(s);
    json.pop();
    json.push_str(&format!(
        concat!(
            ",\"serve_connections\":{},\"serve_requests\":{},\"serve_live\":{},",
            "\"serve_threads\":{},\"origin_connects\":{},\"origin_reuses\":{},",
            "\"origin_retries\":{},\"sys_reads\":{},\"sys_reads_eagain\":{},",
            "\"sys_writes\":{},\"sys_writes_blocked\":{},\"sys_epoll_waits\":{},",
            "\"sys_epoll_events\":{},\"sys_epoll_ctls\":{},\"sys_accepts\":{},",
            "\"sys_connects\":{},\"timer_entries\":{}}}"
        ),
        serve.connections_total.load(Ordering::Relaxed),
        serve.requests_total.load(Ordering::Relaxed),
        serve.live.load(Ordering::Relaxed),
        threads,
        serve.origin_connects.load(Ordering::Relaxed),
        serve.origin_reuses.load(Ordering::Relaxed),
        serve.origin_retries.load(Ordering::Relaxed),
        sys.reads,
        sys.reads_eagain,
        sys.writes,
        sys.writes_blocked,
        sys.epoll_waits,
        sys.epoll_events,
        sys.epoll_ctls,
        sys.accepts,
        sys.connects,
        sys.timer_entries,
    ));
    json
}

/// Renders a stats snapshot as one line of JSON.
pub fn stats_json(s: &GatewayStats) -> String {
    format!(
        concat!(
            "{{\"requests\":{},\"served\":{},\"throttled\":{},\"blocked\":{},",
            "\"challenged\":{},\"probe_requests\":{},\"completed_sessions\":{},",
            "\"live_sessions\":{},\"evicted_sessions\":{},",
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
    use crate::server::WorkerCounters;
    use std::sync::Arc;

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
        // Two reactors' cells: the rendering is their sum.
        let cells = |base: u64| {
            let worker = WorkerCounters::default();
            worker.reads.set(base + 1);
            worker.reads_eagain.set(base + 2);
            worker.writes.set(base + 3);
            worker.writes_blocked.set(base + 4);
            worker.reactor.waits.set(base + 5);
            worker.reactor.io_events.set(base + 6);
            worker.reactor.ctl_adds.set(base + 7);
            worker.reactor.ctl_mods.set(100);
            worker.reactor.ctl_dels.set(1000);
            worker.accepts.set(base + 8);
            worker.connects.set(base + 9);
            worker.reactor.timer_entries.set(base + 10);
            Arc::new(worker)
        };
        let serve = SharedCounters::over(vec![cells(30), cells(0)]);
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
            ("sys_reads", 32),
            ("sys_reads_eagain", 34),
            ("sys_writes", 36),
            ("sys_writes_blocked", 38),
            ("sys_epoll_waits", 40),
            ("sys_epoll_events", 42),
            ("sys_epoll_ctls", 44 + 200 + 2000),
            ("sys_accepts", 46),
            ("sys_connects", 48),
            ("timer_entries", 50),
        ] {
            assert!(
                json.contains(&format!("\"{field}\":{value}")),
                "{field} missing from {json}"
            );
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        // The call counts come last: a reader that takes the first
        // occurrence of a key still finds every older field.
        let sys_at = json.find("\"sys_reads\"").unwrap();
        assert!(json.find("\"origin_retries\"").unwrap() < sys_at);
        assert_eq!(json.matches("\"requests\":").count(), 1);
    }
}
