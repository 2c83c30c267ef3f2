//! Bandwidth and outcome accounting.

/// Byte-level accounting for the §3.2 overhead claim (probe traffic was
/// 0.3% of CoDeeN's total bandwidth).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandwidthLedger {
    /// Total bytes moved (requests + responses).
    pub total_bytes: u64,
    /// Bytes attributable to instrumentation: HTML inflation, generated
    /// scripts, probe object bodies.
    pub instrumentation_bytes: u64,
}

impl BandwidthLedger {
    /// Overhead share of total traffic, in percent.
    pub fn overhead_pct(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.instrumentation_bytes as f64 * 100.0 / self.total_bytes as f64
        }
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &BandwidthLedger) {
        self.total_bytes += other.total_bytes;
        self.instrumentation_bytes += other.instrumentation_bytes;
    }
}

/// Request outcome tallies, of one node or merged over a network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Requests served normally.
    pub allowed: u64,
    /// Requests rejected by rate limiting (429).
    pub throttled: u64,
    /// Requests rejected because the session was blocked (403).
    pub blocked: u64,
}

impl NodeStats {
    /// Total requests seen.
    pub fn total(&self) -> u64 {
        self.allowed + self.throttled + self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_percentages() {
        let l = BandwidthLedger {
            total_bytes: 10_000,
            instrumentation_bytes: 30,
        };
        assert!((l.overhead_pct() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_is_zero_pct() {
        assert_eq!(BandwidthLedger::default().overhead_pct(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = BandwidthLedger {
            total_bytes: 100,
            instrumentation_bytes: 10,
        };
        let b = BandwidthLedger {
            total_bytes: 50,
            instrumentation_bytes: 5,
        };
        a.merge(&b);
        assert_eq!(a.total_bytes, 150);
        assert_eq!(a.instrumentation_bytes, 15);
    }

    #[test]
    fn node_stats_total() {
        let s = NodeStats {
            allowed: 5,
            throttled: 3,
            blocked: 2,
        };
        assert_eq!(s.total(), 10);
    }
}
