//! Per-level and aggregate statistics of a discovery run (Exp-3/Exp-4
//! instrumentation).

use std::time::Duration;

/// Counters for one lattice level.
#[derive(Debug, Clone, Default)]
pub struct LevelStats {
    /// Lattice level `l` (antecedents have `l − 1` attributes since the
    /// candidate at a size-`l` node is `X\A → A`).
    pub level: usize,
    /// Nodes materialized at this level.
    pub nodes: usize,
    /// Candidates whose validity was decided (verified or short-circuited).
    pub candidates: usize,
    /// Candidates decided by scanning partitions (full verification).
    pub verified: usize,
    /// Candidates short-circuited because the antecedent was a superkey
    /// (Opt-3).
    pub key_shortcuts: usize,
    /// Candidates short-circuited because a known FD implied them (Opt-4).
    pub fd_shortcuts: usize,
    /// Minimal OFDs emitted at this level.
    pub found: usize,
    /// Nodes deleted after processing (Opt-2's `C⁺(X) = ∅` pruning).
    pub pruned_nodes: usize,
    /// Wall-clock time spent on this level.
    pub elapsed: Duration,
}

/// Aggregate statistics for a run.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryStats {
    /// One entry per traversed level, in order.
    pub levels: Vec<LevelStats>,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Partition-cache counters: `Some` for every run (whatever the
    /// budget; a budget of 0 keeps only the pinned level-0/1 partitions),
    /// `None` only in a default-constructed value. Cache behaviour is
    /// result-neutral, so these are excluded from the byte-identical-Σ
    /// contract — only Σ and the per-level counters are.
    pub cache: Option<crate::cache::CacheStats>,
}

impl DiscoveryStats {
    /// Total candidates decided across levels.
    pub fn total_candidates(&self) -> usize {
        self.levels.iter().map(|l| l.candidates).sum()
    }

    /// Total minimal OFDs found.
    pub fn total_found(&self) -> usize {
        self.levels.iter().map(|l| l.found).sum()
    }

    /// Total candidates that needed full verification.
    pub fn total_verified(&self) -> usize {
        self.levels.iter().map(|l| l.verified).sum()
    }

    /// Fraction of OFDs found in the first `k` levels — the Exp-4
    /// compactness measure.
    pub fn found_in_first_levels(&self, k: usize) -> f64 {
        let total = self.total_found();
        if total == 0 {
            return 0.0;
        }
        let early: usize = self
            .levels
            .iter()
            .filter(|l| l.level <= k)
            .map(|l| l.found)
            .sum();
        early as f64 / total as f64
    }

    /// Fraction of time spent in the first `k` levels (Exp-4).
    pub fn time_in_first_levels(&self, k: usize) -> f64 {
        let total: Duration = self.levels.iter().map(|l| l.elapsed).sum();
        if total.is_zero() {
            return 0.0;
        }
        let early: Duration = self
            .levels
            .iter()
            .filter(|l| l.level <= k)
            .map(|l| l.elapsed)
            .sum();
        early.as_secs_f64() / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(level: usize, found: usize, ms: u64) -> LevelStats {
        LevelStats {
            level,
            found,
            elapsed: Duration::from_millis(ms),
            ..LevelStats::default()
        }
    }

    #[test]
    fn aggregates_sum_levels() {
        let stats = DiscoveryStats {
            levels: vec![level(1, 2, 10), level(2, 3, 30), level(3, 5, 60)],
            elapsed: Duration::from_millis(100),
            cache: None,
        };
        assert_eq!(stats.total_found(), 10);
        assert!((stats.found_in_first_levels(2) - 0.5).abs() < 1e-12);
        assert!((stats.time_in_first_levels(2) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn verified_and_shortcut_counters_sum() {
        let stats = DiscoveryStats {
            levels: vec![
                LevelStats {
                    level: 1,
                    candidates: 10,
                    verified: 6,
                    key_shortcuts: 3,
                    fd_shortcuts: 1,
                    ..LevelStats::default()
                },
                LevelStats {
                    level: 2,
                    candidates: 4,
                    verified: 4,
                    ..LevelStats::default()
                },
            ],
            elapsed: Duration::from_millis(5),
            cache: None,
        };
        assert_eq!(stats.total_candidates(), 14);
        assert_eq!(stats.total_verified(), 10);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = DiscoveryStats::default();
        assert_eq!(stats.total_found(), 0);
        assert_eq!(stats.found_in_first_levels(3), 0.0);
        assert_eq!(stats.time_in_first_levels(3), 0.0);
    }
}
