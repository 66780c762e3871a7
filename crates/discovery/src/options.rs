//! Configuration for the FastOFD discovery run.

use ofd_core::{ExecGuard, FaultPlan, Fd, Obs, OfdKind};

use crate::checkpoint::CheckpointOptions;

/// Options controlling a [`crate::FastOfd`] run.
///
/// The three optimization toggles correspond to §3.2 / Exp-3:
///
/// * **Opt-2** (augmentation pruning): maintain candidate sets `C⁺(X)` and
///   delete exhausted lattice nodes; disabling it verifies every non-trivial
///   candidate and filters non-minimal results post hoc (same output,
///   more verification work).
/// * **Opt-3** (key pruning): when an antecedent is a superkey its stripped
///   partition is empty — verification short-circuits and partition products
///   under superkey nodes are skipped.
/// * **Opt-4** (FD shortcut): candidates implied by the caller-supplied
///   [`DiscoveryOptions::known_fds`] are valid by subsumption (FD ⊆ OFD) and
///   skip data verification. The per-class equality fast path inside the
///   validator is always on; this toggle controls the *dependency-level*
///   shortcut.
///
/// Opt-1 (skipping trivial candidates `A ∈ X`) is structural: the candidate
/// generator never emits them.
#[derive(Debug, Clone)]
pub struct DiscoveryOptions {
    /// Dependency semantics to discover (synonym by default).
    pub kind: OfdKind,
    /// Minimum support κ ∈ (0, 1]; `1.0` discovers exact OFDs, lower values
    /// discover κ-approximate OFDs.
    pub min_support: f64,
    /// Stop after this lattice level (Exp-4's compactness pruning);
    /// `None` traverses all `n` levels.
    pub max_level: Option<usize>,
    /// Opt-2: candidate-set pruning.
    pub use_opt2: bool,
    /// Opt-3: superkey short-circuits.
    pub use_opt3: bool,
    /// Opt-4: known-FD subsumption shortcut.
    pub use_opt4: bool,
    /// FDs known to hold over the instance, consumed by Opt-4.
    pub known_fds: Vec<Fd>,
    /// Number of worker threads for candidate verification (1 = fully
    /// sequential). Verification within one lattice level is
    /// order-independent, so parallelism never changes the output.
    pub threads: usize,
    /// Restrict discovery to OFDs whose consequent lies in this set
    /// (`None` = all attributes). The result equals the full output
    /// filtered by consequent — minimality is per-consequent, so the
    /// restriction is lossless and much cheaper.
    pub target_rhs: Option<ofd_core::AttrSet>,
    /// Execution guard probed once per lattice level and once per
    /// candidate decision. The default guard is unlimited; set a guard
    /// with limits to get a sound-but-possibly-incomplete Σ (see
    /// [`crate::Discovery::complete`]).
    pub guard: ExecGuard,
    /// Observability handle recording per-level counters, prune attribution
    /// (Opt-1..4), partition-product work and verification spans. The
    /// default handle is disabled (all recording is a no-op); counter
    /// totals are independent of [`DiscoveryOptions::threads`].
    pub obs: Obs,
    /// Crash-safety checkpointing: when set, a snapshot of the resumable
    /// state is written after every completed lattice level, and (with
    /// [`CheckpointOptions::resume`]) the run restarts from the newest
    /// valid snapshot instead of recomputing. `None` disables.
    pub checkpoint: Option<CheckpointOptions>,
    /// Seeded fault injection probed at every candidate decision (worker
    /// panics, delays). The default plan is inert. Snapshot-write faults
    /// are installed on the checkpoint store instead
    /// ([`ofd_core::SnapshotStore::with_faults`]).
    pub faults: FaultPlan,
    /// Byte budget (MiB) of the partition cache, which produces each Π*_X
    /// a data decision reads and retains computed partitions across
    /// lattice levels with LRU eviction. It bounds memory only: `0` keeps
    /// just the pinned level-0/1 partitions, and every later Π*_X is then
    /// recomputed from them when read. Like [`DiscoveryOptions::threads`],
    /// this is result-neutral — partitions are canonical however they are
    /// produced, so Σ and the per-level stats are byte-identical at any
    /// budget (and the setting is deliberately excluded from the checkpoint
    /// fingerprint).
    pub partition_cache_mib: usize,
}

/// Default [`DiscoveryOptions::partition_cache_mib`].
pub const DEFAULT_PARTITION_CACHE_MIB: usize = 256;

impl Default for DiscoveryOptions {
    fn default() -> Self {
        DiscoveryOptions {
            kind: OfdKind::Synonym,
            min_support: 1.0,
            max_level: None,
            use_opt2: true,
            use_opt3: true,
            use_opt4: true,
            known_fds: Vec::new(),
            threads: 1,
            target_rhs: None,
            guard: ExecGuard::unlimited(),
            obs: Obs::disabled(),
            checkpoint: None,
            faults: FaultPlan::none(),
            partition_cache_mib: DEFAULT_PARTITION_CACHE_MIB,
        }
    }
}

impl DiscoveryOptions {
    /// Exact synonym-OFD discovery with all optimizations (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the dependency semantics.
    pub fn kind(mut self, kind: OfdKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the approximate-discovery support threshold κ, or says why it
    /// is out of range. This is the one κ range check: the CLI and the
    /// served endpoints turn its error into a typed reply, and
    /// [`DiscoveryOptions::min_support`] asserts it.
    pub fn try_min_support(mut self, kappa: f64) -> Result<Self, String> {
        // Written so that NaN fails too.
        if !(kappa > 0.0 && kappa <= 1.0) {
            return Err(format!("κ must be in (0, 1], got {kappa}"));
        }
        self.min_support = kappa;
        Ok(self)
    }

    /// Sets the approximate-discovery support threshold κ.
    ///
    /// # Panics
    ///
    /// When κ is outside (0, 1]; use
    /// [`DiscoveryOptions::try_min_support`] for untrusted input.
    pub fn min_support(self, kappa: f64) -> Self {
        self.try_min_support(kappa)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Caps the lattice traversal at `level`.
    pub fn max_level(mut self, level: usize) -> Self {
        self.max_level = Some(level);
        self
    }

    /// Toggles Opt-2.
    pub fn opt2(mut self, on: bool) -> Self {
        self.use_opt2 = on;
        self
    }

    /// Toggles Opt-3.
    pub fn opt3(mut self, on: bool) -> Self {
        self.use_opt3 = on;
        self
    }

    /// Toggles Opt-4, optionally supplying the known FDs.
    pub fn opt4(mut self, on: bool) -> Self {
        self.use_opt4 = on;
        self
    }

    /// Supplies FDs known to hold (used by Opt-4).
    pub fn known_fds(mut self, fds: Vec<Fd>) -> Self {
        self.known_fds = fds;
        self
    }

    /// Restricts discovery to consequents in `rhs`.
    pub fn target_rhs(mut self, rhs: ofd_core::AttrSet) -> Self {
        self.target_rhs = Some(rhs);
        self
    }

    /// Installs an execution guard (deadline / budget / cancellation).
    pub fn guard(mut self, guard: ExecGuard) -> Self {
        self.guard = guard;
        self
    }

    /// Installs an observability handle (metrics / tracing).
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Enables crash-safety checkpointing (and, optionally, resume).
    pub fn checkpoint(mut self, ck: CheckpointOptions) -> Self {
        self.checkpoint = Some(ck);
        self
    }

    /// Installs a seeded fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the partition-cache byte budget in MiB (`0` keeps only the
    /// pinned level-0/1 partitions). Result-neutral: any budget yields
    /// byte-identical Σ.
    pub fn partition_cache_mib(mut self, mib: usize) -> Self {
        self.partition_cache_mib = mib;
        self
    }

    /// Does nothing. Exact discovery once ran a pair sampler before the
    /// lattice; its candidates are now decided by early-exit scans, which
    /// need no sample, so there is nothing left to configure. Kept so that
    /// callers written against the sampler still build.
    #[deprecated(note = "exact discovery no longer samples; this option has no effect")]
    pub fn sample_rounds(self, _rounds: usize) -> Self {
        self
    }

    /// Sets the verification thread count.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one thread");
        self.threads = n;
        self
    }

    /// Disables every optimization (the Exp-3 baseline).
    pub fn no_optimizations(mut self) -> Self {
        self.use_opt2 = false;
        self.use_opt3 = false;
        self.use_opt4 = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_everything() {
        let o = DiscoveryOptions::default();
        assert!(o.use_opt2 && o.use_opt3 && o.use_opt4);
        assert_eq!(o.min_support, 1.0);
        assert_eq!(o.kind, OfdKind::Synonym);
        assert!(o.max_level.is_none());
        assert_eq!(o.threads, 1);
        assert_eq!(o.partition_cache_mib, DEFAULT_PARTITION_CACHE_MIB);
    }

    #[test]
    fn cache_budget_is_configurable() {
        assert_eq!(DiscoveryOptions::new().partition_cache_mib(0).partition_cache_mib, 0);
        assert_eq!(DiscoveryOptions::new().partition_cache_mib(8).partition_cache_mib, 8);
    }

    #[test]
    fn builder_chains() {
        let o = DiscoveryOptions::new()
            .kind(OfdKind::Inheritance { theta: 2 })
            .min_support(0.8)
            .max_level(6)
            .no_optimizations();
        assert_eq!(o.kind, OfdKind::Inheritance { theta: 2 });
        assert_eq!(o.min_support, 0.8);
        assert_eq!(o.max_level, Some(6));
        assert!(!o.use_opt2 && !o.use_opt3 && !o.use_opt4);
    }

    #[test]
    #[should_panic(expected = "κ must be in")]
    fn rejects_bad_support() {
        let _ = DiscoveryOptions::new().min_support(1.5);
    }

    #[test]
    fn support_range_is_checked_in_one_place() {
        for bad in [0.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = DiscoveryOptions::new().try_min_support(bad).unwrap_err();
            assert!(err.starts_with("κ must be in (0, 1]"), "{bad}: {err}");
        }
        for good in [1e-9, 0.5, 1.0] {
            assert_eq!(
                DiscoveryOptions::new()
                    .try_min_support(good)
                    .unwrap()
                    .min_support,
                good
            );
        }
    }
}
