//! The FastOFD discovery algorithm (§4, Algorithms 2–4).
//!
//! Level-wise traversal of the set-containment lattice: level `l` holds
//! attribute sets `X` with `|X| = l`, and at each node the candidates
//! `X\A → A` for `A ∈ X ∩ C⁺(X)` are verified. The candidate sets
//! `C⁺(X) = ⋂_{A∈X} C⁺(X\A)` (Definition 5.2) realize the Augmentation
//! pruning (Opt-2); note they deliberately *omit* TANE's extra RHS⁺ rule,
//! which is unsound for OFDs (§4.1).
//!
//! Nodes carry no partitions: each antecedent Π*_X that a data decision
//! reads is produced on demand, by linear-time products through the
//! [`PartitionCache`], so the whole run is polynomial in the number of
//! tuples and exponential (in the worst case) only in the number of
//! attributes — matching the paper's complexity analysis.

use ofd_core::FxHashMap;
use std::sync::Arc;
use std::time::Instant;

use ofd_core::{
    covered_within, support_threshold, AttrId, AttrSet, EvidenceSet, Ofd, OfdKind, PairKernel,
    ProductScratch, Relation, Schema, SenseIndex, StrippedPartition, VerifyScratch,
};
use ofd_logic::{implies, Dependency};
use ofd_ontology::Ontology;

use crate::cache::PartitionCache;
use crate::checkpoint;
use crate::options::DiscoveryOptions;
use crate::stats::{DiscoveryStats, LevelStats};

/// One minimal OFD emitted by discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredOfd {
    /// The dependency.
    pub ofd: Ofd,
    /// Its support over the instance (1.0 for exact OFDs).
    pub support: f64,
    /// Lattice level at which it was found (`|X| + 1` for `X → A`).
    pub level: usize,
}

/// Output of a [`FastOfd`] run.
///
/// When the run's [`ExecGuard`](ofd_core::ExecGuard) interrupts it,
/// `complete` is false and `interrupt` records why. The partial Σ is
/// *sound*: every emitted OFD was verified against the instance and is
/// minimal w.r.t. the fully-explored lower levels — only dependencies at
/// unexplored positions may be missing.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The minimal set Σ found so far, ordered by (level, antecedent,
    /// consequent); complete iff `complete`.
    pub ofds: Vec<DiscoveredOfd>,
    /// Instrumentation counters.
    pub stats: DiscoveryStats,
    /// Whether the lattice traversal ran to the end.
    pub complete: bool,
    /// Why the traversal stopped early, when `complete` is false.
    pub interrupt: Option<ofd_core::Interrupt>,
    /// The completed level a resumed run restarted after (`None` for a
    /// fresh run, including a requested resume with no usable snapshot).
    pub resumed_from_level: Option<usize>,
    /// Level-boundary snapshots written by this run.
    pub snapshots_written: usize,
    /// Snapshot writes that failed (I/O or injected faults); the run
    /// continues — a missed checkpoint only costs recompute on resume.
    pub snapshot_errors: usize,
}

impl Discovery {
    /// The discovered dependencies as bare [`Ofd`]s.
    pub fn ofds(&self) -> impl Iterator<Item = &Ofd> {
        self.ofds.iter().map(|d| &d.ofd)
    }

    /// The discovered dependencies as logic-level [`Dependency`] shapes.
    pub fn dependencies(&self) -> Vec<Dependency> {
        self.ofds.iter().map(|d| d.ofd.into()).collect()
    }

    /// Number of discovered OFDs.
    pub fn len(&self) -> usize {
        self.ofds.len()
    }

    /// Whether nothing was discovered.
    pub fn is_empty(&self) -> bool {
        self.ofds.is_empty()
    }

    /// Pretty-prints the result with attribute names; an interrupted run
    /// is explicitly marked incomplete with its reason.
    pub fn display(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for d in &self.ofds {
            out.push_str(&format!(
                "L{} s={:.3} {}\n",
                d.level,
                d.support,
                d.ofd.display(schema)
            ));
        }
        if let Some(i) = self.interrupt {
            out.push_str(&format!("INCOMPLETE: interrupted ({i}); Σ above is a sound subset\n"));
        }
        out
    }
}

/// A node of the discovery lattice.
struct Node {
    attrs: AttrSet,
    /// Candidate consequents `C⁺(X)`; `schema.all()` when Opt-2 is off.
    c_plus: AttrSet,
    /// Whether X is known to be a superkey (Π*_X empty): set for level-0/1
    /// nodes from their pinned partitions and, under Opt-3, for children of
    /// a known superkey. `false` means "not known" — the data path
    /// re-checks the partition it resolves.
    superkey: bool,
}

/// The FastOFD discovery driver.
pub struct FastOfd<'a> {
    rel: &'a Relation,
    onto: &'a Ontology,
    opts: DiscoveryOptions,
}

impl<'a> FastOfd<'a> {
    /// Creates a driver with default options.
    pub fn new(rel: &'a Relation, onto: &'a Ontology) -> FastOfd<'a> {
        FastOfd {
            rel,
            onto,
            opts: DiscoveryOptions::default(),
        }
    }

    /// Replaces the options.
    pub fn options(mut self, opts: DiscoveryOptions) -> FastOfd<'a> {
        self.opts = opts;
        self
    }

    /// Runs Algorithm 2: discovers the complete, minimal set of OFDs.
    pub fn run(&self) -> Discovery {
        let started = Instant::now();
        let obs = &self.opts.obs;
        let _run_span = obs.span("fastofd.run");
        let schema = self.rel.schema();
        let n = schema.len();
        let all = schema.all();
        // One shared sense index in the semantics of the requested kind;
        // `covered_within` is thread-safe over it.
        let index = {
            let _span = obs.span("fastofd.index");
            match self.opts.kind {
                OfdKind::Synonym => SenseIndex::synonym(self.rel, self.onto),
                OfdKind::Inheritance { theta } => {
                    SenseIndex::inheritance(self.rel, self.onto, theta)
                }
            }
        };
        let known: Vec<Dependency> = self
            .opts
            .known_fds
            .iter()
            .map(|fd| Dependency::from(*fd))
            .collect();
        // Exact integer support: a candidate meets κ iff it covers at least
        // `ceil(κ · n_rows)` tuples, i.e. leaves at most `max_uncovered`
        // uncovered. A budget of 0 (κ = 1, or κ close enough that any
        // violation fails it) is exact discovery, the only mode in which a
        // sampled violating pair refutes a candidate.
        let max_uncovered =
            self.rel.n_rows() - support_threshold(self.rel.n_rows(), self.opts.min_support);
        let exact = max_uncovered == 0;
        // Worker-utilization bookkeeping (gauge — not thread-invariant by
        // design, unlike every counter below).
        let mut busy_us: u64 = 0;
        let mut capacity_us: u64 = 0;

        let mut sigma: Vec<DiscoveredOfd> = Vec::new();
        let mut stats = DiscoveryStats::default();
        let mut scratch = ProductScratch::default();
        // Verification counters: one scratch for the sequential path, one
        // per worker thread, each reused across levels.
        let mut verify_scratch: Vec<VerifyScratch> = Vec::new();
        verify_scratch.resize_with(self.opts.threads.max(1), VerifyScratch::default);

        // The one source of partitions: a byte-budgeted cache that
        // produces Π*_X when a data decision first reads it (result-neutral:
        // partitions are canonical however produced, so Σ is identical at
        // any budget). Level-0/1 partitions are pinned — they are the
        // universal operand fallbacks for every later product.
        let mut cache = PartitionCache::new(self.opts.partition_cache_mib, obs.clone());
        let level0 = Arc::new(StrippedPartition::of(self.rel, AttrSet::empty()));
        let mut prev: Vec<Node> = vec![Node {
            attrs: AttrSet::empty(),
            c_plus: all,
            superkey: level0.is_superkey(),
        }];
        {
            let _span = obs.span("fastofd.cache.seed");
            cache.insert(AttrSet::empty().bits(), level0, true);
            for a in schema.attrs() {
                let sp = Arc::new(StrippedPartition::of_attr(self.rel, a));
                cache.insert(AttrSet::single(a).bits(), sp, true);
            }
        }
        let mut prev_index: FxHashMap<u64, usize> =
            std::iter::once((AttrSet::empty().bits(), 0)).collect();

        let guard = &self.opts.guard;
        let max_level = self.opts.max_level.unwrap_or(n).min(n);

        // Checkpoint/resume: the fingerprint binds snapshots to exactly
        // these inputs and result-affecting options.
        let fp = self
            .opts
            .checkpoint
            .as_ref()
            .map(|_| checkpoint::fingerprint(self.rel, self.onto, &self.opts));
        let mut start_level = 1;
        let mut resumed_from_level = None;
        let mut snapshots_written = 0;
        let mut snapshot_errors = 0;
        if let Some(ck) = self.opts.checkpoint.as_ref().filter(|ck| ck.resume) {
            if let Ok(Some(loaded)) = ck.store.load_latest(checkpoint::STREAM) {
                match checkpoint::restore(
                    &loaded.body,
                    fp.expect("fp set"),
                    self.opts.kind,
                    self.rel.n_attrs(),
                ) {
                    Some(rs) => {
                        sigma = rs.sigma;
                        stats.levels = rs.levels;
                        // Frontier partitions are produced on demand like
                        // any other, from the pinned chains; the cache's
                        // canonical Π*_X leaves every later decision
                        // unchanged.
                        prev = rs
                            .frontier
                            .iter()
                            .map(|&(attrs, c_plus)| Node {
                                attrs,
                                c_plus,
                                superkey: false,
                            })
                            .collect();
                        prev_index = prev
                            .iter()
                            .enumerate()
                            .map(|(i, node)| (node.attrs.bits(), i))
                            .collect();
                        start_level = rs.completed_level + 1;
                        resumed_from_level = Some(rs.completed_level);
                        // Re-seed obs accumulators so final totals cover
                        // the whole logical run, not just the tail.
                        for (name, v) in &rs.counters {
                            obs.add(name, *v);
                        }
                        if obs.is_enabled() {
                            obs.inc("discovery.resume");
                            obs.set_gauge(
                                "discovery.resumed_from_level",
                                rs.completed_level as f64,
                            );
                        }
                        // An empty restored frontier means the traversal
                        // had already converged: nothing left to run.
                        if prev.is_empty() {
                            start_level = max_level + 1;
                        }
                    }
                    None => {
                        if obs.is_enabled() {
                            obs.inc("discovery.resume.rejected");
                        }
                    }
                }
            }
        }

        // Fault injection (worker panics, delays) probed at every
        // candidate decision; panics are caught, never propagated.
        let faults = &self.opts.faults;

        // Evidence sampling is a pure *refutation oracle* for the exact
        // path: a positive answer is a sound "fails on the full relation"
        // verdict, the absence of one proves nothing, and surviving
        // candidates still pay for the exact check — which is why Σ,
        // supports and per-level stats are byte-identical with sampling on
        // or off (the result-neutrality contract enforced by the
        // differential tests). It never runs for κ < 1: a violating pair
        // does not refute an approximate candidate.
        if obs.is_enabled() {
            for name in [
                "discovery.sample.rounds",
                "discovery.sample.evidence_pairs",
                "discovery.sample.candidates_pruned",
            ] {
                obs.touch_counter(name);
            }
        }
        let evidence: Option<EvidenceSet> = (exact
            && start_level <= max_level
            && self.opts.sample_rounds > 0)
            .then(|| {
                let _span = obs.span("fastofd.sample");
                let (mut evidence, rounds_run) =
                    PairKernel::new(self.rel, &index).gather(self.opts.sample_rounds, guard);
                evidence.keep_maximal();
                if obs.is_enabled() {
                    obs.add("discovery.sample.rounds", rounds_run);
                    obs.add("discovery.sample.evidence_pairs", evidence.pair_count());
                }
                evidence
            })
            .filter(|e| !e.is_empty());
        // The canonical Π* of every known superkey; no cache traffic.
        let superkey_partition = Arc::new(StrippedPartition::empty(self.rel.n_rows()));

        for level in start_level..=max_level {
            // Per-level checkpoint: never start building a level once a
            // limit has expired.
            if guard.check().is_err() {
                break;
            }
            let level_started = Instant::now();
            let _level_span = obs.span(&format!("fastofd.level.{level}"));
            let mut ls = LevelStats {
                level,
                ..LevelStats::default()
            };

            // calculateNextLevel (Algorithm 3).
            let mut current: Vec<Node> = if level == 1 {
                schema
                    .attrs()
                    .map(|a| {
                        let attrs = AttrSet::single(a);
                        // Seeded pinned at startup: always a hit.
                        let sp = cache.produce(self.rel, attrs, &mut scratch);
                        Node {
                            attrs,
                            c_plus: all,
                            superkey: sp.is_superkey(),
                        }
                    })
                    .collect()
            } else {
                self.next_level(&prev, &prev_index)
            };
            ls.nodes = current.len();

            // computeOFDs (Algorithm 4), line 2: C⁺(X) = ⋂ C⁺(X\A).
            if self.opts.use_opt2 && level >= 1 {
                for node in &mut current {
                    let mut cp = all;
                    for (_, parent) in node.attrs.parents() {
                        match prev_index.get(&parent.bits()) {
                            Some(&pi) => cp = cp.intersect(prev[pi].c_plus),
                            None => cp = AttrSet::empty(),
                        }
                    }
                    node.c_plus = cp;
                }
            }

            // Candidate verification: collect the level's jobs, decide
            // them (in parallel when configured — order within a level is
            // immaterial), then apply emissions sequentially.
            //
            // Prune attribution (counters, thread-invariant): Opt-1 is
            // structural — the trivial candidates `X → A, A ∈ X` at each
            // node are never generated; Opt-2 removes consequents outside
            // `C⁺(X)` and candidates whose parent node was deleted.
            let mut opt1_trivial_skipped: u64 = 0;
            let mut opt2_candidates_pruned: u64 = 0;
            let mut jobs: Vec<(usize, AttrId, AttrSet, usize)> = Vec::new();
            for (ni, node) in current.iter().enumerate() {
                let mut base = node.attrs;
                if let Some(target) = self.opts.target_rhs {
                    base = base.intersect(target);
                }
                let cands = if self.opts.use_opt2 {
                    base.intersect(node.c_plus)
                } else {
                    base
                };
                opt1_trivial_skipped += node.attrs.len() as u64;
                opt2_candidates_pruned += (base.len() - cands.len()) as u64;
                for a in cands.iter() {
                    let lhs = node.attrs.without(a);
                    if let Some(&pi) = prev_index.get(&lhs.bits()) {
                        jobs.push((ni, a, lhs, pi));
                    } else {
                        // Only Opt-2's node deletion removes parents.
                        opt2_candidates_pruned += 1;
                    }
                }
            }
            ls.candidates = jobs.len();

            // Partition-free pre-decisions: Opt-4 logic subsumption, then
            // the sample refutation oracle. Deciding these before
            // partition resolution means refuted candidates never force a
            // product. Soundness keeps attribution honest: a superkey
            // antecedent implies a valid candidate, which no sound oracle
            // can refute, so every KeyShortcut candidate still reaches the
            // data path below.
            let prechecked: Vec<Option<(bool, f64, Decision)>> = jobs
                .iter()
                .map(|&(_, a, lhs, _)| {
                    let ofd = Ofd {
                        lhs,
                        rhs: a,
                        kind: self.opts.kind,
                    };
                    self.precheck(&ofd, &known, evidence.as_ref())
                })
                .collect();

            // Produce each antecedent partition a data decision still
            // needs, before any workers spawn: cache lookups stay on this
            // thread (counters remain thread-invariant) and workers only
            // read `Arc`s.
            let mut resolved: Vec<Option<Arc<StrippedPartition>>> = vec![None; prev.len()];
            for (&(_, _, _, pi), pre) in jobs.iter().zip(prechecked.iter()) {
                if pre.is_some() || resolved[pi].is_some() {
                    continue;
                }
                let node = &prev[pi];
                resolved[pi] = Some(if node.superkey {
                    Arc::clone(&superkey_partition)
                } else {
                    cache.produce(self.rel, node.attrs, &mut scratch)
                });
            }

            let decide_one = |i: usize, scratch: &mut VerifyScratch| {
                faults.delay();
                faults.worker_panic();
                if let Some(pre) = prechecked[i] {
                    return pre;
                }
                let (_, a, lhs, pi) = jobs[i];
                let ofd = Ofd {
                    lhs,
                    rhs: a,
                    kind: self.opts.kind,
                };
                let lhs_partition = resolved[pi].as_ref().expect("resolved before decisions");
                self.decide_data(&index, &ofd, lhs_partition, max_uncovered, scratch)
            };
            // Panic isolation: a worker panic (a bug in verification, or
            // an injected fault) is caught, recorded as the sticky
            // `WorkerPanic` interrupt, and degrades the run to the same
            // sound partial result every other interrupt produces — the
            // process never aborts. The tripped guard stops every later
            // decision, and `covered_within` resets its scratch on entry
            // anyway, so counters a panic left behind are never read.
            let decide_caught =
                |i: usize, scratch: &mut VerifyScratch| match std::panic::catch_unwind(
                    std::panic::AssertUnwindSafe(|| decide_one(i, scratch)),
                ) {
                    Ok(out) => Some(out),
                    Err(_) => {
                        guard.trip_external(ofd_core::Interrupt::WorkerPanic);
                        None
                    }
                };
            // Per-candidate checkpoint: a `None` decision means the guard
            // tripped before that candidate was examined (or the worker
            // deciding it panicked) — it is simply not part of the
            // (sound) partial output.
            let verify_started = Instant::now();
            let verify_span = obs.span("fastofd.verify");
            let decisions: Vec<Option<(bool, f64, Decision)>> = if self.opts.threads <= 1
                || jobs.len() < 2 * self.opts.threads
            {
                let scratch = &mut verify_scratch[0];
                let out = (0..jobs.len())
                    .map(|i| guard.check().ok().and_then(|()| decide_caught(i, scratch)))
                    .collect();
                let wall = verify_started.elapsed().as_micros() as u64;
                busy_us += wall;
                capacity_us += wall;
                out
            } else {
                let n_threads = self.opts.threads.min(jobs.len());
                let counter = std::sync::atomic::AtomicUsize::new(0);
                let worker_busy = std::sync::atomic::AtomicU64::new(0);
                let mut slots: Vec<Option<(bool, f64, Decision)>> = vec![None; jobs.len()];
                let slot_ptr = SlotWriter(slots.as_mut_ptr());
                std::thread::scope(|scope| {
                    for scratch in verify_scratch.iter_mut().take(n_threads) {
                        let counter = &counter;
                        let worker_busy = &worker_busy;
                        let jobs = &jobs;
                        let decide_caught = &decide_caught;
                        let slot_ptr = &slot_ptr;
                        scope.spawn(move || {
                            let worker_started = Instant::now();
                            loop {
                                if guard.check().is_err() {
                                    break;
                                }
                                let i = counter
                                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if i >= jobs.len() {
                                    break;
                                }
                                let Some(out) = decide_caught(i, scratch) else {
                                    // This worker panicked; the guard is
                                    // tripped, so every worker (including
                                    // this one) stops at its next probe.
                                    continue;
                                };
                                // SAFETY: each index is claimed by exactly one
                                // thread via the atomic counter, so writes are
                                // disjoint.
                                unsafe {
                                    *slot_ptr.0.add(i) = Some(out);
                                }
                            }
                            worker_busy.fetch_add(
                                worker_started.elapsed().as_micros() as u64,
                                std::sync::atomic::Ordering::Relaxed,
                            );
                        });
                    }
                });
                let wall = verify_started.elapsed().as_micros() as u64;
                busy_us += worker_busy.load(std::sync::atomic::Ordering::Relaxed);
                capacity_us += wall * n_threads as u64;
                slots
            };
            drop(verify_span);
            if obs.is_enabled() {
                obs.set_gauge(
                    &format!("discovery.level.{level}.verify_ms"),
                    verify_started.elapsed().as_secs_f64() * 1e3,
                );
            }

            let mut sample_pruned: u64 = 0;
            for (&(ni, a, lhs, _), decision) in jobs.iter().zip(decisions.iter()) {
                let &Some((valid, support, how)) = decision else {
                    continue;
                };
                match how {
                    Decision::KeyShortcut => ls.key_shortcuts += 1,
                    Decision::FdShortcut => ls.fd_shortcuts += 1,
                    Decision::Verified => ls.verified += 1,
                    Decision::SampleRefuted => {
                        ls.verified += 1;
                        sample_pruned += 1;
                    }
                }
                if valid {
                    let minimal = if self.opts.use_opt2 {
                        // Lemma 5.3: A ∈ C⁺(X) already certifies minimality.
                        true
                    } else {
                        !sigma
                            .iter()
                            .any(|d| d.ofd.rhs == a && d.ofd.lhs.is_proper_subset(lhs))
                    };
                    if minimal {
                        sigma.push(DiscoveredOfd {
                            ofd: Ofd {
                                lhs,
                                rhs: a,
                                kind: self.opts.kind,
                            },
                            support,
                            level,
                        });
                        ls.found += 1;
                    }
                    if self.opts.use_opt2 {
                        current[ni].c_plus.remove(a);
                    }
                }
            }

            // Opt-2 node pruning: a node with an empty candidate set cannot
            // contribute candidates at any descendant.
            let before = current.len();
            if self.opts.use_opt2 {
                current.retain(|n| !n.c_plus.is_empty());
            }
            ls.pruned_nodes = before - current.len();

            prev_index = current
                .iter()
                .enumerate()
                .map(|(i, n)| (n.attrs.bits(), i))
                .collect();
            prev = current;
            ls.elapsed = level_started.elapsed();
            // Per-level counters are emitted here, after the sequential
            // emission pass, so their totals are identical for any worker
            // thread count (the metrics-invariance contract).
            if obs.is_enabled() {
                obs.inc("discovery.levels");
                obs.add(&format!("discovery.level.{level}.nodes"), ls.nodes as u64);
                obs.add(
                    &format!("discovery.level.{level}.candidates"),
                    ls.candidates as u64,
                );
                obs.add(
                    &format!("discovery.level.{level}.verified"),
                    ls.verified as u64,
                );
                obs.add(&format!("discovery.level.{level}.found"), ls.found as u64);
                obs.add("discovery.nodes", ls.nodes as u64);
                obs.add("discovery.candidates", ls.candidates as u64);
                obs.add("discovery.verified", ls.verified as u64);
                obs.add("discovery.found", ls.found as u64);
                obs.add("discovery.prune.opt1.trivial_skipped", opt1_trivial_skipped);
                obs.add(
                    "discovery.prune.opt2.candidates_pruned",
                    opt2_candidates_pruned,
                );
                obs.add("discovery.prune.opt2.nodes_deleted", ls.pruned_nodes as u64);
                obs.add("discovery.prune.opt3.key_shortcuts", ls.key_shortcuts as u64);
                obs.add("discovery.prune.opt4.fd_shortcuts", ls.fd_shortcuts as u64);
                obs.add("discovery.sample.candidates_pruned", sample_pruned);
            }
            stats.levels.push(ls);
            // Level-boundary checkpoint. Written only when no interrupt
            // is pending: a tripped run processed this level partially,
            // and recording it as completed would make resume unsound.
            // This also models a hard kill — on-disk state only ever
            // describes fully completed levels.
            if let Some(ck) = &self.opts.checkpoint {
                if guard.interrupt().is_none() {
                    let frontier: Vec<(u64, u64)> = prev
                        .iter()
                        .map(|node| (node.attrs.bits(), node.c_plus.bits()))
                        .collect();
                    let body = checkpoint::snapshot_body(
                        fp.expect("fp set"),
                        level,
                        &sigma,
                        &frontier,
                        &stats.levels,
                        guard.work_done(),
                        obs,
                    );
                    match ck.store.save(checkpoint::STREAM, level as u64, &body) {
                        Ok(_) => {
                            snapshots_written += 1;
                            obs.inc("discovery.checkpoint.written");
                        }
                        Err(_) => {
                            snapshot_errors += 1;
                            obs.inc("discovery.checkpoint.error");
                        }
                    }
                }
            }
            if prev.is_empty() {
                break;
            }
        }

        sigma.sort_by_key(|d| (d.level, d.ofd.lhs.bits(), d.ofd.rhs));
        stats.elapsed = started.elapsed();
        cache.flush_obs();
        stats.cache = Some(cache.stats());
        let interrupt = guard.interrupt();
        if obs.is_enabled() {
            if capacity_us > 0 {
                obs.set_gauge(
                    "discovery.verify.utilization",
                    busy_us as f64 / capacity_us as f64,
                );
            }
            obs.set_gauge("discovery.elapsed_ms", stats.elapsed.as_secs_f64() * 1e3);
            if let Some(i) = interrupt {
                obs.inc(&format!("guard.interrupt.{}", i.label()));
            }
        }
        Discovery {
            ofds: sigma,
            stats,
            complete: interrupt.is_none(),
            interrupt,
            resumed_from_level,
            snapshots_written,
            snapshot_errors,
        }
    }

    /// Joins prefix blocks of the previous level into the next one. Builds
    /// nodes only: no partition is computed here, because each Π*_X is
    /// produced when a data decision first reads it.
    fn next_level(&self, prev: &[Node], prev_index: &FxHashMap<u64, usize>) -> Vec<Node> {
        // Sort node indices by attribute list; nodes sharing all but the
        // last attribute form a block.
        let obs = &self.opts.obs;
        let _span = obs.span("fastofd.next_level");
        let mut products_skipped: u64 = 0;
        let mut order: Vec<usize> = (0..prev.len()).collect();
        order.sort_by_key(|&i| {
            let attrs: Vec<u16> = prev[i].attrs.iter().map(|a| a.index() as u16).collect();
            attrs
        });
        let mut out = Vec::new();
        let all = self.rel.schema().all();
        let mut block_start = 0;
        while block_start < order.len() {
            let head = prev[order[block_start]].attrs;
            let head_prefix = head.without(last_attr(head));
            let mut block_end = block_start + 1;
            while block_end < order.len() {
                let cur = prev[order[block_end]].attrs;
                if cur.without(last_attr(cur)) != head_prefix {
                    break;
                }
                block_end += 1;
            }
            for i in block_start..block_end {
                for j in (i + 1)..block_end {
                    let a = &prev[order[i]];
                    let b = &prev[order[j]];
                    let attrs = a.attrs.union(b.attrs);
                    // All parents must exist for the C⁺ intersection (and,
                    // with Opt-2, a missing parent means the child is dead).
                    let parents_ok = attrs
                        .parents()
                        .all(|(_, p)| prev_index.contains_key(&p.bits()));
                    if !parents_ok {
                        continue;
                    }
                    // Opt-3: supersets of superkeys are superkeys, so this
                    // child's product is never needed.
                    let superkey = self.opts.use_opt3 && (a.superkey || b.superkey);
                    products_skipped += u64::from(superkey);
                    out.push(Node {
                        attrs,
                        c_plus: all,
                        superkey,
                    });
                }
            }
            block_start = block_end;
        }
        obs.add("discovery.prune.opt3.products_skipped", products_skipped);
        out
    }

    /// Decides a candidate without touching any partition, when possible:
    /// Opt-4 logic subsumption first, then the sample refutation oracle.
    ///
    /// Runs before partition resolution so that a pre-decided candidate
    /// never forces a product. Ordering
    /// Opt-4 ahead of the oracle keeps Σ byte-identical with sampling off
    /// even when `known_fds` do not actually hold on the instance (an
    /// FD-implied candidate is emitted either way, as Opt-4's contract
    /// dictates, instead of being data-refuted by the sample first).
    /// `evidence` is only ever gathered for exact discovery.
    fn precheck(
        &self,
        ofd: &Ofd,
        known: &[Dependency],
        evidence: Option<&EvidenceSet>,
    ) -> Option<(bool, f64, Decision)> {
        // Opt-4: FD subsumption — an OFD implied by FDs that hold exactly
        // needs no data verification.
        if self.opts.use_opt4 && !known.is_empty() {
            let dep = Dependency::from(*ofd);
            if implies(known, &dep) {
                return Some((true, 1.0, Decision::FdShortcut));
            }
        }
        // The sample oracle, consulted strictly before the full-relation
        // scan it exists to avoid. A refutation is sound on the full
        // relation, and the `(false, 1.0, _)` shape matches what the data
        // path returns for the same candidate.
        evidence
            .filter(|ev| ev.refutes(ofd.lhs, ofd.rhs))
            .map(|_| (false, 1.0, Decision::SampleRefuted))
    }

    /// Decides one candidate against the data: (valid?, support, how).
    ///
    /// `max_uncovered` is the run's κ budget `n − ceil(κ·n)`, so the
    /// kernel's verdict is [`ofd_core::meets_support`]'s exact integer
    /// comparison, shared with the brute-force oracle. It stops counting
    /// once the budget is lost, which is where most candidates end; a
    /// failed candidate's support is never read. A passing one's support
    /// is `covered / n`, the same f64 as [`ofd_core::Validation::support`].
    fn decide_data(
        &self,
        index: &SenseIndex,
        ofd: &Ofd,
        lhs_partition: &StrippedPartition,
        max_uncovered: usize,
        scratch: &mut VerifyScratch,
    ) -> (bool, f64, Decision) {
        // Opt-3: a superkey antecedent has no non-singleton classes.
        if self.opts.use_opt3 && lhs_partition.is_superkey() {
            return (true, 1.0, Decision::KeyShortcut);
        }
        let n = self.rel.n_rows();
        match covered_within(self.rel, index, ofd, lhs_partition, max_uncovered, scratch) {
            Some(_) if n == 0 => (true, 1.0, Decision::Verified),
            Some(covered) => (true, covered as f64 / n as f64, Decision::Verified),
            None => (false, 1.0, Decision::Verified),
        }
    }
}

/// How one candidate was decided (stats bookkeeping).
///
/// [`Decision::SampleRefuted`] is a data-decided negative, so it counts
/// into [`LevelStats::verified`] exactly like [`Decision::Verified`] — the
/// per-level stats are part of the result-neutrality contract. It exists
/// as a distinct variant only for the prune-attribution counters.
#[derive(Debug, Clone, Copy)]
enum Decision {
    KeyShortcut,
    FdShortcut,
    Verified,
    /// Refuted by a sampled evidence pair (no full scan).
    SampleRefuted,
}

/// Raw-pointer wrapper so disjoint slots can be written from scoped worker
/// threads (each index claimed once through an atomic counter).
struct SlotWriter<T>(*mut Option<T>);
unsafe impl<T: Send> Sync for SlotWriter<T> {}

fn last_attr(set: AttrSet) -> AttrId {
    set.iter().last().expect("non-empty lattice node")
}
