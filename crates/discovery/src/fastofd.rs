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
//! attributes — matching the paper's complexity analysis. Exact discovery
//! goes one step further: a Π*_X that is not resident is scanned class by
//! class while X's candidates are decided, and the scan stops at the class
//! that refutes the last of them ([`scan_antecedent`]), so Π*_X is built
//! only for an antecedent with a candidate that holds.

use ofd_core::FxHashMap;
use std::sync::Arc;
use std::time::Instant;

use ofd_core::{
    covered_within, support_threshold, AttrId, AttrSet, ExecGuard, Ofd, OfdKind, ProductScratch,
    Relation, Schema, SenseIndex, StrippedPartition, VerifyScratch,
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
        // violation fails it) is exact discovery, where one uncovered class
        // refutes a candidate, so a missing Π*_X is scanned, not built.
        let n_rows = self.rel.n_rows();
        let max_uncovered = n_rows - support_threshold(n_rows, self.opts.min_support);
        let exact = max_uncovered == 0;
        // Worker-utilization bookkeeping (gauge — not thread-invariant by
        // design, unlike every counter below).
        let mut busy_us: u64 = 0;
        let mut capacity_us: u64 = 0;

        let mut sigma: Vec<DiscoveredOfd> = Vec::new();
        let mut stats = DiscoveryStats::default();
        let mut scratch = ProductScratch::default();
        // Scan and verification buffers: one scratch for the sequential
        // path, one per worker thread, each reused across levels.
        let mut worker_scratch: Vec<Scratch> = Vec::new();
        worker_scratch.resize_with(self.opts.threads.max(1), Scratch::default);

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

            // Partition-free pre-decisions (Opt-4 logic subsumption), made
            // before partition resolution so that they never force one.
            let prechecked: Vec<Option<(bool, f64, Decision)>> = jobs
                .iter()
                .map(|&(_, a, lhs, _)| {
                    let ofd = Ofd {
                        lhs,
                        rhs: a,
                        kind: self.opts.kind,
                    };
                    self.precheck(&ofd, &known)
                })
                .collect();

            // One group per antecedent X, holding its candidates. How the
            // data-decided ones reach Π*_X is settled here, before any
            // worker spawns: cache lookups stay on this thread, in job
            // order (counters remain thread-invariant), and workers only
            // read `Arc`s.
            let mut groups: Vec<Group> = Vec::new();
            let mut group_of: Vec<usize> = vec![usize::MAX; prev.len()];
            for (j, &(_, _, _, pi)) in jobs.iter().enumerate() {
                if group_of[pi] == usize::MAX {
                    group_of[pi] = groups.len();
                    groups.push(Group {
                        attrs: prev[pi].attrs,
                        jobs: Vec::new(),
                        source: None,
                    });
                }
                let group = &mut groups[group_of[pi]];
                group.jobs.push(j);
                if prechecked[j].is_some() || group.source.is_some() {
                    continue;
                }
                let attrs = group.attrs;
                group.source = Some(if prev[pi].superkey {
                    Source::Partition(Arc::clone(&superkey_partition))
                } else if !exact {
                    Source::Partition(cache.produce(self.rel, attrs, &mut scratch))
                } else if let Some(resident) = cache.lookup(attrs) {
                    Source::Partition(resident)
                } else {
                    let (from, by) = cache.scan_source(self.rel, attrs);
                    Source::Scan(from, by)
                });
            }

            let decide_group = |group: &Group, scratch: &mut Scratch| {
                let mut decided = Decided {
                    decisions: vec![None; group.jobs.len()],
                    scanned: None,
                };
                // Per-candidate checkpoint and fault sites: a candidate the
                // guard stops before stays undecided, like the rest of its
                // group.
                let mut live: Vec<usize> = Vec::new();
                for (k, &j) in group.jobs.iter().enumerate() {
                    if guard.check().is_err() {
                        return decided;
                    }
                    faults.delay();
                    faults.worker_panic();
                    match prechecked[j] {
                        Some(pre) => decided.decisions[k] = Some(pre),
                        None => live.push(k),
                    }
                }
                let ofd = |k: usize| {
                    let (_, a, lhs, _) = jobs[group.jobs[k]];
                    Ofd {
                        lhs,
                        rhs: a,
                        kind: self.opts.kind,
                    }
                };
                match &group.source {
                    None => {}
                    Some(Source::Partition(partition)) => {
                        for k in live {
                            decided.decisions[k] = Some(self.decide_data(
                                &index,
                                &ofd(k),
                                partition,
                                max_uncovered,
                                &mut scratch.verify,
                            ));
                        }
                    }
                    Some(Source::Scan(from, by)) => {
                        let rhs: Vec<AttrId> = live.iter().map(|&k| ofd(k).rhs).collect();
                        let scan = scan_antecedent(
                            self.rel,
                            &index,
                            (from, by),
                            &rhs,
                            max_uncovered,
                            guard,
                            scratch,
                        );
                        let key = self.opts.use_opt3
                            && scan.partition.as_ref().is_some_and(|p| p.is_superkey());
                        for (&k, uncovered) in live.iter().zip(scan.uncovered) {
                            decided.decisions[k] = match uncovered {
                                None => Some((false, 1.0, Decision::Verified)),
                                Some(_) if scan.interrupted => None,
                                Some(_) if key => Some((true, 1.0, Decision::KeyShortcut)),
                                Some(u) => {
                                    Some((true, support(n_rows, n_rows - u), Decision::Verified))
                                }
                            };
                        }
                        decided.scanned = scan.partition;
                    }
                }
                decided
            };
            // Panic isolation: a worker panic (a bug in verification, or
            // an injected fault) is caught, recorded as the sticky
            // `WorkerPanic` interrupt, and degrades the run to the same
            // sound partial result every other interrupt produces — the
            // process never aborts. The tripped guard stops every later
            // decision, and the cover step resets its scratch on entry
            // anyway, so counters a panic left behind are never read.
            let decide_caught = |g: usize, scratch: &mut Scratch| match std::panic::catch_unwind(
                std::panic::AssertUnwindSafe(|| decide_group(&groups[g], scratch)),
            ) {
                Ok(out) => Some(out),
                Err(_) => {
                    guard.trip_external(ofd_core::Interrupt::WorkerPanic);
                    None
                }
            };
            // A `None` outcome means the group's worker panicked, or the
            // guard stopped the workers before one took the group: none of
            // its candidates is part of the (sound) partial output.
            let verify_started = Instant::now();
            let verify_span = obs.span("fastofd.verify");
            let outcomes: Vec<Option<Decided>> = if self.opts.threads <= 1
                || groups.len() < 2 * self.opts.threads
            {
                let scratch = &mut worker_scratch[0];
                let out = (0..groups.len())
                    .map(|g| decide_caught(g, scratch))
                    .collect();
                let wall = verify_started.elapsed().as_micros() as u64;
                busy_us += wall;
                capacity_us += wall;
                out
            } else {
                let n_threads = self.opts.threads.min(groups.len());
                let counter = std::sync::atomic::AtomicUsize::new(0);
                let worker_busy = std::sync::atomic::AtomicU64::new(0);
                let mut slots: Vec<Option<Decided>> = Vec::new();
                slots.resize_with(groups.len(), || None);
                let slot_ptr = SlotWriter(slots.as_mut_ptr());
                std::thread::scope(|scope| {
                    for scratch in worker_scratch.iter_mut().take(n_threads) {
                        let counter = &counter;
                        let worker_busy = &worker_busy;
                        let groups = &groups;
                        let decide_caught = &decide_caught;
                        let slot_ptr = &slot_ptr;
                        scope.spawn(move || {
                            let worker_started = Instant::now();
                            loop {
                                if guard.is_tripped() {
                                    break;
                                }
                                let g = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if g >= groups.len() {
                                    break;
                                }
                                let Some(out) = decide_caught(g, scratch) else {
                                    // This worker panicked; the guard is
                                    // tripped, so every worker (including
                                    // this one) stops at its next probe.
                                    continue;
                                };
                                // SAFETY: each index is claimed by exactly one
                                // thread via the atomic counter, so writes are
                                // disjoint.
                                unsafe {
                                    *slot_ptr.0.add(g) = Some(out);
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

            // Back on this thread, in antecedent order: a completed scan's
            // Π*_X enters the cache as a miss's product would, and the
            // decisions return to job order.
            let mut decisions: Vec<Option<(bool, f64, Decision)>> = vec![None; jobs.len()];
            for (group, outcome) in groups.iter().zip(outcomes) {
                let Some(decided) = outcome else {
                    continue;
                };
                if let Some(Source::Scan(..)) = group.source {
                    match decided.scanned {
                        Some(partition) => cache.complete_scan(group.attrs, Arc::new(partition)),
                        None => cache.abandon_scan(),
                    }
                }
                for (&j, decision) in group.jobs.iter().zip(decided.decisions) {
                    decisions[j] = decision;
                }
            }

            for (&(ni, a, lhs, _), decision) in jobs.iter().zip(decisions.iter()) {
                let &Some((valid, support, how)) = decision else {
                    continue;
                };
                match how {
                    Decision::KeyShortcut => ls.key_shortcuts += 1,
                    Decision::FdShortcut => ls.fd_shortcuts += 1,
                    Decision::Verified => ls.verified += 1,
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

    /// Decides a candidate without touching any partition, when Opt-4
    /// applies: an OFD implied by FDs that hold exactly needs no data
    /// verification. Runs before partition resolution so that a
    /// pre-decided candidate never forces a product or a scan.
    fn precheck(&self, ofd: &Ofd, known: &[Dependency]) -> Option<(bool, f64, Decision)> {
        (self.opts.use_opt4 && !known.is_empty() && implies(known, &Dependency::from(*ofd)))
            .then_some((true, 1.0, Decision::FdShortcut))
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
        match covered_within(self.rel, index, ofd, lhs_partition, max_uncovered, scratch) {
            Some(covered) => (
                true,
                support(self.rel.n_rows(), covered),
                Decision::Verified,
            ),
            None => (false, 1.0, Decision::Verified),
        }
    }
}

/// A passing candidate's support `covered / n`, the same f64 as
/// [`ofd_core::Validation::support`] (1.0 on an empty relation).
fn support(n: usize, covered: usize) -> f64 {
    if n == 0 {
        1.0
    } else {
        covered as f64 / n as f64
    }
}

/// One antecedent X of a level and the candidates `X → A` it heads.
struct Group {
    attrs: AttrSet,
    /// The level's jobs with antecedent X, in job order.
    jobs: Vec<usize>,
    /// How the data-decided candidates reach Π*_X; `None` when Opt-4
    /// decided every one of them.
    source: Option<Source>,
}

/// Where a group's candidates read Π*_X from.
enum Source {
    /// Π*_X itself: resident in the cache, produced by it (κ < 1), or the
    /// empty partition of a known superkey.
    Partition(Arc<StrippedPartition>),
    /// A cache miss in exact discovery: Π*_X is scanned from a resident
    /// ancestor, split by X's attributes it lacks.
    Scan(Arc<StrippedPartition>, Vec<AttrId>),
}

/// What deciding one group produced.
struct Decided {
    /// One decision per candidate of the group, in its order; `None` for
    /// a candidate the guard stopped first.
    decisions: Vec<Option<(bool, f64, Decision)>>,
    /// Π*_X, when a scan of it reached the end.
    scanned: Option<StrippedPartition>,
}

/// One worker's buffers: the scan's staging and the cover step's counters.
#[derive(Debug, Default)]
struct Scratch {
    product: ProductScratch,
    verify: VerifyScratch,
}

/// Source tuples a scan reads between two guard probes.
const SCAN_PROBE_TUPLES: usize = 4096;

/// What one antecedent's scan decided.
struct Scan {
    /// Per consequent, in the order given: the tuples left uncovered while
    /// `X → A` still holds, `None` once it has failed.
    uncovered: Vec<Option<usize>>,
    /// Π*_X, when the scan reached the end.
    partition: Option<StrippedPartition>,
    /// Whether the guard stopped the scan; the consequents still holding
    /// are then undecided.
    interrupted: bool,
}

/// Decides `X → A` for every consequent `A` in `rhs` by one scan of Π*_X:
/// `source` is Π*_Y for some Y ⊆ X, and each of its classes splits by the
/// attributes `by`, X \ Y. Every class of ≥ 2 tuples goes to the cover
/// step of each consequent still holding, with that consequent's remaining
/// budget, and a consequent fails at the class that leaves more than
/// `max_uncovered` tuples uncovered. The scan stops once every consequent
/// has failed, so Π*_X is never built for an antecedent none of whose
/// candidates holds; a scan that reaches the end returns it.
///
/// Nothing depends on the order the classes come in: the cover of a class
/// is its own, and the uncovered tuples add up to what [`covered_within`]
/// counts over the canonical Π*_X. So each verdict is its verdict, and a
/// passing consequent's `n − uncovered` is its `covered`, bit for bit.
/// The guard is probed every [`SCAN_PROBE_TUPLES`] source tuples.
fn scan_antecedent(
    rel: &Relation,
    index: &SenseIndex,
    (source, by): (&StrippedPartition, &[AttrId]),
    rhs: &[AttrId],
    max_uncovered: usize,
    guard: &ExecGuard,
    scratch: &mut Scratch,
) -> Scan {
    let mut uncovered: Vec<Option<usize>> = vec![Some(0); rhs.len()];
    let mut holding = rhs.len();
    let mut interrupted = false;
    let (mut scanned, mut next_probe) = (0, SCAN_PROBE_TUPLES);
    let Scratch { product, verify } = scratch;
    let partition = source.scan_with_scratch(rel, by, product, |size, classes| {
        scanned += size;
        if scanned >= next_probe {
            next_probe = scanned + SCAN_PROBE_TUPLES;
            if guard.check().is_err() {
                interrupted = true;
                return false;
            }
        }
        for class in classes {
            for (left, &a) in uncovered.iter_mut().zip(rhs) {
                let Some(so_far) = *left else {
                    continue;
                };
                *left = verify
                    .class_covered(rel, class, a, index, max_uncovered - so_far)
                    .map(|covered| so_far + class.len() - covered)
                    .filter(|&total| total <= max_uncovered);
                holding -= usize::from(left.is_none());
            }
            if holding == 0 {
                return false;
            }
        }
        true
    });
    Scan {
        uncovered,
        partition,
        interrupted,
    }
}

/// How one candidate was decided (stats bookkeeping).
#[derive(Debug, Clone, Copy)]
enum Decision {
    KeyShortcut,
    FdShortcut,
    Verified,
}

/// Raw-pointer wrapper so disjoint slots can be written from scoped worker
/// threads (each index claimed once through an atomic counter).
struct SlotWriter<T>(*mut Option<T>);
unsafe impl<T: Send> Sync for SlotWriter<T> {}

fn last_attr(set: AttrSet) -> AttrId {
    set.iter().last().expect("non-empty lattice node")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_ontology::{Ontology, OntologyBuilder};
    use proptest::prelude::*;

    /// Random relations over `v0..v5` in four columns, and an ontology of
    /// up to four concepts whose synonym lists overlap, so a value often
    /// lies in several senses; each concept may be the child of an
    /// earlier one, for inheritance semantics.
    fn arb_instance() -> impl Strategy<Value = (Relation, Ontology)> {
        let rows = prop::collection::vec(prop::collection::vec(0u8..6, 4), 1..16);
        let concepts =
            prop::collection::vec((prop::collection::vec(0u8..6, 1..5), 0usize..4), 0..5);
        (rows, concepts).prop_map(|(rows, concepts)| {
            let mut b = Relation::builder(Schema::new(["A", "B", "C", "D"]).unwrap());
            for row in &rows {
                let cells: Vec<String> = row.iter().map(|v| format!("v{v}")).collect();
                b.push_row(cells.iter().map(String::as_str)).unwrap();
            }
            let mut ob = OntologyBuilder::new();
            let mut ids = Vec::new();
            for (ci, (values, parent)) in concepts.iter().enumerate() {
                let mut values: Vec<String> = values.iter().map(|v| format!("v{v}")).collect();
                values.sort();
                values.dedup();
                let mut c = ob.concept(format!("c{ci}")).synonyms(values);
                if let Some(&p) = ids.get(parent.wrapping_sub(1)) {
                    c = c.parent(p);
                }
                ids.push(c.build().unwrap());
            }
            (b.finish(), ob.finish().unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// For every antecedent X, scanned from Π*_Y with Y = X ∩ `from`,
        /// and every consequent set: each verdict and passing support is
        /// `covered_within`'s over the direct Π*_X, bit for bit, and the
        /// scan completes exactly when a consequent holds, with Π*_X
        /// itself. One scratch serves every scan of a case.
        #[test]
        fn scan_decides_as_covered_within_over_the_direct_partition(
            (rel, onto) in arb_instance(),
            from in 0u64..16,
            rhs in 1u64..16,
            budget in 0usize..4,
            theta in 0usize..2,
        ) {
            let index = if theta > 0 {
                SenseIndex::inheritance(&rel, &onto, theta)
            } else {
                SenseIndex::synonym(&rel, &onto)
            };
            let n = rel.n_rows();
            let mut scratch = Scratch::default();
            for x in 0..16u64 {
                let x = AttrSet::from_bits(x);
                let y = x.intersect(AttrSet::from_bits(from));
                let rhs: Vec<AttrId> = AttrSet::from_bits(rhs).minus(x).iter().collect();
                if rhs.is_empty() {
                    continue;
                }
                let source = StrippedPartition::of(&rel, y);
                let by: Vec<AttrId> = x.minus(y).iter().collect();
                let direct = StrippedPartition::of(&rel, x);
                let guard = ExecGuard::unlimited();
                let scan =
                    scan_antecedent(&rel, &index, (&source, &by), &rhs, budget, &guard, &mut scratch);
                prop_assert!(!scan.interrupted);
                for (&a, got) in rhs.iter().zip(&scan.uncovered) {
                    let ofd = Ofd::synonym(x, a);
                    let fresh = &mut VerifyScratch::default();
                    let want = covered_within(&rel, &index, &ofd, &direct, budget, fresh);
                    prop_assert_eq!(
                        got.map(|uncovered| support(n, n - uncovered).to_bits()),
                        want.map(|covered| support(n, covered).to_bits()),
                        "{:?} -> {:?} from {:?} at budget {}", x, a, y, budget
                    );
                }
                let holds = scan.uncovered.iter().any(Option::is_some);
                prop_assert_eq!(scan.partition.is_some(), holds);
                if let Some(partition) = &scan.partition {
                    prop_assert_eq!(partition, &direct);
                }
            }
        }
    }

    #[test]
    fn a_tripped_guard_stops_a_scan_and_leaves_its_survivors_undecided() {
        // 2 × SCAN_PROBE_TUPLES rows in one class of X = ∅ whose consequent
        // is constant: the candidate holds, so only the guard stops the scan.
        let rows = 2 * SCAN_PROBE_TUPLES;
        let rel =
            Relation::from_rows(["X", "A"], (0..rows).map(|_| &["x", "a"] as &[&str])).unwrap();
        let index = SenseIndex::synonym(&rel, &Ontology::empty());
        let guard = ExecGuard::unlimited();
        guard.cancel();
        let source = StrippedPartition::of(&rel, AttrSet::empty());
        let x = rel.schema().attr("X").unwrap();
        let a = rel.schema().attr("A").unwrap();
        let scan = scan_antecedent(
            &rel,
            &index,
            (&source, &[x]),
            &[a],
            0,
            &guard,
            &mut Scratch::default(),
        );
        assert!(scan.interrupted && scan.partition.is_none());
        assert_eq!(scan.uncovered, [Some(0)]);
    }
}
