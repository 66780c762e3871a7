#![warn(missing_docs)]
//! # ofd-discovery
//!
//! The **FastOFD** algorithm (§4): discovery of a complete and minimal set
//! of Ontology Functional Dependencies from data, by breadth-first traversal
//! of the set-containment lattice with axiom-derived pruning:
//!
//! * **Opt-1** — trivial candidates (`A ∈ X`) are never generated;
//! * **Opt-2** — Augmentation pruning via candidate sets `C⁺(X)`
//!   (Definition 5.2, Lemma 5.3), including deletion of exhausted nodes;
//! * **Opt-3** — superkey short-circuits: empty stripped partitions validate
//!   instantly and partition products below keys are skipped;
//! * **Opt-4** — candidates implied by known, exactly-holding FDs are valid
//!   by subsumption without data verification.
//!
//! Both exact and κ-approximate OFDs are supported, for synonym and
//! inheritance semantics. [`brute_force`] provides an exhaustive reference
//! implementation used to validate the lattice algorithm in tests.
//!
//! ```
//! use ofd_core::table1;
//! use ofd_discovery::FastOfd;
//! use ofd_ontology::samples;
//!
//! let rel = table1();
//! let onto = samples::combined_paper_ontology();
//! let result = FastOfd::new(&rel, &onto).run();
//! let schema = rel.schema();
//! assert!(result
//!     .ofds()
//!     .any(|o| o.display(schema) == "[CC] ->syn CTRY"));
//! ```

mod brute;
mod cache;
mod checkpoint;
mod fastofd;
mod options;
mod stats;

pub use brute::{brute_force, brute_force_guarded};
pub use cache::{CacheStats, PartitionCache};
pub use checkpoint::CheckpointOptions;
pub use fastofd::{DiscoveredOfd, Discovery, FastOfd};
pub use options::{DiscoveryOptions, DEFAULT_PARTITION_CACHE_MIB, DEFAULT_SAMPLE_ROUNDS};
pub use stats::{DiscoveryStats, LevelStats};

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::{table1, Fd, Ofd, OfdKind, Relation};
    use ofd_ontology::{samples, Ontology, OntologyBuilder};
    use proptest::prelude::*;

    fn discover(rel: &Relation, onto: &Ontology, opts: DiscoveryOptions) -> Vec<Ofd> {
        FastOfd::new(rel, onto)
            .options(opts)
            .run()
            .ofds()
            .copied()
            .collect()
    }

    #[test]
    fn matches_brute_force_on_table1() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let fast = discover(&rel, &onto, DiscoveryOptions::default());
        let brute = brute_force(&rel, &onto, OfdKind::Synonym, 1.0);
        assert_eq!(fast, brute);
    }

    #[test]
    fn optimizations_do_not_change_output() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let reference = discover(&rel, &onto, DiscoveryOptions::default());
        for (o2, o3, o4) in [
            (false, false, false),
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, false),
            (true, false, true),
            (false, true, true),
        ] {
            let opts = DiscoveryOptions::new().opt2(o2).opt3(o3).opt4(o4);
            assert_eq!(
                discover(&rel, &onto, opts),
                reference,
                "opts ({o2},{o3},{o4}) diverged"
            );
        }
    }

    #[test]
    fn known_fds_shortcut_preserves_output() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let schema = rel.schema();
        let known = vec![Fd::new(
            schema.set(["SYMP"]).unwrap(),
            schema.attr("DIAG").unwrap(),
        )];
        let reference = discover(&rel, &onto, DiscoveryOptions::default());
        let with_fds = discover(
            &rel,
            &onto,
            DiscoveryOptions::default().known_fds(known),
        );
        assert_eq!(reference, with_fds);
    }

    #[test]
    fn max_level_truncates_output_prefix() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let full = FastOfd::new(&rel, &onto).run();
        let capped = FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().max_level(2))
            .run();
        let expected: Vec<&DiscoveredOfd> =
            full.ofds.iter().filter(|d| d.level <= 2).collect();
        assert_eq!(capped.ofds.len(), expected.len());
        for (got, want) in capped.ofds.iter().zip(expected) {
            assert_eq!(got.ofd, want.ofd);
        }
    }

    #[test]
    fn empty_ontology_discovers_plain_fds() {
        let rel = table1();
        let onto = Ontology::empty();
        let found = discover(&rel, &onto, DiscoveryOptions::default());
        // Every discovered OFD must hold as a plain FD.
        let v = ofd_core::Validator::new(&rel, &onto);
        for ofd in &found {
            assert!(v.check_fd(&ofd.as_fd()), "{}", ofd.display(rel.schema()));
        }
        // And [CC] -> CTRY must NOT be among them (broken by USA/America).
        let bad = Ofd::synonym_named(rel.schema(), &["CC"], "CTRY").unwrap();
        assert!(!found.contains(&bad));
    }

    #[test]
    fn approximate_discovery_at_low_support() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let fast = discover(
            &rel,
            &onto,
            DiscoveryOptions::new().min_support(0.8),
        );
        let brute = brute_force(&rel, &onto, OfdKind::Synonym, 0.8);
        assert_eq!(fast, brute);
    }

    #[test]
    fn inheritance_discovery_matches_brute_force() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let kind = OfdKind::Inheritance { theta: 1 };
        let fast = discover(&rel, &onto, DiscoveryOptions::new().kind(kind));
        let brute = brute_force(&rel, &onto, kind, 1.0);
        assert_eq!(fast, brute);
        // [SYMP, DIAG] -> MED holds under inheritance; some antecedent
        // ⊆ {SYMP, DIAG} must be discovered for MED.
        let schema = rel.schema();
        let med = schema.attr("MED").unwrap();
        let symp_diag = schema.set(["SYMP", "DIAG"]).unwrap();
        assert!(fast
            .iter()
            .any(|o| o.rhs == med && o.lhs.is_subset(symp_diag)));
    }

    #[test]
    fn target_rhs_equals_filtered_full_output() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let schema = rel.schema();
        let full = discover(&rel, &onto, DiscoveryOptions::default());
        for name in ["CTRY", "MED", "DIAG"] {
            let target = schema.set([name]).unwrap();
            let targeted = discover(
                &rel,
                &onto,
                DiscoveryOptions::default().target_rhs(target),
            );
            let filtered: Vec<Ofd> = full
                .iter()
                .filter(|o| target.contains(o.rhs))
                .copied()
                .collect();
            assert_eq!(targeted, filtered, "target {name}");
        }
    }

    #[test]
    fn parallel_verification_matches_sequential() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let sequential = discover(&rel, &onto, DiscoveryOptions::default());
        for threads in [2, 4, 8] {
            let parallel = discover(
                &rel,
                &onto,
                DiscoveryOptions::default().threads(threads),
            );
            assert_eq!(parallel, sequential, "threads={threads}");
        }
        // Also under approximate + no-optimization settings.
        let seq_approx = discover(&rel, &onto, DiscoveryOptions::new().min_support(0.8));
        let par_approx = discover(
            &rel,
            &onto,
            DiscoveryOptions::new().min_support(0.8).threads(4),
        );
        assert_eq!(seq_approx, par_approx);
    }

    #[test]
    fn partition_cache_is_result_neutral() {
        // Σ — including raw support bits and levels — must be byte-identical
        // whether the cache keeps only its pinned partitions, is generously
        // budgeted, or is starved into thrashing, at any thread count.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let reference = FastOfd::new(&rel, &onto).run();
        assert!(reference.stats.cache.is_some(), "cache defaults on");
        for mib in [0usize, 1, 256] {
            for threads in [1usize, 4] {
                let run = FastOfd::new(&rel, &onto)
                    .options(
                        DiscoveryOptions::default()
                            .partition_cache_mib(mib)
                            .threads(threads),
                    )
                    .run();
                assert_eq!(
                    run.ofds, reference.ofds,
                    "cache={mib}MiB threads={threads}: Σ diverged"
                );
                for (a, b) in run.ofds.iter().zip(&reference.ofds) {
                    assert_eq!(
                        a.support.to_bits(),
                        b.support.to_bits(),
                        "cache={mib}MiB threads={threads}: support bits diverged"
                    );
                }
                // Per-level counters are part of the contract too.
                assert_eq!(run.stats.levels.len(), reference.stats.levels.len());
                for (l, r) in run.stats.levels.iter().zip(&reference.stats.levels) {
                    assert_eq!(
                        (l.nodes, l.candidates, l.verified, l.key_shortcuts,
                         l.fd_shortcuts, l.found, l.pruned_nodes),
                        (r.nodes, r.candidates, r.verified, r.key_shortcuts,
                         r.fd_shortcuts, r.found, r.pruned_nodes),
                        "cache={mib}MiB threads={threads}: level {} stats diverged",
                        l.level
                    );
                }
                assert!(run.stats.cache.is_some(), "cache={mib}MiB: stats missing");
            }
        }
    }

    #[test]
    fn hybrid_pipeline_is_result_neutral() {
        // The tentpole contract: sampling is a refutation oracle only, so
        // Σ — including raw support bits — and the per-level stats are
        // byte-identical with the pipeline on or off, at any thread count
        // and sampling depth.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let reference = FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().sample_rounds(0))
            .run();
        for threads in [1usize, 4] {
            for rounds in [0usize, 3] {
                let run = FastOfd::new(&rel, &onto)
                    .options(
                        DiscoveryOptions::new()
                            .sample_rounds(rounds)
                            .threads(threads),
                    )
                    .run();
                let tag = format!("threads={threads} rounds={rounds}");
                assert_eq!(run.ofds, reference.ofds, "{tag}: Σ diverged");
                for (a, b) in run.ofds.iter().zip(&reference.ofds) {
                    assert_eq!(
                        a.support.to_bits(),
                        b.support.to_bits(),
                        "{tag}: support bits diverged"
                    );
                }
                assert_eq!(run.stats.levels.len(), reference.stats.levels.len(), "{tag}");
                for (l, r) in run.stats.levels.iter().zip(&reference.stats.levels) {
                    assert_eq!(
                        (l.nodes, l.candidates, l.verified, l.key_shortcuts,
                         l.fd_shortcuts, l.found, l.pruned_nodes),
                        (r.nodes, r.candidates, r.verified, r.key_shortcuts,
                         r.fd_shortcuts, r.found, r.pruned_nodes),
                        "{tag}: level {} stats diverged",
                        l.level
                    );
                }
            }
        }
    }

    #[test]
    fn hybrid_pipeline_prunes_and_counts_on_table1() {
        // The sample oracle must actually fire on Table 1 (most candidates
        // fail) and be attributed in the prune counters.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let obs = ofd_core::Obs::enabled();
        let run = FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().obs(obs.clone()))
            .run();
        assert!(run.complete);
        let m = obs.snapshot();
        assert_eq!(
            m.counter("discovery.sample.rounds"),
            Some(DEFAULT_SAMPLE_ROUNDS as u64)
        );
        assert!(m.counter("discovery.sample.evidence_pairs").unwrap_or(0) > 0);
        let pruned = m.counter("discovery.sample.candidates_pruned").unwrap_or(0);
        assert!(pruned > 0, "the sampler refuted no candidate at all: {m:?}");
        // Refuted candidates are a subset of the data-decided verifications.
        let verified: u64 = run.stats.levels.iter().map(|l| l.verified as u64).sum();
        assert!(
            pruned <= verified,
            "sample refutations ({pruned}) exceed data-decided candidates ({verified})"
        );
    }

    #[test]
    fn approx_mode_ignores_hybrid_knobs() {
        // κ < 1: a violating pair does not refute an approximate
        // candidate, so sampling may not run at all.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let obs = ofd_core::Obs::enabled();
        let hybrid = discover(
            &rel,
            &onto,
            DiscoveryOptions::new()
                .min_support(0.8)
                .sample_rounds(5)
                .obs(obs.clone()),
        );
        let plain = discover(&rel, &onto, DiscoveryOptions::new().min_support(0.8));
        assert_eq!(hybrid, plain);
        let m = obs.snapshot();
        assert_eq!(m.counter("discovery.sample.rounds"), Some(0));
    }

    #[test]
    fn partition_cache_reports_hits_on_table1() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let result = FastOfd::new(&rel, &onto).run();
        let cs = result.stats.cache.expect("cache on by default");
        assert!(cs.hits > 0, "lattice reuse must produce hits: {cs:?}");
        assert!(cs.resident_bytes > 0);
        assert!(cs.peak_resident_bytes >= cs.resident_bytes);
    }

    #[test]
    fn stats_track_levels_and_candidates() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let result = FastOfd::new(&rel, &onto).run();
        assert!(!result.stats.levels.is_empty());
        assert_eq!(result.stats.total_found(), result.ofds.len());
        assert!(result.stats.total_candidates() >= result.stats.total_found());
        assert!(result.stats.total_verified() <= result.stats.total_candidates());
    }

    #[test]
    fn discovered_set_is_satisfied_and_minimal() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let validator = ofd_core::Validator::new(&rel, &onto);
        let found = discover(&rel, &onto, DiscoveryOptions::default());
        for ofd in &found {
            assert!(validator.check(ofd).satisfied(), "{}", ofd.display(rel.schema()));
        }
        for a in &found {
            for b in &found {
                if a.rhs == b.rhs && a.lhs != b.lhs {
                    assert!(!a.lhs.is_proper_subset(b.lhs));
                }
            }
        }
    }

    #[test]
    fn constant_column_found_at_level_one() {
        let rel = Relation::from_rows(
            ["A", "B"],
            [&["c", "1"] as &[&str], &["c", "2"], &["c", "3"]],
        )
        .unwrap();
        let onto = Ontology::empty();
        let result = FastOfd::new(&rel, &onto).run();
        // ∅ -> A holds (constant column) and is found at level 1.
        let found: Vec<_> = result.ofds.iter().filter(|d| d.level == 1).collect();
        assert_eq!(found.len(), 1);
        assert!(found[0].ofd.lhs.is_empty());
        assert_eq!(found[0].ofd.rhs, rel.schema().attr("A").unwrap());
    }

    #[test]
    fn metrics_counters_are_thread_invariant() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let run = |threads: usize| {
            let obs = ofd_core::Obs::enabled();
            let r = FastOfd::new(&rel, &onto)
                .options(DiscoveryOptions::default().threads(threads).obs(obs.clone()))
                .run();
            (r, obs.snapshot())
        };
        let (r1, m1) = run(1);
        let (r8, m8) = run(8);
        assert_eq!(r1.ofds, r8.ofds, "output is thread-invariant");
        assert_eq!(m1.counters, m8.counters, "counter totals are thread-invariant");
        assert!(m1.counter("discovery.candidates").unwrap_or(0) > 0);
        assert_eq!(
            m1.counter("discovery.found"),
            Some(r1.ofds.len() as u64),
            "found counter matches |Σ|"
        );
        // Per-level counters and prune attribution are present.
        assert!(m1.counter("discovery.level.1.candidates").is_some());
        assert!(m1.counter_sum("discovery.prune.") > 0);
        // Histograms stay thread-invariant too (partition products run on
        // the sequential path).
        assert_eq!(m1.histograms, m8.histograms);
    }

    #[test]
    fn disabled_obs_changes_nothing() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let plain = discover(&rel, &onto, DiscoveryOptions::default());
        let obs = ofd_core::Obs::disabled();
        let with_obs = discover(&rel, &onto, DiscoveryOptions::default().obs(obs.clone()));
        assert_eq!(plain, with_obs);
        assert!(obs.snapshot().counters.is_empty());
    }

    #[test]
    fn interrupted_run_labels_the_guard_interrupt() {
        let obs = ofd_core::Obs::enabled();
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let guard = ofd_core::ExecGuard::unlimited();
        guard.fail_after(3);
        let result = FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().guard(guard).obs(obs.clone()))
            .run();
        assert!(!result.complete);
        assert_eq!(obs.snapshot().counter("guard.interrupt.fail_point"), Some(1));
    }

    #[test]
    fn boundary_support_is_decided_by_integer_arithmetic() {
        // 10 rows; X → A has exactly 8/10 support (one class of 10 with a
        // best cover of 8).
        let mut rows: Vec<[&str; 2]> = vec![["x", "good"]; 8];
        rows.push(["x", "bad1"]);
        rows.push(["x", "bad2"]);
        let rel = Relation::from_rows(["X", "A"], rows.iter().map(|r| &r[..])).unwrap();
        let onto = Ontology::empty();
        let has_dep = |kappa: f64| {
            let found = discover(&rel, &onto, DiscoveryOptions::new().min_support(kappa));
            let brute = brute_force(&rel, &onto, OfdKind::Synonym, kappa);
            assert_eq!(found, brute, "FastOFD and oracle must agree at κ={kappa}");
            let a = rel.schema().attr("A").unwrap();
            found.iter().any(|o| o.rhs == a)
        };
        // Exactly at the boundary: accepted.
        assert!(has_dep(0.8));
        // Infinitesimally above: the old epsilon comparison
        // (s + 1e-12 ≥ κ) accepted this; exact arithmetic rejects it.
        let kappa = 0.8 + 1e-13;
        assert!(0.8 + 1e-12 >= kappa, "the old comparison would accept");
        assert!(!has_dep(kappa));
        // Well below the boundary: rejected.
        assert!(!has_dep(0.9));
    }

    #[test]
    fn zero_deadline_interrupts_discovery_immediately() {
        use std::time::Duration;
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let guard = ofd_core::ExecGuard::with_timeout(Duration::ZERO);
        let result = FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().guard(guard))
            .run();
        assert!(!result.complete);
        assert_eq!(result.interrupt, Some(ofd_core::Interrupt::DeadlineExceeded));
        assert_eq!(result.len(), 0, "nothing emitted before the first probe");
    }

    #[test]
    fn generous_deadline_discovery_is_complete_and_unchanged() {
        use std::time::Duration;
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let guard = ofd_core::ExecGuard::with_timeout(Duration::from_secs(3600));
        let result = FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().guard(guard))
            .run();
        assert!(result.complete && result.interrupt.is_none());
        let unguarded: Vec<Ofd> = discover(&rel, &onto, DiscoveryOptions::default());
        let guarded: Vec<Ofd> = result.ofds().copied().collect();
        assert_eq!(guarded, unguarded);
    }

    #[test]
    fn pre_cancelled_discovery_reports_cancellation() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let guard = ofd_core::ExecGuard::unlimited();
        guard.cancel();
        let result = FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().guard(guard))
            .run();
        assert!(!result.complete);
        assert_eq!(result.interrupt, Some(ofd_core::Interrupt::Cancelled));
    }

    fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ofd_discovery_ckpt_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn killed_and_resumed_run_equals_uninterrupted_run() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let reference = FastOfd::new(&rel, &onto).run();
        assert!(reference.complete);
        let dir = temp_ckpt_dir("resume");
        for kill_at in [1u64, 3, 7, 12, 20, 35] {
            let _ = std::fs::remove_dir_all(&dir);
            // "Kill" the run at an arbitrary checkpoint: on-disk state is
            // identical to a hard kill, since snapshots cover only fully
            // completed levels.
            let guard = ofd_core::ExecGuard::unlimited();
            guard.fail_after(kill_at);
            let killed = FastOfd::new(&rel, &onto)
                .options(
                    DiscoveryOptions::new()
                        .guard(guard)
                        .checkpoint(CheckpointOptions::new(&dir)),
                )
                .run();
            // Resume in a fresh engine until complete (a snapshot may not
            // exist yet if the kill landed before level 1 finished).
            let resumed = FastOfd::new(&rel, &onto)
                .options(
                    DiscoveryOptions::new()
                        .checkpoint(CheckpointOptions::new(&dir).resume(true)),
                )
                .run();
            assert!(resumed.complete, "kill_at={kill_at}");
            assert_eq!(
                resumed.ofds, reference.ofds,
                "kill_at={kill_at}: resumed Σ must be byte-identical"
            );
            if !killed.complete && killed.snapshots_written > 0 {
                assert!(resumed.resumed_from_level.is_some(), "kill_at={kill_at}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_accepts_changed_hybrid_knobs() {
        // The sampling knob is excluded from the checkpoint fingerprint
        // (it is result-neutral), so a snapshot written by an unsampled
        // run resumes under a sampled configuration — and completes to the
        // identical Σ.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let reference = FastOfd::new(&rel, &onto).run();
        let dir = temp_ckpt_dir("hybrid_resume");
        let _ = std::fs::remove_dir_all(&dir);
        let guard = ofd_core::ExecGuard::unlimited();
        guard.fail_after(25);
        let killed = FastOfd::new(&rel, &onto)
            .options(
                DiscoveryOptions::new()
                    .sample_rounds(0)
                    .guard(guard)
                    .checkpoint(CheckpointOptions::new(&dir)),
            )
            .run();
        assert!(!killed.complete);
        let resumed = FastOfd::new(&rel, &onto)
            .options(
                DiscoveryOptions::new()
                    .sample_rounds(4)
                    .checkpoint(CheckpointOptions::new(&dir).resume(true)),
            )
            .run();
        assert!(resumed.complete);
        assert_eq!(resumed.ofds, reference.ofds);
        if killed.snapshots_written > 0 {
            assert!(resumed.resumed_from_level.is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_mismatched_inputs_recomputes_fresh() {
        let onto = samples::combined_paper_ontology();
        let dir = temp_ckpt_dir("mismatch");
        let rel1 = table1();
        let complete = FastOfd::new(&rel1, &onto)
            .options(DiscoveryOptions::new().checkpoint(CheckpointOptions::new(&dir)))
            .run();
        assert!(complete.complete && complete.snapshots_written > 0);
        // Same checkpoint dir, different relation: the fingerprint rejects
        // the snapshot and the run starts fresh.
        let rel2 = ofd_core::table1_updated();
        let resumed = FastOfd::new(&rel2, &onto)
            .options(
                DiscoveryOptions::new().checkpoint(CheckpointOptions::new(&dir).resume(true)),
            )
            .run();
        assert!(resumed.resumed_from_level.is_none());
        assert_eq!(
            resumed.ofds,
            FastOfd::new(&rel2, &onto).run().ofds,
            "fresh run output"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_worker_panic_degrades_to_sound_partial() {
        ofd_core::silence_injected_panics();
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let reference = FastOfd::new(&rel, &onto).run();
        for threads in [1usize, 4] {
            let obs = ofd_core::Obs::enabled();
            let plan = ofd_core::FaultPlan::parse("seed=7,panic@5").unwrap();
            let result = FastOfd::new(&rel, &onto)
                .options(
                    DiscoveryOptions::new()
                        .threads(threads)
                        .faults(plan.clone())
                        .obs(obs.clone()),
                )
                .run();
            assert_eq!(plan.fired(ofd_core::FaultSite::WorkerPanic), 1);
            assert!(!result.complete, "threads={threads}");
            assert_eq!(result.interrupt, Some(ofd_core::Interrupt::WorkerPanic));
            for d in &result.ofds {
                assert!(
                    reference.ofds.contains(d),
                    "threads={threads}: partial Σ must be a sound subset"
                );
            }
            assert_eq!(
                obs.snapshot().counter("guard.interrupt.worker_panic"),
                Some(1),
                "threads={threads}"
            );
        }
    }

    /// Random small relations + random flat ontologies for differential
    /// testing against brute force.
    fn arb_instance() -> impl Strategy<Value = (Relation, Ontology)> {
        let n_attrs = 3usize;
        let rows = prop::collection::vec(
            prop::collection::vec(0u8..4, n_attrs),
            1..10,
        );
        let groups = prop::collection::vec(prop::collection::vec(0u8..8, 1..4), 0..4);
        (rows, groups).prop_map(move |(rows, groups)| {
            let names: Vec<String> = (0..n_attrs).map(|i| format!("A{i}")).collect();
            let mut b = Relation::builder(
                ofd_core::Schema::new(names.iter().map(String::as_str)).unwrap(),
            );
            for row in &rows {
                let cells: Vec<String> = row.iter().map(|v| format!("v{v}")).collect();
                b.push_row(cells.iter().map(String::as_str)).unwrap();
            }
            let rel = b.finish();
            let mut ob = OntologyBuilder::new();
            for (gi, group) in groups.iter().enumerate() {
                let mut values: Vec<String> =
                    group.iter().map(|v| format!("v{v}")).collect();
                values.sort();
                values.dedup();
                ob.concept(format!("g{gi}"))
                    .synonyms(values)
                    .build()
                    .unwrap();
            }
            (rel, ob.finish().unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fastofd_equals_brute_force((rel, onto) in arb_instance()) {
            let brute = brute_force(&rel, &onto, OfdKind::Synonym, 1.0);
            for opts in [
                DiscoveryOptions::default(),
                DiscoveryOptions::new().no_optimizations(),
            ] {
                let fast = discover(&rel, &onto, opts);
                prop_assert_eq!(&fast, &brute);
            }
        }

        #[test]
        fn approximate_fastofd_equals_brute_force((rel, onto) in arb_instance()) {
            let brute = brute_force(&rel, &onto, OfdKind::Synonym, 0.7);
            let fast = discover(
                &rel,
                &onto,
                DiscoveryOptions::new().min_support(0.7),
            );
            prop_assert_eq!(fast, brute);
        }

        /// FastOFD equals brute force at every support boundary of the
        /// instance — each κ = j/n and a hair above it — and every emitted
        /// support is bit-identical to the validator's, under synonym and
        /// θ = 1 inheritance semantics.
        #[test]
        fn fastofd_equals_brute_force_at_every_support_boundary((rel, onto) in arb_instance()) {
            let n = rel.n_rows();
            let validator = ofd_core::Validator::new(&rel, &onto);
            for kind in [OfdKind::Synonym, OfdKind::Inheritance { theta: 1 }] {
                for j in 0..=n {
                    let at = j as f64 / n as f64;
                    for kappa in [at, at + 1e-9].into_iter().filter(|&k| k > 0.0 && k <= 1.0) {
                        let fast: Vec<(Ofd, u64)> = FastOfd::new(&rel, &onto)
                            .options(DiscoveryOptions::new().kind(kind).min_support(kappa))
                            .run()
                            .ofds
                            .iter()
                            .map(|d| (d.ofd, d.support.to_bits()))
                            .collect();
                        let brute: Vec<(Ofd, u64)> = brute_force(&rel, &onto, kind, kappa)
                            .into_iter()
                            .map(|o| (o, validator.check(&o).support().to_bits()))
                            .collect();
                        prop_assert_eq!(fast, brute, "{:?} at κ = {}", kind, kappa);
                    }
                }
            }
        }

        /// Every cache budget — 0 keeps only the pinned level-0/1
        /// partitions — and thread count gives brute force's Σ, with every
        /// support bit-identical to the validator's, exactly and at κ = 0.7
        /// (the perf-layer result-neutrality contract).
        #[test]
        fn cached_fastofd_equals_brute_force(
            ((rel, onto), threads) in (arb_instance(), 1usize..5)
        ) {
            let validator = ofd_core::Validator::new(&rel, &onto);
            for kappa in [1.0, 0.7] {
                let brute: Vec<(Ofd, u64)> = brute_force(&rel, &onto, OfdKind::Synonym, kappa)
                    .into_iter()
                    .map(|o| (o, validator.check(&o).support().to_bits()))
                    .collect();
                for mib in [0usize, 1, 256] {
                    let fast: Vec<(Ofd, u64)> = FastOfd::new(&rel, &onto)
                        .options(
                            DiscoveryOptions::new()
                                .min_support(kappa)
                                .partition_cache_mib(mib)
                                .threads(threads),
                        )
                        .run()
                        .ofds
                        .iter()
                        .map(|d| (d.ofd, d.support.to_bits()))
                        .collect();
                    prop_assert_eq!(&fast, &brute, "κ = {} at {} MiB", kappa, mib);
                }
            }
        }

        /// Sampled runs agree with the plain sequential engine on Σ over
        /// random instances and thread counts (the hybrid-pipeline
        /// result-neutrality contract).
        #[test]
        fn hybrid_fastofd_equals_sequential(
            ((rel, onto), threads) in (arb_instance(), 1usize..5)
        ) {
            let sequential = FastOfd::new(&rel, &onto)
                .options(DiscoveryOptions::new().sample_rounds(0))
                .run();
            let hybrid = FastOfd::new(&rel, &onto)
                .options(DiscoveryOptions::new().sample_rounds(3).threads(threads))
                .run();
            prop_assert_eq!(&hybrid.ofds, &sequential.ofds);
        }

        /// Interrupting FastOFD at an arbitrary checkpoint yields a subset
        /// of the uninterrupted Σ and never an invalid OFD — the tentpole
        /// partial-result soundness property.
        #[test]
        fn interrupted_fastofd_emits_sound_subset(
            ((rel, onto), n) in (arb_instance(), 1u64..120)
        ) {
            let full = brute_force(&rel, &onto, OfdKind::Synonym, 1.0);
            let guard = ofd_core::ExecGuard::unlimited();
            guard.fail_after(n);
            let result = FastOfd::new(&rel, &onto)
                .options(DiscoveryOptions::new().guard(guard))
                .run();
            let partial: Vec<Ofd> = result.ofds().copied().collect();
            for ofd in &partial {
                prop_assert!(
                    full.contains(ofd),
                    "interrupted run emitted an OFD outside the full output"
                );
            }
            if result.complete {
                prop_assert!(result.interrupt.is_none());
                prop_assert_eq!(partial, full);
            } else {
                prop_assert!(result.interrupt.is_some());
            }
        }
    }
}
