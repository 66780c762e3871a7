//! Workspace-level crash-safety properties: a checkpointed run killed at
//! an arbitrary guard checkpoint and then resumed must reproduce the
//! uninterrupted run *exactly* — same Σ (bit-identical supports), same
//! repaired instance, same repairs — for any dataset and any kill point.
//!
//! The fail-point "kill" is equivalent to `kill -9` at the same moment as
//! far as the checkpoint directory is concerned: snapshots are written
//! only at completed level/phase boundaries, atomically, so the on-disk
//! state never reflects a half-finished phase either way.

use fastofd::clean::{ofd_clean, OfdCleanConfig};
use fastofd::core::{CheckpointOptions, ExecGuard, FaultPlan, Interrupt, Obs};
use fastofd::datagen::{clinical, PresetConfig};
use fastofd::discovery::{DiscoveryOptions, FastOfd};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fastofd_crash_resume_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dataset(rows: usize, seed: u64) -> fastofd::datagen::Dataset {
    let mut ds = clinical(&PresetConfig {
        n_rows: rows,
        n_ofds: 4,
        seed,
        ..PresetConfig::default()
    });
    ds.degrade_ontology(0.04, seed);
    ds.inject_errors(0.03, seed);
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Discovery: kill at a random checkpoint, resume, compare Σ — exact
    /// and approximate, with a generous cache and with one that keeps only
    /// the pinned level-1 partitions (a resumed frontier's partitions are
    /// produced on demand from them).
    #[test]
    fn discovery_resume_is_exact(
        seed in 0u64..1_000,
        rows in 60usize..140,
        kill_at in 1u64..1_500,
        kappa_at in 0usize..2,
        mib_at in 0usize..2,
    ) {
        let ds = dataset(rows, seed);
        let kappa = [1.0, 0.9][kappa_at];
        let mib = [0usize, 256][mib_at];
        let base = || {
            DiscoveryOptions::new()
                .max_level(3)
                .min_support(kappa)
                .partition_cache_mib(mib)
        };
        let reference = FastOfd::new(&ds.relation, &ds.ontology).options(base()).run();
        prop_assert!(reference.complete);

        let dir = temp_dir(&format!("disc_{seed}_{rows}_{kill_at}_{kappa_at}_{mib_at}"));
        let guard = ExecGuard::unlimited();
        guard.fail_after(kill_at);
        let killed = FastOfd::new(&ds.relation, &ds.ontology)
            .options(base().guard(guard).checkpoint(CheckpointOptions::new(&dir)))
            .run();
        let resumed = FastOfd::new(&ds.relation, &ds.ontology)
            .options(base().checkpoint(CheckpointOptions::new(&dir).resume(true)))
            .run();
        prop_assert!(resumed.complete);
        prop_assert_eq!(&resumed.ofds, &reference.ofds);
        // Supports bit-identical, not merely approximately equal.
        for (r, f) in resumed.ofds.iter().zip(reference.ofds.iter()) {
            prop_assert_eq!(r.support.to_bits(), f.support.to_bits());
        }
        if !killed.complete && killed.snapshots_written > 0 {
            prop_assert!(resumed.resumed_from_level.is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// OFDClean: kill at a random checkpoint, resume, compare the repair.
    #[test]
    fn clean_resume_is_exact(
        seed in 0u64..1_000,
        rows in 60usize..140,
        kill_at in 1u64..80,
    ) {
        let ds = dataset(rows, seed);
        let reference = ofd_clean(&ds.relation, &ds.ontology, &ds.ofds, &OfdCleanConfig::default());
        prop_assert!(reference.complete);

        let dir = temp_dir(&format!("clean_{seed}_{rows}_{kill_at}"));
        let killed_config = OfdCleanConfig {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            ..OfdCleanConfig::default()
        };
        killed_config.guard.fail_after(kill_at);
        let _killed = ofd_clean(&ds.relation, &ds.ontology, &ds.ofds, &killed_config);
        let resumed = ofd_clean(
            &ds.relation,
            &ds.ontology,
            &ds.ofds,
            &OfdCleanConfig {
                checkpoint: Some(CheckpointOptions::new(&dir).resume(true)),
                ..OfdCleanConfig::default()
            },
        );
        prop_assert!(resumed.complete);
        prop_assert_eq!(resumed.repaired.cell_distance(&reference.repaired).unwrap(), 0);
        prop_assert_eq!(&resumed.data_repairs, &reference.data_repairs);
        prop_assert_eq!(&resumed.ontology_adds, &reference.ontology_adds);
        prop_assert_eq!(resumed.satisfied, reference.satisfied);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `discovery` and `clean` snapshot streams coexist in one directory:
/// the discover → clean pipeline can checkpoint both stages side by side
/// and resume each independently.
#[test]
fn pipeline_checkpoints_share_a_directory() {
    let ds = dataset(120, 9);
    let dir = temp_dir("pipeline");

    let disc = FastOfd::new(&ds.relation, &ds.ontology)
        .options(
            DiscoveryOptions::new()
                .max_level(2)
                .checkpoint(CheckpointOptions::new(&dir)),
        )
        .run();
    assert!(disc.complete && disc.snapshots_written > 0);

    let config = OfdCleanConfig {
        checkpoint: Some(CheckpointOptions::new(&dir)),
        ..OfdCleanConfig::default()
    };
    let cleaned = ofd_clean(&ds.relation, &ds.ontology, &ds.ofds, &config);
    assert!(cleaned.complete);
    assert_eq!(cleaned.snapshots_written, 3);

    // Resume each stream against the same directory: both restore.
    let disc2 = FastOfd::new(&ds.relation, &ds.ontology)
        .options(
            DiscoveryOptions::new()
                .max_level(2)
                .checkpoint(CheckpointOptions::new(&dir).resume(true)),
        )
        .run();
    assert!(disc2.resumed_from_level.is_some());
    assert_eq!(disc2.ofds, disc.ofds);

    let cleaned2 = ofd_clean(
        &ds.relation,
        &ds.ontology,
        &ds.ofds,
        &OfdCleanConfig {
            checkpoint: Some(CheckpointOptions::new(&dir).resume(true)),
            ..OfdCleanConfig::default()
        },
    );
    assert_eq!(cleaned2.resumed_from_phase, Some(3));
    assert_eq!(cleaned2.data_repairs, cleaned.data_repairs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two engines interleaving checkpoints in one directory — the situation
/// a misrouted serve worker would create — must stay isolated by the
/// engine fingerprint: neither resumes from the other's snapshot, and
/// both still reproduce their uninterrupted references exactly.
#[test]
fn concurrent_discoveries_in_one_directory_stay_fingerprint_isolated() {
    let ds_a = dataset(110, 21);
    let ds_b = dataset(95, 22);
    let dir = temp_dir("shared");
    let base = || DiscoveryOptions::new().max_level(3);

    let ref_a = FastOfd::new(&ds_a.relation, &ds_a.ontology).options(base()).run();
    let ref_b = FastOfd::new(&ds_b.relation, &ds_b.ontology).options(base()).run();
    assert!(ref_a.complete && ref_b.complete);

    // Interrupted runs of BOTH datasets, concurrently, into the same
    // directory and the same `discovery` stream: their snapshot writes
    // interleave freely.
    let handles: Vec<_> = [(&ds_a, 400u64), (&ds_b, 300u64)]
        .into_iter()
        .map(|(ds, kill_at)| {
            let (rel, onto, dir) = (ds.relation.clone(), ds.ontology.clone(), dir.clone());
            std::thread::spawn(move || {
                let guard = ExecGuard::unlimited();
                guard.fail_after(kill_at);
                FastOfd::new(&rel, &onto)
                    .options(
                        DiscoveryOptions::new()
                            .max_level(3)
                            .guard(guard)
                            .checkpoint(CheckpointOptions::new(&dir)),
                    )
                    .run()
            })
        })
        .collect();
    for h in handles {
        let _ = h.join().unwrap();
    }

    // Each resumed run must reproduce ITS reference bit-for-bit. The
    // newest snapshot in the shared stream belongs to one dataset at
    // most; the fingerprint check forces the other onto a fresh run
    // instead of silently adopting foreign state.
    for (ds, reference) in [(&ds_a, &ref_a), (&ds_b, &ref_b)] {
        let resumed = FastOfd::new(&ds.relation, &ds.ontology)
            .options(base().checkpoint(CheckpointOptions::new(&dir).resume(true)))
            .run();
        assert!(resumed.complete);
        assert_eq!(resumed.ofds, reference.ofds);
        for (r, f) in resumed.ofds.iter().zip(reference.ofds.iter()) {
            assert_eq!(r.support.to_bits(), f.support.to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected worker panic must surface as a labelled interrupt with a
/// sound partial Σ — the process survives, and a later clean run over the
/// partial output still works end to end.
#[test]
fn injected_panic_degrades_gracefully_across_the_pipeline() {
    fastofd::core::silence_injected_panics();
    let ds = dataset(100, 3);
    let obs = Obs::enabled();
    let out = FastOfd::new(&ds.relation, &ds.ontology)
        .options(
            DiscoveryOptions::new()
                .max_level(3)
                .threads(2)
                .obs(obs.clone())
                .faults(FaultPlan::parse("seed=5,panic@4").unwrap()),
        )
        .run();
    assert!(!out.complete);
    assert_eq!(out.interrupt, Some(Interrupt::WorkerPanic));
    assert_eq!(
        obs.snapshot().counter("guard.interrupt.worker_panic"),
        Some(1)
    );
    // The partial Σ is sound: every emitted OFD verifies on the instance.
    let validator = fastofd::core::Validator::new(&ds.relation, &ds.ontology);
    for d in &out.ofds {
        assert!(
            validator.check(&d.ofd).support() >= DiscoveryOptions::new().min_support,
            "partial Σ contains an unverified OFD"
        );
    }
}
