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
use fastofd::core::{CheckpointOptions, ExecGuard, FaultPlan, Interrupt, Obs, SnapshotStore};
use fastofd::datagen::{clinical, PresetConfig};
use fastofd::discovery::{DiscoveryOptions, FastOfd};
use proptest::prelude::*;
use serde_json::Value;

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

/// A snapshot body's `key` field.
fn field<'a>(body: &'a mut Value, key: &str) -> &'a mut Value {
    match body {
        Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
        other => panic!("{key}: {other} is not an object"),
    }
}

fn items(value: &mut Value) -> &mut Vec<Value> {
    match value {
        Value::Array(items) => items,
        other => panic!("{other} is not an array"),
    }
}

/// Re-saves `body` as the newest snapshot of `stream`: `save` re-envelopes
/// it, exactly as a receiver installs a shipped body, so only `restore`
/// stands between the edited ids and the engine.
fn plant(dir: &std::path::Path, stream: &str, body: &Value) {
    SnapshotStore::new(dir)
        .save(stream, 99, body)
        .expect("plant the edited body");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Discovery: a real level snapshot with one attribute id moved past
    /// |R| (a frontier node or C+ bit, a Σ antecedent bit or consequent)
    /// and its fingerprint kept. Resuming must reject it — counted, no
    /// panic — and answer exactly as a fresh run.
    #[test]
    fn discovery_rejects_ids_outside_the_schema(
        seed in 0u64..1_000,
        rows in 60usize..120,
        pick in 0usize..64,
        target in 0usize..4,
        high in 0u32..64,
    ) {
        let ds = dataset(rows, seed);
        let n = ds.relation.n_attrs();
        let base = || DiscoveryOptions::new().max_level(3);
        let reference = FastOfd::new(&ds.relation, &ds.ontology).options(base()).run();
        let dir = temp_dir(&format!("disc_ids_{seed}_{rows}_{pick}_{target}_{high}"));
        FastOfd::new(&ds.relation, &ds.ontology)
            .options(base().checkpoint(CheckpointOptions::new(&dir)))
            .run();
        let store = SnapshotStore::new(&dir);
        let seqs = store.versions("discovery").expect("versions");
        let seq = seqs[pick % seqs.len()];
        let mut body = store.load_seq("discovery", seq).expect("load").expect("present").body;
        let bit = 1u64 << (n as u32 + high % (64 - n as u32));
        let sigma_empty = items(field(&mut body, "sigma")).is_empty();
        let frontier_empty = items(field(&mut body, "frontier")).is_empty();
        if sigma_empty && frontier_empty {
            return; // a converged run's last snapshot names no id
        }
        let (list, key) = match target {
            0 | 1 if !frontier_empty => ("frontier", ["attrs", "c_plus"][target]),
            _ if !sigma_empty => ("sigma", ["lhs", "rhs"][target % 2]),
            _ => ("frontier", "attrs"),
        };
        let entries = items(field(&mut body, list));
        let len = entries.len();
        let id = field(&mut entries[pick % len], key);
        *id = match key {
            "rhs" => Value::from(n as u64 + u64::from(high) * (1 << 34) / 63),
            _ => Value::from(id.as_u64().expect("bits") | bit),
        };
        plant(&dir, "discovery", &body);

        let obs = Obs::enabled();
        let resumed = FastOfd::new(&ds.relation, &ds.ontology)
            .options(base().obs(obs.clone()).checkpoint(CheckpointOptions::new(&dir).resume(true)))
            .run();
        prop_assert_eq!(obs.snapshot().counter("discovery.resume.rejected"), Some(1));
        prop_assert!(resumed.resumed_from_level.is_none());
        prop_assert_eq!(&resumed.ofds, &reference.ofds);
        for (r, f) in resumed.ofds.iter().zip(reference.ofds.iter()) {
            prop_assert_eq!(r.support.to_bits(), f.support.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// OFDClean: a real phase-2 or phase-3 snapshot with one sense id moved
    /// past |S| (an assignment cell or a plan addition) or its Pareto list
    /// emptied, fingerprint kept. Resuming must reject it — counted, no
    /// panic — and repair exactly as a fresh run.
    #[test]
    fn clean_rejects_ids_outside_the_ontology(
        seed in 0u64..1_000,
        rows in 60usize..120,
        pick in 0usize..256,
        target in 0usize..3,
        high in 0u64..(1 << 40),
    ) {
        let ds = dataset(rows, seed);
        let reference = ofd_clean(&ds.relation, &ds.ontology, &ds.ofds, &OfdCleanConfig::default());
        let dir = temp_dir(&format!("clean_ids_{seed}_{rows}_{pick}_{target}"));
        let checkpointed = OfdCleanConfig {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            ..OfdCleanConfig::default()
        };
        ofd_clean(&ds.relation, &ds.ontology, &ds.ofds, &checkpointed);
        let store = SnapshotStore::new(&dir);
        let seq = [2, 3][pick % 2];
        let mut body = store.load_seq("clean", seq).expect("load").expect("present").body;
        let bad = Value::from(ds.ontology.len() as u64 + high);
        // Every sense id slot of the body: assignment cells, then plan adds.
        let mut cells: Vec<(usize, usize)> = Vec::new();
        for (i, row) in items(field(&mut body, "assignment")).iter().enumerate() {
            cells.extend((0..row.as_array().expect("row").len()).map(|j| (i, j)));
        }
        let plan = field(&mut body, "plan");
        let mut adds: Vec<(&str, usize, usize)> = Vec::new();
        adds.extend((0..items(field(plan, "candidates")).len()).map(|i| ("candidates", i, 0)));
        for list in ["frontier", "pareto"] {
            for (i, point) in items(field(plan, list)).iter_mut().enumerate() {
                adds.extend((0..items(field(point, "adds")).len()).map(|j| (list, i, j)));
            }
        }
        match target {
            0 | 1 if !cells.is_empty() && (target == 0 || adds.is_empty()) => {
                let (i, j) = cells[pick % cells.len()];
                items(&mut items(field(&mut body, "assignment"))[i])[j] = bad;
            }
            1 => {
                let (list, i, j) = adds[pick % adds.len()];
                let pair = match list {
                    "candidates" => &mut items(field(plan, list))[i],
                    _ => &mut items(field(&mut items(field(plan, list))[i], "adds"))[j],
                };
                items(pair)[1] = bad;
            }
            _ => items(field(plan, "pareto")).clear(),
        }
        plant(&dir, "clean", &body);

        let config = OfdCleanConfig {
            checkpoint: Some(CheckpointOptions::new(&dir).resume(true)),
            obs: Obs::enabled(),
            ..OfdCleanConfig::default()
        };
        let resumed = ofd_clean(&ds.relation, &ds.ontology, &ds.ofds, &config);
        prop_assert_eq!(config.obs.snapshot().counter("clean.resume.rejected"), Some(1));
        prop_assert!(resumed.resumed_from_phase.is_none());
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
