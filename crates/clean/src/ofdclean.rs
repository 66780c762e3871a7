//! The OFDClean orchestrator (§4.2, Figure 4): sense assignment → local
//! refinement → ontology repair → data repair, returning a repaired
//! `(S′, I′)` with `I′ ⊨ Σ` w.r.t. `S′` plus the Pareto frontier explored.

use std::collections::HashSet;

use ofd_core::{CheckpointOptions, ExecGuard, Interrupt, Obs, Ofd, Relation, SenseIndex, ValueId, Validator};
use ofd_ontology::{Ontology, OntologyRepair, SenseId};

use crate::checkpoint;
use crate::classes::build_classes;
use crate::conflict::{repair_data_guarded, CellRepair};
use crate::graph::local_refinement_guarded;
use crate::ontrepair::{beam_search_guarded, OntologyRepairPlan};
use crate::sense::{assign_all, SenseAssignment, SenseView};

/// Tunables of a cleaning run (defaults follow Table 5).
#[derive(Debug, Clone)]
pub struct OfdCleanConfig {
    /// EMD threshold θ above which an edge triggers refinement.
    pub theta: f64,
    /// Beam width `b`; `None` applies the secretary rule ⌊w/e⌋.
    pub beam: Option<usize>,
    /// Data-repair budget τ as a fraction of |I| (the paper uses 0.65).
    pub tau: f64,
    /// Maximum ontology-repair size explored; `None` = all candidates.
    pub max_ontology_repairs: Option<usize>,
    /// Maximum repair-regenerate rounds of the data-repair loop.
    pub max_rounds: usize,
    /// Number of refinement sweeps over the dependency graph.
    pub refinement_passes: usize,
    /// Execution guard probed throughout refinement, beam search and data
    /// repair. On interrupt the run stops at the next checkpoint and
    /// returns a sound partial result (see [`CleanResult::complete`]).
    pub guard: ExecGuard,
    /// Observability handle recording per-phase spans
    /// (`ofdclean.assign` / `refine` / `beam_search` / `repair_data` /
    /// `verify`) and the `clean.*` counters: `search_expansions` (ontology
    /// candidates explored by beam search), `repairs_applied` (cell
    /// rewrites), `ontology_adds` and `sense_reassignments`. Disabled by
    /// default; guard interrupts are labelled as
    /// `guard.interrupt.<reason>`.
    pub obs: Obs,
    /// Crash-safety checkpointing: when set, a cumulative snapshot is
    /// written after each completed phase (refine / beam search / data
    /// repair) and, with [`CheckpointOptions::resume`], the run restores
    /// the newest valid snapshot and skips the phases it covers. The
    /// final verification always re-runs. `None` disables.
    pub checkpoint: Option<CheckpointOptions>,
}

impl Default for OfdCleanConfig {
    fn default() -> Self {
        OfdCleanConfig {
            theta: 0.0,
            beam: None,
            tau: 0.65,
            max_ontology_repairs: None,
            max_rounds: 10,
            refinement_passes: 1,
            guard: ExecGuard::unlimited(),
            obs: Obs::disabled(),
            checkpoint: None,
        }
    }
}

/// Result of a cleaning run.
#[derive(Debug, Clone)]
pub struct CleanResult {
    /// The repaired instance `I′`.
    pub repaired: Relation,
    /// The repaired ontology `S′`.
    pub repaired_ontology: Ontology,
    /// The ontology delta applied.
    pub ontology_repair: OntologyRepair,
    /// The `(value, sense)` insertions (interned form).
    pub ontology_adds: Vec<(ValueId, SenseId)>,
    /// Cell updates applied.
    pub data_repairs: Vec<CellRepair>,
    /// Final sense assignment Λ(Σ).
    pub assignment: SenseAssignment,
    /// The explored ontology-repair frontier.
    pub plan: OntologyRepairPlan,
    /// Sense reassignments performed by local refinement.
    pub reassignments: usize,
    /// Whether `I′ ⊨ Σ` w.r.t. `S′`.
    pub satisfied: bool,
    /// Whether the run finished without the guard tripping. When `false`,
    /// everything reported is still sound — every applied repair is a
    /// valid cell rewrite / ontology insertion and `satisfied` reflects
    /// the actual final state — but further repairs may remain.
    pub complete: bool,
    /// Why the run stopped early, when it did.
    pub interrupt: Option<Interrupt>,
    /// The completed phase (1 = refine, 2 = beam search, 3 = data repair)
    /// a resumed run restarted after; `None` for a fresh run.
    pub resumed_from_phase: Option<u64>,
    /// Phase-boundary snapshots written by this run.
    pub snapshots_written: usize,
    /// Snapshot writes that failed (I/O or injected faults); the run
    /// continues regardless.
    pub snapshot_errors: usize,
}

impl CleanResult {
    /// `dist(I, I′)`: number of cells changed.
    pub fn data_dist(&self) -> usize {
        self.data_repairs.len()
    }

    /// `dist(S, S′)`: number of values inserted into the ontology.
    pub fn ontology_dist(&self) -> usize {
        self.ontology_repair.dist()
    }
}

/// Runs OFDClean on `(rel, onto)` w.r.t. `sigma`.
///
/// Σ must be of uniform kind. Synonym OFDs are cleaned directly;
/// inheritance OFDs (the paper's stated future work) are cleaned against
/// the θ-expansion `S↑θ` (see [`Ontology::inheritance_expansion`]) — a
/// value repair or concept insertion under the expansion maps one-to-one
/// onto the original ontology, and the final verification runs the real
/// inheritance semantics against the repaired original.
pub fn ofd_clean(
    rel: &Relation,
    onto: &Ontology,
    sigma: &[Ofd],
    config: &OfdCleanConfig,
) -> CleanResult {
    use ofd_core::OfdKind;
    let kinds: Vec<OfdKind> = sigma.iter().map(|o| o.kind).collect();
    assert!(
        kinds.windows(2).all(|w| w[0] == w[1]),
        "ofd_clean requires a uniform-kind Σ"
    );
    match kinds.first() {
        Some(OfdKind::Inheritance { theta }) => {
            let expanded = onto.inheritance_expansion(*theta);
            let sigma_syn: Vec<Ofd> = sigma
                .iter()
                .map(|o| Ofd::synonym(o.lhs, o.rhs))
                .collect();
            let mut result = clean_core(rel, &expanded, &sigma_syn, config);
            // Map the repairs back onto the original ontology (same sense
            // ids; candidate values are absent from S, hence from every
            // original concept).
            let repaired_original = onto
                .with_repair(&result.ontology_repair)
                .expect("expansion candidates are new to S");
            let validator = Validator::new(&result.repaired, &repaired_original);
            result.satisfied = sigma.iter().all(|o| validator.check(o).satisfied());
            result.repaired_ontology = repaired_original;
            result
        }
        _ => clean_core(rel, onto, sigma, config),
    }
}

/// Writes the cumulative snapshot for `phase`, if checkpointing is on and
/// no interrupt is pending (an interrupted phase is incomplete; recording
/// it as done would make resume unsound — this is also what makes the
/// on-disk state identical to a hard kill's).
#[allow(clippy::too_many_arguments)]
fn save_phase_snapshot(
    config: &OfdCleanConfig,
    fp: Option<u64>,
    phase: u64,
    rel: &Relation,
    assignment: &SenseAssignment,
    reassignments: usize,
    plan: Option<&OntologyRepairPlan>,
    repairs: Option<&[CellRepair]>,
    written: &mut usize,
    errors: &mut usize,
) {
    let Some(ck) = &config.checkpoint else {
        return;
    };
    if config.guard.interrupt().is_some() {
        return;
    }
    let body = checkpoint::snapshot_body(
        fp.expect("fingerprint is set whenever checkpointing is"),
        phase,
        rel,
        assignment,
        reassignments,
        plan,
        repairs,
        &config.obs,
    );
    match ck.store.save(checkpoint::STREAM, phase, &body) {
        Ok(_) => {
            *written += 1;
            config.obs.inc("clean.checkpoint.written");
        }
        Err(_) => {
            *errors += 1;
            config.obs.inc("clean.checkpoint.error");
        }
    }
}

fn clean_core(
    rel: &Relation,
    onto: &Ontology,
    sigma: &[Ofd],
    config: &OfdCleanConfig,
) -> CleanResult {
    let obs = &config.obs;
    let _run_span = obs.span("ofdclean.run");
    let mut working = rel.clone();
    let mut index = SenseIndex::synonym(&working, onto);
    let empty_overlay: HashSet<(ValueId, SenseId)> = HashSet::new();

    // Checkpoint/resume: load the newest valid snapshot, bound to exactly
    // these inputs by the fingerprint.
    let fp = config
        .checkpoint
        .as_ref()
        .map(|_| checkpoint::fingerprint(rel, onto, sigma, config));
    let mut snapshots_written = 0;
    let mut snapshot_errors = 0;
    let mut resume: Option<checkpoint::CleanResume> = None;
    if let Some(ck) = config.checkpoint.as_ref().filter(|c| c.resume) {
        if let Ok(Some(loaded)) = ck.store.load_latest(checkpoint::STREAM) {
            match checkpoint::restore(&loaded.body, fp.expect("fp set"), rel, onto) {
                Some(rs) => resume = Some(rs),
                None => obs.inc("clean.resume.rejected"),
            }
        }
    }

    let classes = build_classes(&working, sigma);
    // A restored assignment must be shaped exactly like the class table
    // the current inputs produce; anything else is discarded wholesale.
    if let Some(rs) = &resume {
        let shape_ok = rs.assignment.table().len() == classes.len()
            && rs
                .assignment
                .table()
                .iter()
                .zip(classes.iter())
                .all(|(row, c)| row.len() == c.classes.len());
        if !shape_ok {
            resume = None;
            obs.inc("clean.resume.rejected");
        }
    }
    let restored_phase = resume.as_ref().map_or(0, |rs| rs.phase);
    let resumed_from_phase = resume.as_ref().map(|rs| rs.phase);
    if let Some(rs) = &resume {
        // Re-seed obs accumulators so final totals cover the whole
        // logical run, not just the tail.
        for (name, v) in &rs.counters {
            obs.add(name, *v);
        }
        if obs.is_enabled() {
            obs.inc("clean.resume");
            obs.set_gauge("clean.resumed_from_phase", rs.phase as f64);
        }
    }

    // 1. Sense assignment (Algorithm 8): initial + local refinement.
    let (assignment, reassignments) = if restored_phase >= 1 {
        let rs = resume.as_ref().expect("restored");
        (rs.assignment.clone(), rs.reassignments)
    } else {
        let assign_span = obs.span("ofdclean.assign");
        let view = SenseView {
            base: &index,
            overlay: &empty_overlay,
        };
        let mut assignment = assign_all(&classes, view);
        drop(assign_span);
        let refine_span = obs.span("ofdclean.refine");
        let mut reassignments = 0;
        for _ in 0..config.refinement_passes {
            if config.guard.check().is_err() {
                break;
            }
            let n = local_refinement_guarded(
                &working,
                onto,
                &classes,
                &mut assignment,
                view,
                config.theta,
                &config.guard,
            );
            reassignments += n;
            if n == 0 {
                break;
            }
        }
        drop(refine_span);
        obs.add("clean.sense_reassignments", reassignments as u64);
        save_phase_snapshot(
            config,
            fp,
            1,
            rel,
            &assignment,
            reassignments,
            None,
            None,
            &mut snapshots_written,
            &mut snapshot_errors,
        );
        (assignment, reassignments)
    };

    // 2. Ontology repair (Algorithm 7): beam search over Cand(S).
    let plan = if restored_phase >= 2 {
        resume
            .as_ref()
            .and_then(|rs| rs.plan.clone())
            .expect("phase ≥ 2 snapshots carry a plan")
    } else {
        let beam_span = obs.span("ofdclean.beam_search");
        let plan = beam_search_guarded(
            &working,
            sigma,
            &classes,
            &assignment,
            &index,
            config.beam,
            config.max_ontology_repairs,
            &config.guard,
        );
        drop(beam_span);
        obs.add("clean.search_expansions", plan.candidates.len() as u64);
        obs.add("clean.frontier_points", plan.frontier.len() as u64);
        save_phase_snapshot(
            config,
            fp,
            2,
            rel,
            &assignment,
            reassignments,
            Some(&plan),
            None,
            &mut snapshots_written,
            &mut snapshot_errors,
        );
        plan
    };
    let tau_max = (config.tau * working.n_rows() as f64).floor() as usize;
    let chosen = plan.select(tau_max).clone();

    // Apply the chosen ontology repair (recomputed deterministically from
    // the plan on resume).
    let mut ontology_repair = OntologyRepair::new();
    for &(v, s) in &chosen.adds {
        ontology_repair.add(s, working.pool().resolve(v));
    }
    let repaired_ontology = onto
        .with_repair(&ontology_repair)
        .expect("candidates are absent from S by construction");
    let overlay: HashSet<(ValueId, SenseId)> = chosen.adds.iter().copied().collect();

    // 3. Data repair to the remaining violations.
    let data_repairs = if restored_phase >= 3 {
        let repairs = resume
            .as_ref()
            .and_then(|rs| rs.repairs.clone())
            .expect("phase 3 snapshots carry the repairs");
        // Replay onto the input instance: reproduces I′ cell-for-cell
        // (bounds were validated during restore).
        for r in &repairs {
            working
                .set(r.row, r.attr, &r.new)
                .expect("bounds validated on restore");
        }
        repairs
    } else {
        let repair_span = obs.span("ofdclean.repair_data");
        let (data_repairs, _converged) = repair_data_guarded(
            &mut working,
            &repaired_ontology,
            sigma,
            &assignment,
            &mut index,
            &overlay,
            tau_max,
            config.max_rounds,
            &config.guard,
        );
        drop(repair_span);
        obs.add("clean.repairs_applied", data_repairs.len() as u64);
        obs.add("clean.ontology_adds", chosen.adds.len() as u64);
        save_phase_snapshot(
            config,
            fp,
            3,
            rel,
            &assignment,
            reassignments,
            Some(&plan),
            Some(&data_repairs),
            &mut snapshots_written,
            &mut snapshot_errors,
        );
        data_repairs
    };

    // 4. Verify I′ ⊨ Σ w.r.t. S′. Runs even after an interrupt — the
    // reported `satisfied` always reflects the actual final state.
    let verify_span = obs.span("ofdclean.verify");
    let validator = Validator::new(&working, &repaired_ontology);
    let satisfied = sigma.iter().all(|o| validator.check(o).satisfied());
    drop(verify_span);

    let interrupt = config.guard.interrupt();
    if let Some(i) = interrupt {
        obs.inc(&format!("guard.interrupt.{}", i.label()));
    }
    CleanResult {
        repaired: working,
        repaired_ontology,
        ontology_adds: chosen.adds,
        ontology_repair,
        data_repairs,
        assignment,
        plan,
        reassignments,
        satisfied,
        complete: interrupt.is_none(),
        interrupt,
        resumed_from_phase,
        snapshots_written,
        snapshot_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::{table1, table1_updated};
    use ofd_ontology::samples;

    fn sigma_for(rel: &Relation) -> Vec<Ofd> {
        vec![
            Ofd::synonym_named(rel.schema(), &["CC"], "CTRY").unwrap(),
            Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap(),
        ]
    }

    #[test]
    fn cleans_the_example_1_2_instance() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let result = ofd_clean(&rel, &onto, &sigma, &OfdCleanConfig::default());
        assert!(result.satisfied, "I′ ⊨ Σ w.r.t. S′");
        // The two resolution routes of Example 1.2: either the ontology
        // grew or tuples were updated — in a minimal repair, both a bit.
        assert!(result.ontology_dist() + result.data_dist() > 0);
        // Changes stay within the headache class + adizem candidates.
        assert!(result.data_dist() <= 4);
    }

    #[test]
    fn clean_input_is_a_fixpoint() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let sigma = vec![Ofd::synonym_named(rel.schema(), &["CC"], "CTRY").unwrap()];
        let result = ofd_clean(&rel, &onto, &sigma, &OfdCleanConfig::default());
        assert!(result.satisfied);
        assert_eq!(result.data_dist(), 0);
        assert_eq!(result.ontology_dist(), 0);
        assert_eq!(result.repaired.cell_distance(&rel).unwrap(), 0);
    }

    #[test]
    fn tau_zero_forces_pure_ontology_repairs_when_possible() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let config = OfdCleanConfig {
            tau: 0.0,
            ..OfdCleanConfig::default()
        };
        let result = ofd_clean(&rel, &onto, &sigma, &config);
        // With zero data budget the plan prefers δ_P = 0 points if any;
        // data repairs are capped at τ·|I| = 0 either way.
        assert!(result.data_dist() == 0 || !result.satisfied);
    }

    #[test]
    fn repaired_ontology_contains_the_adds() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let result = ofd_clean(&rel, &onto, &sigma, &OfdCleanConfig::default());
        for (v, s) in &result.ontology_adds {
            let text = result.repaired.pool().resolve(*v);
            assert!(result.repaired_ontology.contains_value(text));
            assert!(result
                .repaired_ontology
                .concept(*s)
                .unwrap()
                .has_synonym(text));
            assert!(!onto.concept(*s).unwrap().has_synonym(text), "new in S′");
        }
    }

    #[test]
    fn inheritance_cleaning_accepts_isa_variation() {
        // Table 1 satisfies [SYMP, DIAG] →inh(θ=1) MED (tylenol is-a
        // acetaminophen is-a analgesic), so inheritance cleaning is a
        // no-op where synonym cleaning would rewrite the nausea class.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let schema = rel.schema();
        let inh = Ofd::inheritance(
            schema.set(["SYMP", "DIAG"]).unwrap(),
            schema.attr("MED").unwrap(),
            1,
        );
        let result = ofd_clean(&rel, &onto, &[inh], &OfdCleanConfig::default());
        assert!(result.satisfied);
        assert_eq!(result.data_dist(), 0, "θ=1 already explains the data");
        assert_eq!(result.ontology_dist(), 0);

        let syn = Ofd::synonym(inh.lhs, inh.rhs);
        let syn_result = ofd_clean(&rel, &onto, &[syn], &OfdCleanConfig::default());
        assert!(syn_result.data_dist() + syn_result.ontology_dist() > 0);
    }

    #[test]
    fn inheritance_cleaning_repairs_genuine_violations() {
        // The Example 1.2 updates (ASA, adizem) violate even the
        // inheritance reading; cleaning must restore consistency under the
        // real inheritance semantics against the repaired ontology.
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let schema = rel.schema();
        let inh = Ofd::inheritance(
            schema.set(["SYMP", "DIAG"]).unwrap(),
            schema.attr("MED").unwrap(),
            1,
        );
        let v = Validator::new(&rel, &onto);
        assert!(!v.check(&inh).satisfied(), "dirty under inheritance too");
        let result = ofd_clean(&rel, &onto, &[inh], &OfdCleanConfig::default());
        assert!(result.satisfied);
        let v2 = Validator::new(&result.repaired, &result.repaired_ontology);
        assert!(v2.check(&inh).satisfied());
    }

    #[test]
    #[should_panic(expected = "uniform-kind")]
    fn mixed_kind_sigma_is_rejected() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let schema = rel.schema();
        let sigma = vec![
            Ofd::synonym_named(schema, &["CC"], "CTRY").unwrap(),
            Ofd::inheritance(schema.set(["SYMP"]).unwrap(), schema.attr("DIAG").unwrap(), 1),
        ];
        let _ = ofd_clean(&rel, &onto, &sigma, &OfdCleanConfig::default());
    }

    #[test]
    fn unlimited_guard_runs_to_completion() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let result = ofd_clean(&rel, &onto, &sigma, &OfdCleanConfig::default());
        assert!(result.complete);
        assert!(result.interrupt.is_none());
    }

    /// Tripping the guard at every possible checkpoint must always yield a
    /// sound partial result: the repaired instance differs from the input
    /// exactly by the listed data repairs, the repaired ontology is S plus
    /// exactly the listed adds, and `satisfied` is truthful.
    #[test]
    fn interrupted_cleaning_is_sound_at_every_checkpoint() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let mut saw_incomplete = false;
        for n in 1..80 {
            let config = OfdCleanConfig::default();
            config.guard.fail_after(n);
            let result = ofd_clean(&rel, &onto, &sigma, &config);
            if result.complete {
                assert!(result.interrupt.is_none());
                // Past the last checkpoint the run is indistinguishable
                // from an unguarded one; no later n can differ either.
                break;
            }
            saw_incomplete = true;
            assert!(result.interrupt.is_some());
            // The repaired instance is the input plus the listed repairs.
            assert_eq!(
                result.repaired.cell_distance(&rel).unwrap(),
                result.data_repairs.len(),
                "n = {n}"
            );
            // The repaired ontology is S plus the listed adds.
            assert_eq!(result.ontology_repair.dist(), result.ontology_adds.len());
            for (v, s) in &result.ontology_adds {
                let text = result.repaired.pool().resolve(*v);
                assert!(result.repaired_ontology.concept(*s).unwrap().has_synonym(text));
            }
            // `satisfied` reflects the actual final state.
            let v = Validator::new(&result.repaired, &result.repaired_ontology);
            assert_eq!(
                result.satisfied,
                sigma.iter().all(|o| v.check(o).satisfied()),
                "n = {n}"
            );
        }
        assert!(saw_incomplete, "fail point 1 must interrupt the run");
    }

    #[test]
    fn instrumented_clean_records_phase_spans_and_counters() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let config = OfdCleanConfig {
            obs: Obs::enabled(),
            ..OfdCleanConfig::default()
        };
        let result = ofd_clean(&rel, &onto, &sigma, &config);
        let snap = config.obs.snapshot();
        assert_eq!(
            snap.counter("clean.search_expansions").unwrap_or(0),
            result.plan.candidates.len() as u64
        );
        assert_eq!(
            snap.counter("clean.repairs_applied").unwrap_or(0),
            result.data_repairs.len() as u64
        );
        assert_eq!(
            snap.counter("clean.sense_reassignments").unwrap_or(0),
            result.reassignments as u64
        );
        for phase in [
            "ofdclean.run",
            "ofdclean.assign",
            "ofdclean.refine",
            "ofdclean.beam_search",
            "ofdclean.repair_data",
            "ofdclean.verify",
        ] {
            assert!(
                snap.spans.iter().any(|s| s.name == phase),
                "missing span {phase}"
            );
        }
        assert_eq!(snap.counter_sum("guard.interrupt."), 0);
    }

    #[test]
    fn interrupted_clean_labels_the_interrupt() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let config = OfdCleanConfig {
            obs: Obs::enabled(),
            ..OfdCleanConfig::default()
        };
        config.guard.fail_after(3);
        let result = ofd_clean(&rel, &onto, &sigma, &config);
        assert!(!result.complete);
        assert_eq!(
            config.obs.snapshot().counter("guard.interrupt.fail_point"),
            Some(1)
        );
    }

    #[test]
    fn pareto_frontier_exposed_to_caller() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let result = ofd_clean(&rel, &onto, &sigma, &OfdCleanConfig::default());
        assert!(!result.plan.pareto.is_empty());
        assert!(result.plan.frontier[0].k == 0);
    }

    fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ofd_clean_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Kill OFDClean at every reachable checkpoint, resume from disk, and
    /// demand the resumed run is indistinguishable from an uninterrupted
    /// one: same repaired instance (cell for cell), same ontology adds,
    /// same data repairs, same verdict.
    #[test]
    fn killed_and_resumed_clean_equals_uninterrupted_run() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let reference = ofd_clean(&rel, &onto, &sigma, &OfdCleanConfig::default());
        assert!(reference.complete);

        let mut resumed_at_least_once = false;
        for n in 1..80 {
            let dir = temp_ckpt_dir(&format!("kill{n}"));
            let killed = OfdCleanConfig {
                checkpoint: Some(CheckpointOptions::new(&dir)),
                ..OfdCleanConfig::default()
            };
            killed.guard.fail_after(n);
            let partial = ofd_clean(&rel, &onto, &sigma, &killed);
            if partial.complete {
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }

            let resume = OfdCleanConfig {
                checkpoint: Some(CheckpointOptions::new(&dir).resume(true)),
                ..OfdCleanConfig::default()
            };
            let result = ofd_clean(&rel, &onto, &sigma, &resume);
            assert!(result.complete, "n = {n}");
            resumed_at_least_once |= result.resumed_from_phase.is_some();
            assert_eq!(
                result.repaired.cell_distance(&reference.repaired).unwrap(),
                0,
                "n = {n}: repaired instance must match uninterrupted run"
            );
            assert_eq!(result.ontology_adds, reference.ontology_adds, "n = {n}");
            assert_eq!(result.data_repairs, reference.data_repairs, "n = {n}");
            assert_eq!(result.satisfied, reference.satisfied, "n = {n}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(resumed_at_least_once, "no kill point left a usable snapshot");
    }

    #[test]
    fn full_checkpointed_clean_writes_one_snapshot_per_phase() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let dir = temp_ckpt_dir("phases");
        let config = OfdCleanConfig {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            ..OfdCleanConfig::default()
        };
        let result = ofd_clean(&rel, &onto, &sigma, &config);
        assert!(result.complete);
        assert_eq!(result.snapshots_written, 3);
        assert_eq!(result.snapshot_errors, 0);
        assert_eq!(result.resumed_from_phase, None);

        // Resuming from the final snapshot replays everything and agrees.
        let resume = OfdCleanConfig {
            checkpoint: Some(CheckpointOptions::new(&dir).resume(true)),
            ..OfdCleanConfig::default()
        };
        let replay = ofd_clean(&rel, &onto, &sigma, &resume);
        assert_eq!(replay.resumed_from_phase, Some(3));
        assert_eq!(replay.snapshots_written, 0, "no phase re-ran");
        assert_eq!(replay.repaired.cell_distance(&result.repaired).unwrap(), 0);
        assert_eq!(replay.data_repairs, result.data_repairs);
        assert_eq!(replay.satisfied, result.satisfied);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot taken under different inputs or result-affecting config
    /// must be ignored, not spliced into the wrong run.
    #[test]
    fn clean_resume_with_mismatched_inputs_recomputes_fresh() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = sigma_for(&rel);
        let dir = temp_ckpt_dir("mismatch");
        let config = OfdCleanConfig {
            checkpoint: Some(CheckpointOptions::new(&dir)),
            ..OfdCleanConfig::default()
        };
        let _ = ofd_clean(&rel, &onto, &sigma, &config);

        // Same directory, different τ → different fingerprint.
        let other = OfdCleanConfig {
            checkpoint: Some(CheckpointOptions::new(&dir).resume(true)),
            tau: 0.5,
            obs: Obs::enabled(),
            ..OfdCleanConfig::default()
        };
        let result = ofd_clean(&rel, &onto, &sigma, &other);
        assert!(result.complete);
        assert_eq!(result.resumed_from_phase, None);
        assert_eq!(
            other.obs.snapshot().counter("clean.resume.rejected"),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
