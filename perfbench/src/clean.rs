//! `clean-2k`: each op is `read_csv` + `parse_ontology` + `ofd_clean`
//! (Table 5 defaults) on one of a fixed rotation of dirty clinical 2k
//! instances, each scored against its planted truth.

use std::collections::HashSet;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ofd_clean::{
    assign_all, beam_search_guarded, build_classes, conflict_graph, local_refinement_guarded,
    ofd_clean, repair_data_guarded, repair_quality, vertex_cover, CellRepair, CleanResult,
    OfdCleanConfig, SenseView,
};
use ofd_core::{AttrId, ExecGuard, Ofd, Relation, SenseIndex, Validator, ValueId};
use ofd_datagen::csv::read_csv;
use ofd_datagen::{clinical, PresetConfig};
use ofd_ontology::{parse_ontology, write_ontology, Ontology, OntologyRepair, SenseId};

use crate::discover::ms_since;
use crate::report::Report;
use crate::stats::{median, Outcome, Rng};
use crate::{permuted_csv, Inputs};

const ROWS: usize = 2_000;
const ERR: f64 = 0.03;
const INC: f64 = 0.04;

/// Generator seeds of the rotation, chosen among seeds 1–16 for costs that
/// barely move when the rows are permuted. Relative costs per op: 4 ≈ 0.8,
/// 1 ≈ 0.95, 9 = 1 (≈ 35–60 ms on a 2-core Xeon VM), 2 ≈ 1.4, 3 ≈ 5 (its
/// beam search explores the most candidates). Five equal shares put the
/// median inside seed 9's own samples and the tail (10 samples beyond,
/// ≥ p94 at 20 s or more) inside seed 3's, so neither sits on the boundary between
/// a fast group and a slow one.
pub const ROTATION: [u64; 5] = [4, 1, 9, 2, 3];

pub struct Instance {
    pub base_seed: u64,
    inputs: Inputs,
    sigma: Vec<Ofd>,
    /// The planted truth the repairs are scored against.
    truth: Relation,
    detectable: Vec<(usize, AttrId)>,
    full_ontology: Ontology,
    /// The first op's result, every later op on this instance must
    /// reproduce it exactly. Taken from the warm-up op rather than a run at
    /// set-up, which kept `setup_s` mostly OFDClean time.
    reference: OnceLock<Reference>,
}

struct Reference {
    repairs: Vec<CellRepair>,
    adds: Vec<String>,
    repaired: Relation,
    precision: f64,
    recall: f64,
}

pub struct Prepared {
    pub instances: Vec<Instance>,
    /// First rotation slot, drawn from the seed.
    phase: usize,
}

fn adds(result: &CleanResult) -> Vec<String> {
    result
        .ontology_adds
        .iter()
        .map(|&(v, s)| format!("{}@{s:?}", result.repaired.pool().resolve(v)))
        .collect()
}

/// Generates each instance and permutes its rows by `seed`.
pub fn setup(seed: u64) -> Prepared {
    let mut rng = Rng::new(seed);
    let instances = ROTATION
        .iter()
        .map(|&base_seed| {
            let mut ds = clinical(&PresetConfig {
                n_rows: ROWS,
                seed: base_seed,
                ..PresetConfig::default()
            });
            ds.degrade_ontology(INC, base_seed);
            ds.inject_errors(ERR, base_seed);
            let perm = rng.permutation(ROWS);
            let mut position = vec![0usize; ROWS];
            for (new, &old) in perm.iter().enumerate() {
                position[old] = new;
            }
            Instance {
                base_seed,
                inputs: Inputs {
                    csv: permuted_csv(&ds.relation, &perm),
                    ontology: write_ontology(&ds.ontology),
                },
                sigma: ds.ofds.clone(),
                truth: read_csv(&permuted_csv(&ds.clean, &perm)).expect("clean csv parses"),
                detectable: ds
                    .detectable_errors()
                    .iter()
                    .map(|e| (position[e.row], e.attr))
                    .collect(),
                full_ontology: ds.full_ontology,
                reference: OnceLock::new(),
            }
        })
        .collect();
    Prepared {
        instances,
        phase: rng.below(ROTATION.len()),
    }
}

impl Prepared {
    pub fn instance(&self, i: usize) -> &Instance {
        &self.instances[(self.phase + i) % self.instances.len()]
    }
}

fn ingest(inst: &Instance) -> Result<(Relation, Ontology), Outcome> {
    let rel = read_csv(&inst.inputs.csv).map_err(|e| Outcome::Error(format!("csv: {e}")))?;
    let onto = parse_ontology(&inst.inputs.ontology)
        .map_err(|e| Outcome::Error(format!("ontology: {e}")))?;
    Ok((rel, onto))
}

/// One timed op on an instance, checked against its reference; the first
/// op on an instance becomes the reference, scored against the truth.
pub fn op(inst: &Instance) -> Outcome {
    let (rel, onto) = match ingest(inst) {
        Ok(x) => x,
        Err(o) => return o,
    };
    let result = ofd_clean(&rel, &onto, &inst.sigma, &OfdCleanConfig::default());
    if !result.complete {
        return Outcome::Incomplete;
    }
    if !result.satisfied {
        return Outcome::WrongOutput(format!(
            "instance {}: repaired data violates Σ",
            inst.base_seed
        ));
    }
    let Some(reference) = inst.reference.get() else {
        let q = repair_quality(
            &rel,
            &result.repaired,
            &inst.truth,
            &inst.detectable,
            &inst.full_ontology,
        );
        let _ = inst.reference.set(Reference {
            adds: adds(&result),
            repairs: result.data_repairs,
            repaired: result.repaired,
            precision: q.precision,
            recall: q.recall,
        });
        return Outcome::Ok;
    };
    if result.data_repairs != reference.repairs || adds(&result) != reference.adds {
        return Outcome::WrongOutput(format!(
            "instance {}: {} repairs / {} adds, reference {} / {}",
            inst.base_seed,
            result.data_repairs.len(),
            result.ontology_adds.len(),
            reference.repairs.len(),
            reference.adds.len()
        ));
    }
    Outcome::Ok
}

impl Instance {
    /// Precision and recall of the reference repairs; `None` before the
    /// first successful op.
    fn quality(&self) -> Option<(f64, f64)> {
        self.reference.get().map(|r| (r.precision, r.recall))
    }
}

/// Mean repair F1 over the rotation (every op reproduces its instance's
/// reference repairs, so this is the F1 of every op); 0 until each
/// instance has its reference.
pub fn repair_f1(prep: &Prepared) -> f64 {
    let f1: f64 = prep
        .instances
        .iter()
        .map(|i| match i.quality() {
            Some((p, r)) if p + r > 0.0 => 2.0 * p * r / (p + r),
            _ => 0.0,
        })
        .sum();
    f1 / prep.instances.len() as f64
}

const PHASES: [&str; 9] = [
    "index_ms",
    "classes_ms",
    "assign_ms",
    "refine_ms",
    "conflict_graph_ms",
    "beam_search_ms",
    "repair_data_ms",
    "verify_ms",
    "ingest_ms",
];

/// Counts of one phase-by-phase op; they repeat exactly per instance.
#[derive(Default, Clone, Copy)]
struct Counts {
    classes: usize,
    search_expansions: usize,
    frontier_points: usize,
    conflicts: usize,
    repairs: usize,
    ontology_adds: usize,
}

/// `ofd_clean`'s phases called one by one, in its order, each timed from
/// outside; `conflict_graph` + `vertex_cover` run beside them (they are
/// not part of `ofd_clean`, which repairs class by class). Returns the
/// phase times, the counts and whether the repaired relation equals the
/// reference cell for cell.
fn phased(inst: &Instance) -> ([f64; 9], Counts, bool) {
    let cfg = OfdCleanConfig::default();
    let guard = ExecGuard::unlimited();
    let mut ms = [0.0; 9];
    let mut counts = Counts::default();
    let t = Instant::now();
    let (rel, onto) = ingest(inst).unwrap_or_else(|o| panic!("ingest: {o:?}"));
    ms[8] = ms_since(t);
    let sigma = &inst.sigma;

    let mut working = rel.clone();
    let t = Instant::now();
    let mut index = SenseIndex::synonym(&working, &onto);
    ms[0] = ms_since(t);
    let empty: HashSet<(ValueId, SenseId)> = HashSet::new();

    let t = Instant::now();
    let classes = build_classes(&working, sigma);
    ms[1] = ms_since(t);
    counts.classes = classes.iter().map(|c| c.classes.len()).sum();

    let view = SenseView {
        base: &index,
        overlay: &empty,
    };
    let t = Instant::now();
    let mut assignment = assign_all(&classes, view);
    ms[2] = ms_since(t);

    let t = Instant::now();
    for _ in 0..cfg.refinement_passes {
        let n = local_refinement_guarded(
            &working,
            &onto,
            &classes,
            &mut assignment,
            view,
            cfg.theta,
            &guard,
        );
        if n == 0 {
            break;
        }
    }
    ms[3] = ms_since(t);

    let t = Instant::now();
    let conflicts = conflict_graph(&working, &classes, &assignment, view);
    std::hint::black_box(vertex_cover(&conflicts));
    ms[4] = ms_since(t);
    counts.conflicts = conflicts.len();

    let t = Instant::now();
    let plan = beam_search_guarded(
        &working,
        sigma,
        &classes,
        &assignment,
        &index,
        cfg.beam,
        cfg.max_ontology_repairs,
        &guard,
    );
    ms[5] = ms_since(t);
    counts.search_expansions = plan.candidates.len();
    counts.frontier_points = plan.frontier.len();

    let tau_max = (cfg.tau * working.n_rows() as f64).floor() as usize;
    let chosen = plan.select(tau_max).clone();
    let mut ontology_repair = OntologyRepair::new();
    for &(v, s) in &chosen.adds {
        ontology_repair.add(s, working.pool().resolve(v));
    }
    let repaired_onto = onto
        .with_repair(&ontology_repair)
        .expect("candidates are absent from S by construction");
    let overlay: HashSet<(ValueId, SenseId)> = chosen.adds.iter().copied().collect();
    let t = Instant::now();
    let (repairs, _converged) = repair_data_guarded(
        &mut working,
        &repaired_onto,
        sigma,
        &assignment,
        &mut index,
        &overlay,
        tau_max,
        cfg.max_rounds,
        &guard,
    );
    ms[6] = ms_since(t);
    counts.repairs = repairs.len();
    counts.ontology_adds = chosen.adds.len();

    let t = Instant::now();
    let validator = Validator::new(&working, &repaired_onto);
    let satisfied = sigma.iter().all(|o| validator.check(o).satisfied());
    ms[7] = ms_since(t);

    let parity = inst.reference.get().is_some_and(|r| {
        satisfied && repairs == r.repairs && working.cell_distance(&r.repaired).ok() == Some(0)
    });
    (ms, counts, parity)
}

/// The traced pass: per rotation slot, an untraced op then a phase-by-phase
/// op, for `budget`. Phase times are medians per instance, summed over the
/// rotation (the per-rotation cost of each phase).
pub fn traced(prep: &Prepared, budget: Duration, report: &mut Report) {
    let k = prep.instances.len();
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut phases: Vec<Vec<[f64; 9]>> = vec![Vec::new(); k];
    let mut counts = vec![Counts::default(); k];
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget || i < 2 * k {
        let slot = i % k;
        let inst = &prep.instances[slot];
        let t = Instant::now();
        let outcome = op(inst);
        plain[slot].push(ms_since(t));
        report.tally.record(&outcome);
        let (ms, c, parity) = phased(inst);
        if !parity {
            report.tally.record(&Outcome::WrongOutput(format!(
                "phase-by-phase clean of instance {} differs from ofd_clean",
                inst.base_seed
            )));
        }
        phases[slot].push(ms);
        counts[slot] = c;
        i += 1;
    }
    let per_phase = |p: usize| -> f64 {
        phases
            .iter()
            .map(|runs| median(&runs.iter().map(|r| r[p]).collect::<Vec<_>>()))
            .sum()
    };
    for (p, name) in PHASES.iter().enumerate().take(8) {
        report.metric(format!("clean.{name}"), per_phase(p), "ms");
    }
    let sum = |f: fn(&Counts) -> usize| counts.iter().map(f).sum::<usize>() as f64;
    report.metric("clean.classes", sum(|c| c.classes), "count");
    report.metric(
        "clean.search_expansions",
        sum(|c| c.search_expansions),
        "count",
    );
    report.metric("clean.frontier_points", sum(|c| c.frontier_points), "count");
    report.metric("clean.conflicts", sum(|c| c.conflicts), "count");
    report.metric("clean.repairs", sum(|c| c.repairs), "count");
    report.metric("clean.ontology_adds", sum(|c| c.ontology_adds), "count");
    let n = k as f64;
    let quality = |f: fn((f64, f64)) -> f64| {
        prep.instances
            .iter()
            .map(|i| i.quality().map_or(0.0, f))
            .sum::<f64>()
            / n
    };
    report.metric("clean.precision", quality(|q| q.0), "ratio");
    report.metric("clean.recall", quality(|q| q.1), "ratio");
    report.metric("clean.repair_f1", repair_f1(prep), "ratio");

    let traced_total: f64 = (0..9).filter(|&p| p != 4).map(per_phase).sum();
    let plain_total: f64 = plain.iter().map(|v| median(v)).sum();
    report.metric(
        "clean.trace.overhead_ratio",
        traced_total / plain_total,
        "ratio",
    );
    for (slot, inst) in prep.instances.iter().enumerate() {
        report.line(format!(
            "clean instance {}: untraced p50={:.3} ms over {} ops, conflicts={} repairs={}",
            inst.base_seed,
            median(&plain[slot]),
            plain[slot].len(),
            counts[slot].conflicts,
            counts[slot].repairs
        ));
    }
}
