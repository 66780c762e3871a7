//! `discover-exact-10k` and `discover-approx-5k`: each op is `read_csv` +
//! `parse_ontology` + `FastOfd::run`.

use std::time::{Duration, Instant};

use ofd_core::{Obs, Relation, StrippedPartition};
use ofd_datagen::csv::read_csv;
use ofd_datagen::{clinical, PresetConfig};
use ofd_discovery::{Discovery, DiscoveryOptions, FastOfd};
use ofd_ontology::{parse_ontology, write_ontology};

use crate::report::Report;
use crate::stats::{median, summarize, Outcome, Rng};
use crate::{permuted_csv, Inputs};

/// One discovery workload's fixed shape.
pub struct Spec {
    pub name: &'static str,
    /// Metric-name prefix in the traced run.
    pub tag: &'static str,
    pub rows: usize,
    pub attrs: usize,
    pub kappa: f64,
    pub max_level: usize,
}

pub const EXACT: Spec = Spec {
    name: "discover-exact-10k",
    tag: "exact",
    rows: 10_000,
    attrs: 15,
    kappa: 1.0,
    max_level: 4,
};

pub const APPROX: Spec = Spec {
    name: "discover-approx-5k",
    tag: "approx",
    rows: 5_000,
    attrs: 10,
    kappa: 0.95,
    max_level: 4,
};

/// The spec of a discovery workload by its name.
pub fn spec(workload: &str) -> &'static Spec {
    [&EXACT, &APPROX]
        .into_iter()
        .find(|s| s.name == workload)
        .expect("a discovery workload")
}

/// Generator seed of the base instance. The run's `--seed` permutes its
/// rows (see NOTES.md: re-drawing the instance itself moves the cost of an
/// op by more than the bounds allow).
const BASE_SEED: u64 = 1;

impl Spec {
    fn options(&self) -> DiscoveryOptions {
        DiscoveryOptions::new()
            .min_support(self.kappa)
            .max_level(self.max_level)
            .threads(1)
    }
}

/// Σ as sorted `lhs->rhs|support bits|level` strings: what every op must
/// reproduce exactly.
fn signature(d: &Discovery, rel: &Relation) -> Vec<String> {
    let schema = rel.schema();
    let mut out: Vec<String> = d
        .ofds
        .iter()
        .map(|o| {
            let lhs: Vec<&str> = o.ofd.lhs.iter().map(|a| schema.name(a)).collect();
            format!(
                "{}->{}|{:016x}|{}",
                lhs.join(","),
                schema.name(o.ofd.rhs),
                o.support.to_bits(),
                o.level
            )
        })
        .collect();
    out.sort();
    out
}

pub struct Prepared {
    inputs: Inputs,
    reference: Vec<String>,
}

/// Generates the permuted instance and the reference Σ (sampler off).
pub fn setup(spec: &Spec, seed: u64) -> Prepared {
    let ds = clinical(&PresetConfig {
        n_rows: spec.rows,
        n_attrs: spec.attrs,
        seed: BASE_SEED,
        ..PresetConfig::default()
    });
    let perm = Rng::new(seed).permutation(ds.relation.n_rows());
    let inputs = Inputs {
        csv: permuted_csv(&ds.relation, &perm),
        ontology: write_ontology(&ds.ontology),
    };
    let rel = read_csv(&inputs.csv).expect("generated csv parses");
    let onto = parse_ontology(&inputs.ontology).expect("generated ontology parses");
    let reference = FastOfd::new(&rel, &onto)
        .options(spec.options().sample_rounds(0))
        .run();
    assert!(reference.complete, "reference discovery is unguarded");
    Prepared {
        reference: signature(&reference, &rel),
        inputs,
    }
}

/// One timed op: ingest and discover, then check Σ.
pub fn op(spec: &Spec, prep: &Prepared) -> Outcome {
    let rel = match read_csv(&prep.inputs.csv) {
        Ok(r) => r,
        Err(e) => return Outcome::Error(format!("csv: {e}")),
    };
    let onto = match parse_ontology(&prep.inputs.ontology) {
        Ok(o) => o,
        Err(e) => return Outcome::Error(format!("ontology: {e}")),
    };
    let out = FastOfd::new(&rel, &onto).options(spec.options()).run();
    check(&out, &rel, prep)
}

fn check(out: &Discovery, rel: &Relation, prep: &Prepared) -> Outcome {
    if !out.complete {
        return Outcome::Incomplete;
    }
    if signature(out, rel) != prep.reference {
        return Outcome::WrongOutput(format!(
            "sigma has {} OFDs, reference {}",
            out.ofds.len(),
            prep.reference.len()
        ));
    }
    Outcome::Ok
}

/// Per-op layer timings of one traced op.
#[derive(Default, Clone, Copy)]
struct Layers {
    csv_ms: f64,
    onto_ms: f64,
    run_ms: f64,
    prelevel_ms: f64,
    level_ms: [f64; 3],
    total_ms: f64,
}

/// The traced pass: alternates untraced ops with traced ones (each layer
/// timed from outside, discovery run with an enabled `Obs`), for `budget`.
pub fn traced(spec: &Spec, prep: &Prepared, budget: Duration, report: &mut Report) {
    let tag = spec.tag;
    let mut plain = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let mut last: Option<(Discovery, Obs)> = None;
    let start = Instant::now();
    while start.elapsed() < budget || layers.len() < 3 {
        let t = Instant::now();
        let outcome = op(spec, prep);
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        report.tally.record(&outcome);

        let t = Instant::now();
        let rel = read_csv(&prep.inputs.csv).expect("generated csv parses");
        let csv_ms = ms_since(t);
        let t1 = Instant::now();
        let onto = parse_ontology(&prep.inputs.ontology).expect("generated ontology parses");
        let onto_ms = ms_since(t1);
        let obs = Obs::enabled();
        let t2 = Instant::now();
        let out = FastOfd::new(&rel, &onto)
            .options(spec.options().obs(obs.clone()))
            .run();
        let run_ms = ms_since(t2);
        let total_ms = ms_since(t);
        // Parity: the traced op must compute the same Σ as the timed one.
        report.tally.record(&check(&out, &rel, prep));
        let level = |l: usize| {
            out.stats
                .levels
                .iter()
                .find(|s| s.level == l)
                .map_or(0.0, |s| s.elapsed.as_secs_f64() * 1e3)
        };
        let levels_ms: f64 = out
            .stats
            .levels
            .iter()
            .map(|s| s.elapsed.as_secs_f64() * 1e3)
            .sum();
        layers.push(Layers {
            csv_ms,
            onto_ms,
            run_ms,
            prelevel_ms: run_ms - levels_ms,
            level_ms: [level(2), level(3), level(4)],
            total_ms,
        });
        last = Some((out, obs));
    }
    let col = |f: fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    report.metric(format!("{tag}.ingest.csv_ms"), col(|l| l.csv_ms), "ms");
    report.metric(
        format!("{tag}.ingest.ontology_ms"),
        col(|l| l.onto_ms),
        "ms",
    );
    report.metric(format!("{tag}.discovery.run_ms"), col(|l| l.run_ms), "ms");
    report.metric(
        format!("{tag}.discovery.prelevel_ms"),
        col(|l| l.prelevel_ms),
        "ms",
    );
    for (i, name) in ["level2_ms", "level3_ms", "level4_ms"].iter().enumerate() {
        let v = median(&layers.iter().map(|l| l.level_ms[i]).collect::<Vec<_>>());
        report.metric(format!("{tag}.discovery.{name}"), v, "ms");
    }

    let (out, obs) = last.expect("at least one traced op");
    let m = obs.snapshot();
    let verified = out.stats.total_verified() as f64;
    report.metric(
        format!("{tag}.discovery.candidates"),
        out.stats.total_candidates() as f64,
        "count",
    );
    report.metric(format!("{tag}.discovery.verified"), verified, "count");
    let pruned = m.counter("discovery.sample.candidates_pruned").unwrap_or(0) as f64;
    let products = m.counter("discovery.partition.products").unwrap_or(0) as f64;
    if spec.kappa >= 1.0 {
        // κ = 1: the sample oracle decides; partition counters stay ~0.
        report.metric(
            format!("{tag}.discovery.sample.pruned_frac"),
            pruned / verified.max(1.0),
            "ratio",
        );
    } else {
        // κ < 1: the oracle is off by design, the partition engine decides.
        let cache = out
            .stats
            .cache
            .expect("the partition cache is on by default");
        let lookups = (cache.hits + cache.misses).max(1) as f64;
        report.metric(format!("{tag}.partition.products"), products, "count");
        report.metric(
            format!("{tag}.partition.cache_hit_rate"),
            cache.hits as f64 / lookups,
            "ratio",
        );
        report.metric(
            format!("{tag}.partition.peak_mib"),
            cache.peak_resident_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        );
    }
    report.line(format!(
        "{tag}: sample.candidates_pruned={pruned} partition.products={products} verified={verified}"
    ));

    // Level-1 partitions, one per attribute, built outside the engine.
    let rel = read_csv(&prep.inputs.csv).expect("generated csv parses");
    let builds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for a in rel.schema().attrs() {
                std::hint::black_box(StrippedPartition::of_attr(&rel, a));
            }
            ms_since(t)
        })
        .collect();
    report.metric(format!("{tag}.partition.build_ms"), median(&builds), "ms");

    let plain_p50 = summarize(&plain).map_or_else(|| median(&plain), |s| s.p50);
    report.metric(
        format!("{tag}.trace.overhead_ratio"),
        col(|l| l.total_ms) / plain_p50,
        "ratio",
    );
    report.line(format!(
        "{tag}: traced ops={} untraced ops={} untraced p50={plain_p50:.3} ms",
        layers.len(),
        plain.len()
    ));
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
