//! Multi-preset discovery perf baseline (`BENCH_discovery.json`, schema v2)
//! and the CI `perf-smoke` regression gate.
//!
//! ```text
//! perf_probe [--out PATH] [--only NAME] [--repeats K]      # write/refresh
//! perf_probe --check PATH [--only NAME] [--max-regress-pct P]
//! ```
//!
//! Recording with `--only` refreshes that one entry of an existing v2 file
//! in place and keeps every other entry and their order; `host` then
//! describes the latest recording's host.
//!
//! The baseline holds one entry per workload over a named preset from
//! [`ofd_datagen::named`] — `clinical-40k` (the long-standing
//! single-threaded gate), `clinical-40k-k95` (the same preset discovered
//! approximately, at κ = 0.95), `clinical-250k` (the multi-threaded smoke
//! scale), `kiva-670k` and `synth-1m`. Each entry pins every
//! result-affecting knob (`min_support`, absent meaning 1.0) plus the perf
//! knob `threads`, so the recorded wall time is comparable across commits,
//! and records `host.cores` so cross-host numbers are never mistaken for
//! same-host history. Entries recorded since `min_support` was added also
//! store the run's deterministic counts: `candidates`, `verified`, and the
//! partition cache's `products`, `cache_hits` and `cache_misses`; entries
//! recorded since exact discovery scans its antecedents also store
//! `abandoned` (scans that stopped before their partition was complete).
//! The counts are the run's own statistics, the same in every repeat.
//! Fields of older recordings (`sample_rounds`, `sample_pruned`,
//! `evidence_pairs`, `sequential_wall_ms`, `speedup`) are not read.
//!
//! `--check` re-runs every recorded entry (optionally filtered with
//! `--only`) under its recorded knobs and fails when |Σ| or any stored
//! count drifts — a perf gate must not pass on wrong answers, and a count
//! gate holds on any host — or when the wall time exceeds the
//! entry's absolute `budget_ms` (when present) or regresses more than
//! `--max-regress-pct` (default 25%) otherwise. An entry whose preset name
//! is unknown to this binary is SKIPPED with a note, not failed: baselines
//! may be newer than the checkout.

use std::path::Path;
use std::time::Instant;

use ofd_datagen::{named, Dataset, PresetConfig};
use ofd_discovery::{DiscoveryOptions, FastOfd};
use serde_json::{json, Value};

struct EntryConfig {
    name: &'static str,
    preset: &'static str,
    min_support: f64,
    max_level: usize,
    threads: usize,
    repeats: usize,
    /// Absolute wall budget for `--check` (ms); `None` gates on
    /// `--max-regress-pct` against the recorded wall instead.
    budget_ms: Option<u64>,
}

/// The recorded workload matrix. `clinical-40k` keeps the historical gate
/// shape (single-threaded, default engine) and takes the best of 10 runs:
/// its wall is a few tens of ms, so one run slowed by a busy host moves it
/// by more than the 25 % gate. `clinical-40k-k95` is approximate discovery
/// on the same preset, where partitions are built before they are checked;
/// its absolute budget makes its counts the real gate. The large entries
/// run exact discovery across four worker threads.
fn plan() -> Vec<EntryConfig> {
    vec![
        EntryConfig {
            name: "clinical-40k",
            preset: "clinical-40k",
            min_support: 1.0,
            max_level: 4,
            threads: 1,
            repeats: 10,
            budget_ms: None,
        },
        EntryConfig {
            name: "clinical-40k-k95",
            preset: "clinical-40k",
            min_support: 0.95,
            max_level: 4,
            threads: 1,
            repeats: 3,
            budget_ms: None, // derived from the measurement below
        },
        EntryConfig {
            name: "clinical-250k",
            preset: "clinical-250k",
            min_support: 1.0,
            max_level: 4,
            threads: 4,
            repeats: 2,
            budget_ms: None, // derived from the measurement below
        },
        EntryConfig {
            name: "kiva-670k",
            preset: "kiva-670k",
            min_support: 1.0,
            max_level: 4,
            threads: 4,
            repeats: 1,
            budget_ms: None,
        },
        EntryConfig {
            name: "synth-1m",
            preset: "synth-1m",
            min_support: 1.0,
            max_level: 4,
            threads: 4,
            repeats: 1,
            budget_ms: None,
        },
    ]
}

struct Measured {
    wall_ms: u64,
    ofds: usize,
    peak_partition_bytes: u64,
    cache_hit_rate: f64,
    counts: Counts,
}

/// The stored counts, by entry field name. They are deterministic for the
/// entry's knobs: the same on any host and at any thread count.
const COUNT_FIELDS: [&str; 6] = [
    "candidates",
    "verified",
    "products",
    "abandoned",
    "cache_hits",
    "cache_misses",
];

/// One entry's counts, in [`COUNT_FIELDS`] order.
type Counts = [u64; COUNT_FIELDS.len()];

struct Knobs {
    min_support: f64,
    max_level: usize,
    threads: usize,
    repeats: usize,
}

impl Knobs {
    fn options(&self) -> DiscoveryOptions {
        DiscoveryOptions::new()
            .min_support(self.min_support)
            .max_level(self.max_level)
            .threads(self.threads)
    }
}

/// Runs the workload `repeats` times and keeps the fastest wall time (the
/// standard noise-rejection choice for regression gates).
fn measure(ds: &Dataset, k: &Knobs) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..k.repeats.max(1) {
        let start = Instant::now();
        let result = FastOfd::new(&ds.clean, &ds.full_ontology)
            .options(k.options())
            .run();
        let wall_ms = start.elapsed().as_millis() as u64;
        assert!(result.complete, "pinned workload must run to completion");
        let cs = result.stats.cache.expect("cache on by default");
        let lookups = cs.hits + cs.misses;
        let m = Measured {
            wall_ms,
            ofds: result.len(),
            peak_partition_bytes: cs.peak_resident_bytes,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                cs.hits as f64 / lookups as f64
            },
            counts: [
                result.stats.total_candidates() as u64,
                result.stats.total_verified() as u64,
                cs.products,
                cs.abandoned,
                cs.hits,
                cs.misses,
            ],
        };
        if best.as_ref().is_none_or(|b| m.wall_ms < b.wall_ms) {
            best = Some(m);
        }
    }
    best.expect("at least one repeat")
}

fn generate(preset: &str) -> Option<(Dataset, PresetConfig)> {
    let (build, cfg) = named(preset)?;
    Some((build(&cfg), cfg))
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Records one baseline entry: the best wall of its repeats and its counts.
fn record_entry(e: &EntryConfig) -> Value {
    let (ds, cfg) =
        generate(e.preset).unwrap_or_else(|| panic!("unknown preset {:?}", e.preset));
    let knobs = Knobs {
        min_support: e.min_support,
        max_level: e.max_level,
        threads: e.threads,
        repeats: e.repeats,
    };
    let m = measure(&ds, &knobs);
    // Large entries get an absolute wall budget: 3x the recorded best,
    // floored generously so CI noise on shared runners cannot flake the
    // gate. The 40k entry keeps the tighter relative gate instead.
    let budget_ms = e
        .budget_ms
        .or_else(|| (e.name != "clinical-40k").then(|| (m.wall_ms * 3).max(10_000)));
    println!("{}: wall {} ms, |Σ| {}", e.name, m.wall_ms, m.ofds);
    let mut entry = json!({
        "name": e.name,
        "preset": e.preset,
        "min_support": e.min_support,
        "rows": cfg.n_rows,
        "seed": cfg.seed,
        "max_level": e.max_level,
        "threads": e.threads,
        "partition_cache_mib": ofd_discovery::DEFAULT_PARTITION_CACHE_MIB,
        "repeats": e.repeats,
        "wall_ms": m.wall_ms,
        "ofds": m.ofds,
        "peak_partition_bytes": m.peak_partition_bytes,
        "cache_hit_rate": m.cache_hit_rate,
        "budget_ms": budget_ms,
    });
    if let Value::Object(fields) = &mut entry {
        fields.extend(
            COUNT_FIELDS
                .iter()
                .zip(m.counts)
                .map(|(field, count)| (field.to_string(), Value::from(count))),
        );
    }
    entry
}

/// The first stored count of `entry` that differs from `measured`
/// (in [`COUNT_FIELDS`] order), as a failure reason. Counts an entry does
/// not store are not compared.
fn count_drift(name: &str, entry: &Value, measured: &Counts) -> Option<String> {
    COUNT_FIELDS.iter().zip(measured).find_map(|(field, &got)| {
        let stored = entry.get(field).and_then(Value::as_u64)?;
        (stored != got)
            .then(|| format!("{name}: {field} drifted from the baseline ({got} vs {stored})"))
    })
}

/// Re-runs one recorded entry and gates it. Returns `Err(reason)` on a
/// failed gate, `Ok(true)` when compared, `Ok(false)` when skipped.
fn check_entry(
    entry: &Value,
    repeats_override: Option<usize>,
    max_regress_pct: f64,
) -> Result<bool, String> {
    let name = entry
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or("<unnamed>");
    let preset = entry
        .get("preset")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{name}: entry has no preset field"))?;
    let Some((ds, _)) = generate(preset) else {
        println!(
            "perf-smoke: {name}: SKIPPED — preset {preset:?} unknown to this binary \
             (baseline newer than checkout?); no comparison was performed"
        );
        return Ok(false);
    };
    let field = |k: &str| {
        entry
            .get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{name}: entry field {k:?} missing"))
    };
    let min_support = entry
        .get("min_support")
        .and_then(Value::as_f64)
        .unwrap_or(1.0);
    DiscoveryOptions::new()
        .try_min_support(min_support)
        .map_err(|e| format!("{name}: entry field \"min_support\": {e}"))?;
    let knobs = Knobs {
        min_support,
        max_level: field("max_level")? as usize,
        threads: field("threads")? as usize,
        repeats: repeats_override.unwrap_or(field("repeats")? as usize),
    };
    let base_ms = field("wall_ms")?;
    let base_ofds = field("ofds")?;
    let budget_ms = entry.get("budget_ms").and_then(Value::as_u64);
    let m = measure(&ds, &knobs);
    let (limit_ms, gate) = match budget_ms {
        Some(b) => (b as f64, "budget"),
        None => (
            (base_ms as f64) * (1.0 + max_regress_pct / 100.0),
            "regress",
        ),
    };
    println!(
        "perf-smoke: {name}: wall {} ms vs baseline {} ms (κ {}, threads {}, {} limit {:.0} ms), \
         |Σ| {} vs {}, counts {:?}",
        m.wall_ms,
        base_ms,
        knobs.min_support,
        knobs.threads,
        gate,
        limit_ms,
        m.ofds,
        base_ofds,
        COUNT_FIELDS.iter().zip(m.counts).collect::<Vec<_>>()
    );
    if m.ofds as u64 != base_ofds {
        return Err(format!(
            "{name}: |Σ| drifted from the baseline — fix correctness before perf"
        ));
    }
    if let Some(reason) = count_drift(name, entry, &m.counts) {
        return Err(reason);
    }
    if (m.wall_ms as f64) > limit_ms {
        return Err(format!("{name}: wall time exceeds the {gate} limit"));
    }
    Ok(true)
}

/// The entries of `existing` (a v2 baseline, if any) with each `fresh`
/// entry replacing the one of the same name in place, or appended when its
/// name is new.
fn merge_entries(existing: Option<&Value>, fresh: Vec<Value>) -> Vec<Value> {
    let name = |e: &Value| e.get("name").and_then(Value::as_str).map(str::to_owned);
    let mut entries: Vec<Value> = existing
        .and_then(|b| b.get("entries"))
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    for e in fresh {
        match entries.iter_mut().find(|old| name(old) == name(&e)) {
            Some(slot) => *slot = e,
            None => entries.push(e),
        }
    }
    entries
}

fn main() {
    let mut out = "BENCH_discovery.json".to_owned();
    let mut only: Option<String> = None;
    let mut check: Option<String> = None;
    let mut repeats_override: Option<usize> = None;
    let mut max_regress_pct = 25.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| panic!("{what} expects a value"));
        match arg.as_str() {
            "--out" => out = next("--out"),
            "--only" => only = Some(next("--only")),
            "--check" => check = Some(next("--check")),
            "--repeats" => {
                repeats_override = Some(next("--repeats").parse().expect("--repeats K"));
            }
            "--max-regress-pct" => {
                max_regress_pct = next("--max-regress-pct").parse().expect("--max-regress-pct P");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let matches = |name: &str| only.as_deref().is_none_or(|o| o == name);

    if let Some(path) = check {
        // A missing baseline is an explicit SKIP, not a silent pass: the
        // caller sees exactly why no comparison ran and exit 0 keeps CI
        // green on fresh checkouts. A present-but-unreadable or malformed
        // baseline still fails loudly — that is corruption, not absence.
        if !Path::new(&path).exists() {
            println!(
                "perf-smoke: SKIPPED — no baseline at {path}; run `perf_probe --out {path}` \
                 on a quiet machine to record one (no comparison was performed)"
            );
            return;
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline: Value = serde_json::from_str(&text).expect("baseline parses as JSON");
        let Some(entries) = baseline.get("entries").and_then(Value::as_array) else {
            eprintln!(
                "FAIL: {path} is not a v2 multi-entry baseline; re-record it with \
                 `perf_probe --out {path}`"
            );
            std::process::exit(1);
        };
        let mut compared = 0usize;
        let mut failures: Vec<String> = Vec::new();
        for entry in entries {
            let name = entry.get("name").and_then(Value::as_str).unwrap_or("");
            if !matches(name) {
                continue;
            }
            match check_entry(entry, repeats_override, max_regress_pct) {
                Ok(true) => compared += 1,
                Ok(false) => {}
                Err(reason) => failures.push(reason),
            }
        }
        if compared == 0 && failures.is_empty() {
            eprintln!("FAIL: no baseline entry was compared (bad --only filter?)");
            std::process::exit(1);
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("OK ({compared} entries)");
        return;
    }

    let mut fresh: Vec<Value> = Vec::new();
    for mut e in plan() {
        if !matches(e.name) {
            continue;
        }
        if let Some(r) = repeats_override {
            e.repeats = r;
        }
        fresh.push(record_entry(&e));
    }
    assert!(!fresh.is_empty(), "no plan entry matches --only filter");
    // An existing baseline keeps its other entries; one that does not parse
    // is left alone rather than replaced by a partial file.
    let existing: Option<Value> = std::fs::read_to_string(&out).ok().map(|text| {
        serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{out} exists but is not JSON ({e}); move it away first"))
    });
    let report = json!({
        "bench": "discovery",
        "version": 2,
        "host": { "cores": host_cores() },
        "entries": Value::Array(merge_entries(existing.as_ref(), fresh)),
    });
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = Path::new(&out);
    ofd_core::atomic_write(path, json.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, wall_ms: u64) -> Value {
        json!({ "name": name, "wall_ms": wall_ms })
    }

    #[test]
    fn only_refreshes_its_entry_and_keeps_the_rest_in_order() {
        let baseline = json!({
            "bench": "discovery",
            "version": 2,
            "entries": Value::Array(vec![
                entry("clinical-40k", 442),
                entry("clinical-250k", 3041),
                entry("kiva-670k", 11264),
                entry("synth-1m", 78134),
            ]),
        });
        let merged = merge_entries(Some(&baseline), vec![entry("clinical-250k", 900)]);
        assert_eq!(
            merged,
            vec![
                entry("clinical-40k", 442),
                entry("clinical-250k", 900),
                entry("kiva-670k", 11264),
                entry("synth-1m", 78134),
            ]
        );
    }

    #[test]
    fn stored_counts_gate_and_absent_ones_are_skipped() {
        let counts = [5_565, 5_551, 9, 404, 17, 10];
        let recorded = json!({
            "name": "40k",
            "candidates": 5_565u64,
            "verified": 5_551u64,
            "products": 9u64,
            "abandoned": 404u64,
            "cache_hits": 17u64,
            "cache_misses": 10u64,
        });
        assert_eq!(count_drift("40k", &recorded, &counts), None);
        let mut drifted = counts;
        drifted[4] = 18;
        assert_eq!(
            count_drift("40k", &recorded, &drifted).as_deref(),
            Some("40k: cache_hits drifted from the baseline (18 vs 17)")
        );
        let mut drifted = counts;
        drifted[3] = 403;
        assert_eq!(
            count_drift("40k", &recorded, &drifted).as_deref(),
            Some("40k: abandoned drifted from the baseline (403 vs 404)")
        );
        // An entry recorded before scans were counted gates on the five
        // counts it has.
        let mut older = recorded.clone();
        if let Value::Object(fields) = &mut older {
            fields.retain(|(field, _)| field != "abandoned");
        }
        assert_eq!(older.get("cache_misses"), recorded.get("cache_misses"));
        assert_eq!(count_drift("40k", &older, &drifted), None);
        // An entry recorded before counts were stored gates on |Σ| alone.
        assert_eq!(count_drift("old", &entry("old", 98), &drifted), None);
    }

    #[test]
    fn new_names_append_and_a_missing_or_v1_file_starts_empty() {
        let baseline = json!({ "entries": Value::Array(vec![entry("clinical-40k", 442)]) });
        assert_eq!(
            merge_entries(Some(&baseline), vec![entry("new-preset", 5)]),
            vec![entry("clinical-40k", 442), entry("new-preset", 5)]
        );
        assert_eq!(
            merge_entries(None, vec![entry("a", 1)]),
            vec![entry("a", 1)]
        );
        let v1 = json!({ "wall_ms": 442 });
        assert_eq!(
            merge_entries(Some(&v1), vec![entry("a", 1)]),
            vec![entry("a", 1)]
        );
    }
}
