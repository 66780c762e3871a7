//! Checkpoint/resume for the FastOFD lattice traversal.
//!
//! At each completed level boundary the driver serializes its whole
//! resumable state — verified Σ, the post-prune frontier with its C⁺
//! candidate sets, per-level stats and guard/obs accumulators — into a
//! snapshot (see [`ofd_core::snapshot`] for the envelope and crash
//! model). A resumed run restores Σ and the frontier, rebuilds the
//! frontier's stripped partitions directly from the relation
//! ([`StrippedPartition::of`] is semantically equal to the
//! product-computed partition, so every later decision is unchanged),
//! and continues at `completed_level + 1`.
//!
//! Snapshots embed a fingerprint of everything that determines the
//! result: relation contents, ontology, and the result-affecting options
//! (semantics, κ, level cap, optimization toggles, target consequents,
//! known FDs). A snapshot whose fingerprint does not match the current
//! inputs is ignored — resuming against different data must recompute,
//! never splice.

use ofd_core::snapshot::{hash_ontology, hash_relation};
use ofd_core::{AttrSet, Fingerprint, Obs, OfdKind, Relation};
use ofd_ontology::Ontology;
use serde_json::{json, Value};

use crate::fastofd::DiscoveredOfd;
use crate::options::DiscoveryOptions;
use crate::stats::LevelStats;

/// Snapshot stream name inside the checkpoint directory.
pub(crate) const STREAM: &str = "discovery";

pub use ofd_core::CheckpointOptions;

/// Hash of everything that determines the discovery result.
pub(crate) fn fingerprint(rel: &Relation, onto: &Ontology, opts: &DiscoveryOptions) -> u64 {
    let mut fp = Fingerprint::new();
    hash_relation(&mut fp, rel);
    hash_ontology(&mut fp, onto);
    match opts.kind {
        OfdKind::Synonym => {
            fp.update_u64(1);
        }
        OfdKind::Inheritance { theta } => {
            fp.update_u64(2).update_u64(theta as u64);
        }
    }
    fp.update_u64(opts.min_support.to_bits());
    fp.update_u64(opts.max_level.map_or(u64::MAX, |l| l as u64));
    fp.update_u64(opts.use_opt2 as u64);
    fp.update_u64(opts.use_opt3 as u64);
    fp.update_u64(opts.use_opt4 as u64);
    fp.update_u64(opts.target_rhs.map_or(u64::MAX, |t| t.bits()));
    fp.update_u64(opts.known_fds.len() as u64);
    for fd in &opts.known_fds {
        fp.update_u64(fd.lhs.bits()).update_u64(fd.rhs.index() as u64);
    }
    fp.finish()
}

/// Serializes the resumable state after `completed_level`. Floating-point
/// supports are stored as raw `f64` bits so resumed values are
/// *byte-identical* to the uninterrupted run's.
pub(crate) fn snapshot_body(
    fp: u64,
    completed_level: usize,
    sigma: &[DiscoveredOfd],
    frontier: &[(u64, u64)],
    levels: &[LevelStats],
    work_done: u64,
    obs: &Obs,
) -> Value {
    let sigma_json: Vec<Value> = sigma
        .iter()
        .map(|d| {
            json!({
                "lhs": d.ofd.lhs.bits(),
                "rhs": d.ofd.rhs.index() as u64,
                "support_bits": d.support.to_bits(),
                "level": d.level as u64,
            })
        })
        .collect();
    let frontier_json: Vec<Value> = frontier
        .iter()
        .map(|&(attrs, c_plus)| json!({"attrs": attrs, "c_plus": c_plus}))
        .collect();
    let levels_json: Vec<Value> = levels.iter().map(level_to_json).collect();
    let counters: Vec<Value> = obs
        .snapshot()
        .counters
        .into_iter()
        .map(|(name, v)| json!([name, v]))
        .collect();
    json!({
        "version": 1u64,
        "kind": "discovery",
        "fingerprint": fp,
        "completed_level": completed_level as u64,
        "sigma": sigma_json,
        "frontier": frontier_json,
        "levels": levels_json,
        "work_done": work_done,
        "counters": counters,
    })
}

fn level_to_json(ls: &LevelStats) -> Value {
    json!({
        "level": ls.level as u64,
        "nodes": ls.nodes as u64,
        "candidates": ls.candidates as u64,
        "verified": ls.verified as u64,
        "key_shortcuts": ls.key_shortcuts as u64,
        "fd_shortcuts": ls.fd_shortcuts as u64,
        "found": ls.found as u64,
        "pruned_nodes": ls.pruned_nodes as u64,
        "elapsed_us": ls.elapsed.as_micros() as u64,
    })
}

fn level_from_json(v: &Value) -> Option<LevelStats> {
    Some(LevelStats {
        level: v.get("level")?.as_u64()? as usize,
        nodes: v.get("nodes")?.as_u64()? as usize,
        candidates: v.get("candidates")?.as_u64()? as usize,
        verified: v.get("verified")?.as_u64()? as usize,
        key_shortcuts: v.get("key_shortcuts")?.as_u64()? as usize,
        fd_shortcuts: v.get("fd_shortcuts")?.as_u64()? as usize,
        found: v.get("found")?.as_u64()? as usize,
        pruned_nodes: v.get("pruned_nodes")?.as_u64()? as usize,
        elapsed: std::time::Duration::from_micros(v.get("elapsed_us")?.as_u64()?),
    })
}

/// State restored from a snapshot body.
pub(crate) struct ResumeState {
    pub completed_level: usize,
    pub sigma: Vec<DiscoveredOfd>,
    /// Post-prune frontier as `(attrs, c_plus)` bitsets.
    pub frontier: Vec<(AttrSet, AttrSet)>,
    pub levels: Vec<LevelStats>,
    /// Checkpoints the interrupted run had passed (informational).
    #[allow(dead_code)]
    pub work_done: u64,
    /// Obs counter accumulators at snapshot time, to be re-seeded.
    pub counters: Vec<(String, u64)>,
}

/// Validates and decodes a snapshot body against the current inputs'
/// fingerprint and the relation's `n_attrs` attributes; `None` means the
/// snapshot is unusable (wrong kind, version, fingerprint, malformed
/// fields, an attribute outside the schema or a level past it) and the
/// run starts fresh. The fingerprint binds a snapshot to its inputs but
/// does not vouch for the ids in its body (a peer may have shipped it),
/// so every id is checked before the traversal indexes by it.
pub(crate) fn restore(body: &Value, fp: u64, kind: OfdKind, n_attrs: usize) -> Option<ResumeState> {
    if body.get("version")?.as_u64()? != 1 || body.get("kind")?.as_str()? != "discovery" {
        return None;
    }
    if body.get("fingerprint")?.as_u64()? != fp {
        return None;
    }
    // Attribute ids below |R|, as bitsets and as one index.
    let attrs = |v: &Value| {
        let bits = v.as_u64()?;
        (bits.checked_shr(n_attrs as u32).unwrap_or(0) == 0).then(|| AttrSet::from_bits(bits))
    };
    let completed_level = body.get("completed_level")?.as_u64()? as usize;
    if completed_level > n_attrs {
        return None;
    }
    let mut sigma = Vec::new();
    for d in body.get("sigma")?.as_array()? {
        let rhs = d.get("rhs")?.as_u64()? as usize;
        if rhs >= n_attrs {
            return None;
        }
        sigma.push(DiscoveredOfd {
            ofd: ofd_core::Ofd {
                lhs: attrs(d.get("lhs")?)?,
                rhs: ofd_core::AttrId::from_index(rhs),
                kind,
            },
            support: f64::from_bits(d.get("support_bits")?.as_u64()?),
            level: d.get("level")?.as_u64()? as usize,
        });
    }
    let mut frontier = Vec::new();
    for n in body.get("frontier")?.as_array()? {
        frontier.push((attrs(n.get("attrs")?)?, attrs(n.get("c_plus")?)?));
    }
    let mut levels = Vec::new();
    for l in body.get("levels")?.as_array()? {
        levels.push(level_from_json(l)?);
    }
    let mut counters = Vec::new();
    for c in body.get("counters")?.as_array()? {
        let pair = c.as_array()?;
        counters.push((pair.first()?.as_str()?.to_string(), pair.get(1)?.as_u64()?));
    }
    Some(ResumeState {
        completed_level,
        sigma,
        frontier,
        levels,
        work_done: body.get("work_done")?.as_u64()?,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::table1;
    use ofd_ontology::samples;

    #[test]
    fn fingerprint_tracks_inputs_and_options() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let base = fingerprint(&rel, &onto, &DiscoveryOptions::default());
        assert_eq!(
            base,
            fingerprint(&rel, &onto, &DiscoveryOptions::default()),
            "deterministic"
        );
        // Thread count and guards do not affect the result → same print.
        assert_eq!(
            base,
            fingerprint(&rel, &onto, &DiscoveryOptions::default().threads(8))
        );
        // The partition cache is result-neutral, so its budget is excluded:
        // a snapshot written at one budget resumes at any other.
        assert_eq!(
            base,
            fingerprint(&rel, &onto, &DiscoveryOptions::default().partition_cache_mib(0))
        );
        // Evidence sampling is result-neutral too: a snapshot written by an
        // unsampled run resumes under any sampling depth and vice versa.
        assert_eq!(
            base,
            fingerprint(&rel, &onto, &DiscoveryOptions::default().sample_rounds(0))
        );
        assert_eq!(
            base,
            fingerprint(&rel, &onto, &DiscoveryOptions::default().sample_rounds(9))
        );
        // Result-affecting options change the print.
        assert_ne!(
            base,
            fingerprint(&rel, &onto, &DiscoveryOptions::new().min_support(0.8))
        );
        assert_ne!(
            base,
            fingerprint(&rel, &onto, &DiscoveryOptions::new().max_level(2))
        );
        assert_ne!(
            base,
            fingerprint(&rel, &onto, &DiscoveryOptions::new().no_optimizations())
        );
        // Different data changes the print.
        let other = ofd_core::table1_updated();
        assert_ne!(base, fingerprint(&other, &onto, &DiscoveryOptions::default()));
        // Different ontology changes the print.
        assert_ne!(
            base,
            fingerprint(&rel, &Ontology::empty(), &DiscoveryOptions::default())
        );
    }

    #[test]
    fn snapshot_body_round_trips_exactly() {
        let rel = table1();
        let schema = rel.schema();
        let sigma = vec![DiscoveredOfd {
            ofd: ofd_core::Ofd::synonym_named(schema, &["CC"], "CTRY").unwrap(),
            // A support value with no short decimal representation: only
            // bit-level serialization round-trips it.
            support: 0.1 + 0.2,
            level: 2,
        }];
        let frontier = vec![(0b011u64, 0b111u64)];
        let levels = vec![LevelStats {
            level: 1,
            nodes: 7,
            candidates: 5,
            found: 1,
            elapsed: std::time::Duration::from_micros(1234),
            ..LevelStats::default()
        }];
        let body = snapshot_body(42, 1, &sigma, &frontier, &levels, 99, &Obs::disabled());
        // Survive an actual serialize/parse cycle, as on disk.
        let text = serde_json::to_string(&body).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let rs = restore(&parsed, 42, OfdKind::Synonym, rel.n_attrs()).expect("restores");
        assert_eq!(rs.completed_level, 1);
        assert_eq!(rs.sigma.len(), 1);
        assert_eq!(rs.sigma[0].ofd, sigma[0].ofd);
        assert_eq!(
            rs.sigma[0].support.to_bits(),
            sigma[0].support.to_bits(),
            "support must be byte-identical"
        );
        assert_eq!(rs.frontier, vec![(AttrSet::from_bits(3), AttrSet::from_bits(7))]);
        assert_eq!(rs.levels.len(), 1);
        assert_eq!(rs.levels[0].nodes, 7);
        assert_eq!(rs.levels[0].elapsed, std::time::Duration::from_micros(1234));
        assert_eq!(rs.work_done, 99);
    }

    #[test]
    fn restore_rejects_wrong_fingerprint_and_kind() {
        let body = snapshot_body(42, 1, &[], &[], &[], 0, &Obs::disabled());
        assert!(restore(&body, 42, OfdKind::Synonym, 6).is_some());
        assert!(restore(&body, 43, OfdKind::Synonym, 6).is_none());
        let mut not_discovery = body.clone();
        if let Value::Object(fields) = &mut not_discovery {
            for (k, v) in fields.iter_mut() {
                if k.as_str() == "kind" {
                    *v = Value::String("clean".into());
                }
            }
        }
        assert!(restore(&not_discovery, 42, OfdKind::Synonym, 6).is_none());
    }

    #[test]
    fn restore_rejects_ids_outside_the_schema() {
        let rel = table1();
        let n = rel.n_attrs();
        let sigma = |lhs: &[&str], rhs: &str, level| DiscoveredOfd {
            ofd: ofd_core::Ofd::synonym_named(rel.schema(), lhs, rhs).unwrap(),
            support: 1.0,
            level,
        };
        let ok = vec![sigma(&["CC"], "CTRY", 1)];
        let all = (1u64 << n) - 1;
        let restores = |sigma: &[DiscoveredOfd], frontier: &[(u64, u64)], level: usize| {
            let body = snapshot_body(7, level, sigma, frontier, &[], 0, &Obs::disabled());
            restore(&body, 7, OfdKind::Synonym, n).is_some()
        };
        assert!(
            restores(&ok, &[(0b11, all)], 2),
            "a body inside the schema restores"
        );
        assert!(
            !restores(&ok, &[(1 << n, all)], 2),
            "a frontier attribute past |R|"
        );
        assert!(
            !restores(&ok, &[(0b11, all | 1 << 40)], 2),
            "a C+ attribute past |R|"
        );
        assert!(!restores(&ok, &[(0b11, all)], n + 1), "a level past |R|");
        let mut wide = ok.clone();
        wide[0].ofd.lhs = AttrSet::from_bits(1 << 63);
        assert!(!restores(&wide, &[], 2), "a Σ antecedent past |R|");
        for rhs in [n as u64, 64, 1 << 40] {
            let mut body = snapshot_body(7, 2, &ok, &[], &[], 0, &Obs::disabled());
            let Value::Object(fields) = &mut body else {
                unreachable!()
            };
            let (_, Value::Array(entries)) = fields.iter_mut().find(|(k, _)| k == "sigma").unwrap()
            else {
                unreachable!()
            };
            entries[0] =
                json!({"lhs": 1u64, "rhs": rhs, "support_bits": 1f64.to_bits(), "level": 1u64});
            assert!(
                restore(&body, 7, OfdKind::Synonym, n).is_none(),
                "Σ consequent {rhs}"
            );
        }
    }
}
