//! Checkpoint/resume for the OFDClean pipeline.
//!
//! The orchestrator's phases — sense assignment + refinement, ontology
//! beam search, data repair — each end with a snapshot of the cumulative
//! state (stream `clean`, sequence = completed phase number). A resumed
//! run restores the newest valid snapshot and skips the phases it
//! covers; the final verification always re-runs against the actual
//! materialized state, so `satisfied` is never stale.
//!
//! Serialized state is ontology/relation-relative: senses go by index
//! (stable because the fingerprint pins the exact ontology) and values
//! go by their string, re-interned on load. Data repairs carry the full
//! `(row, attr, old, new)` record, so replaying them on the input
//! relation reproduces the repaired instance byte-for-byte.

use ofd_core::snapshot::{hash_ontology, hash_relation};
use ofd_core::{AttrId, Fingerprint, Obs, OfdKind, Relation, ValueId};
use ofd_ontology::{Ontology, OntologyRepair, SenseId};
use serde_json::{json, Value};

use crate::conflict::CellRepair;
use crate::ofdclean::OfdCleanConfig;
use crate::ontrepair::{OntologyRepairPlan, ParetoPoint};
use crate::sense::SenseAssignment;

pub use ofd_core::CheckpointOptions;

/// Snapshot stream name inside the checkpoint directory.
pub(crate) const STREAM: &str = "clean";

/// Hash of everything that determines the cleaning result: the instance,
/// the (possibly θ-expanded) ontology, Σ, and the result-affecting knobs.
pub(crate) fn fingerprint(
    rel: &Relation,
    onto: &Ontology,
    sigma: &[ofd_core::Ofd],
    config: &OfdCleanConfig,
) -> u64 {
    let mut fp = Fingerprint::new();
    hash_relation(&mut fp, rel);
    hash_ontology(&mut fp, onto);
    fp.update_u64(sigma.len() as u64);
    for ofd in sigma {
        fp.update_u64(ofd.lhs.bits());
        fp.update_u64(ofd.rhs.index() as u64);
        match ofd.kind {
            OfdKind::Synonym => {
                fp.update_u64(1);
            }
            OfdKind::Inheritance { theta } => {
                fp.update_u64(2).update_u64(theta as u64);
            }
        }
    }
    fp.update_u64(config.theta.to_bits());
    fp.update_u64(config.beam.map_or(u64::MAX, |b| b as u64));
    fp.update_u64(config.tau.to_bits());
    fp.update_u64(config.max_ontology_repairs.map_or(u64::MAX, |m| m as u64));
    fp.update_u64(config.max_rounds as u64);
    fp.update_u64(config.refinement_passes as u64);
    fp.finish()
}

fn adds_to_json(rel: &Relation, adds: &[(ValueId, SenseId)]) -> Value {
    Value::Array(
        adds.iter()
            .map(|&(v, s)| json!([rel.pool().resolve(v), s.index() as u64]))
            .collect(),
    )
}

/// A sense id below |S|, or `None`.
fn sense(onto: &Ontology, v: &Value) -> Option<SenseId> {
    let index = v.as_u64()?;
    (index < onto.len() as u64).then(|| SenseId::from_index(index as usize))
}

fn adds_from_json(rel: &Relation, onto: &Ontology, v: &Value) -> Option<Vec<(ValueId, SenseId)>> {
    let mut out = Vec::new();
    for pair in v.as_array()? {
        let pair = pair.as_array()?;
        let value = rel.pool().get(pair.first()?.as_str()?)?;
        out.push((value, sense(onto, pair.get(1)?)?));
    }
    Some(out)
}

fn point_to_json(rel: &Relation, p: &ParetoPoint) -> Value {
    json!({
        "k": p.k as u64,
        "delta_p": p.delta_p as u64,
        "cover": p.cover as u64,
        "adds": adds_to_json(rel, &p.adds),
    })
}

fn point_from_json(rel: &Relation, onto: &Ontology, v: &Value) -> Option<ParetoPoint> {
    Some(ParetoPoint {
        k: v.get("k")?.as_u64()? as usize,
        delta_p: v.get("delta_p")?.as_u64()? as usize,
        cover: v.get("cover")?.as_u64()? as usize,
        adds: adds_from_json(rel, onto, v.get("adds")?)?,
    })
}

/// Serializes the cumulative state after `phase` (1 = refine, 2 = beam
/// search, 3 = data repair).
#[allow(clippy::too_many_arguments)]
pub(crate) fn snapshot_body(
    fp: u64,
    phase: u64,
    rel: &Relation,
    assignment: &SenseAssignment,
    reassignments: usize,
    plan: Option<&OntologyRepairPlan>,
    repairs: Option<&[CellRepair]>,
    obs: &Obs,
) -> Value {
    let table: Vec<Value> = assignment
        .table()
        .iter()
        .map(|row| {
            Value::Array(
                row.iter()
                    .map(|s| match s {
                        Some(id) => Value::from(id.index() as u64),
                        None => Value::Null,
                    })
                    .collect(),
            )
        })
        .collect();
    let plan_json = match plan {
        Some(p) => json!({
            "candidates": adds_to_json(rel, &p.candidates),
            "beam": p.beam as u64,
            "frontier": Value::Array(p.frontier.iter().map(|pt| point_to_json(rel, pt)).collect()),
            "pareto": Value::Array(p.pareto.iter().map(|pt| point_to_json(rel, pt)).collect()),
        }),
        None => Value::Null,
    };
    let repairs_json = match repairs {
        Some(rs) => Value::Array(
            rs.iter()
                .map(|r| {
                    json!({
                        "row": r.row as u64,
                        "attr": r.attr.index() as u64,
                        "old": r.old.as_str(),
                        "new": r.new.as_str(),
                    })
                })
                .collect(),
        ),
        None => Value::Null,
    };
    let counters: Vec<Value> = obs
        .snapshot()
        .counters
        .into_iter()
        .map(|(name, v)| json!([name, v]))
        .collect();
    json!({
        "version": 1u64,
        "kind": "clean",
        "fingerprint": fp,
        "phase": phase,
        "assignment": table,
        "reassignments": reassignments as u64,
        "plan": plan_json,
        "repairs": repairs_json,
        "counters": counters,
    })
}

/// State restored from a clean snapshot.
pub(crate) struct CleanResume {
    /// Last completed phase (1..=3).
    pub phase: u64,
    pub assignment: SenseAssignment,
    pub reassignments: usize,
    /// Present when `phase >= 2`.
    pub plan: Option<OntologyRepairPlan>,
    /// Present when `phase >= 3`; replay on the input to reproduce `I′`.
    pub repairs: Option<Vec<CellRepair>>,
    /// Obs counter accumulators at snapshot time.
    pub counters: Vec<(String, u64)>,
}

/// Validates and decodes a clean snapshot body; `None` falls back to a
/// fresh run. The fingerprint binds a snapshot to its inputs but does not
/// vouch for the ids in its body (a peer may have shipped it), so every
/// sense id must lie below |S|, every repair cell inside `rel`, and a
/// phase ≥ 2 plan must have a non-empty `pareto` whose points' additions
/// are each ones `onto.with_repair` accepts.
pub(crate) fn restore(
    body: &Value,
    fp: u64,
    rel: &Relation,
    onto: &Ontology,
) -> Option<CleanResume> {
    if body.get("version")?.as_u64()? != 1 || body.get("kind")?.as_str()? != "clean" {
        return None;
    }
    if body.get("fingerprint")?.as_u64()? != fp {
        return None;
    }
    let phase = body.get("phase")?.as_u64()?;
    if !(1..=3).contains(&phase) {
        return None;
    }
    let mut table = Vec::new();
    for row in body.get("assignment")?.as_array()? {
        let mut senses = Vec::new();
        for cell in row.as_array()? {
            senses.push(match cell {
                Value::Null => None,
                other => Some(sense(onto, other)?),
            });
        }
        table.push(senses);
    }
    let plan = match body.get("plan")? {
        Value::Null => None,
        p => {
            let points = |key: &str| -> Option<Vec<ParetoPoint>> {
                let points = p.get(key)?.as_array()?.iter();
                points.map(|pt| point_from_json(rel, onto, pt)).collect()
            };
            let plan = OntologyRepairPlan {
                candidates: adds_from_json(rel, onto, p.get("candidates")?)?,
                beam: p.get("beam")?.as_u64()? as usize,
                frontier: points("frontier")?,
                pareto: points("pareto")?,
            };
            // `ofd_clean` applies the Pareto point `select` picks: there
            // must be one, and `with_repair` must accept each one's adds.
            let applicable = |point: &ParetoPoint| {
                let mut repair = OntologyRepair::new();
                for &(v, s) in &point.adds {
                    repair.add(s, rel.pool().resolve(v));
                }
                onto.with_repair(&repair).is_ok()
            };
            if plan.pareto.is_empty() || !plan.pareto.iter().all(applicable) {
                return None;
            }
            Some(plan)
        }
    };
    let repairs = match body.get("repairs")? {
        Value::Null => None,
        rs => {
            let mut out = Vec::new();
            for r in rs.as_array()? {
                let row = r.get("row")?.as_u64()? as usize;
                let attr_idx = r.get("attr")?.as_u64()? as usize;
                if row >= rel.n_rows() || attr_idx >= rel.n_attrs() {
                    return None;
                }
                out.push(CellRepair {
                    row,
                    attr: AttrId::from_index(attr_idx),
                    old: r.get("old")?.as_str()?.to_string(),
                    new: r.get("new")?.as_str()?.to_string(),
                });
            }
            Some(out)
        }
    };
    // Cross-field consistency: the phase implies which sections exist.
    if (phase >= 2) != plan.is_some() || (phase >= 3) != repairs.is_some() {
        return None;
    }
    let mut counters = Vec::new();
    for c in body.get("counters")?.as_array()? {
        let pair = c.as_array()?;
        counters.push((pair.first()?.as_str()?.to_string(), pair.get(1)?.as_u64()?));
    }
    Some(CleanResume {
        phase,
        assignment: SenseAssignment::from_table(table),
        reassignments: body.get("reassignments")?.as_u64()? as usize,
        plan,
        repairs,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::{table1_updated, Ofd};
    use ofd_ontology::samples;

    #[test]
    fn fingerprint_tracks_sigma_and_config() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = vec![Ofd::synonym_named(rel.schema(), &["CC"], "CTRY").unwrap()];
        let base = fingerprint(&rel, &onto, &sigma, &OfdCleanConfig::default());
        assert_eq!(
            base,
            fingerprint(&rel, &onto, &sigma, &OfdCleanConfig::default())
        );
        let other_sigma =
            vec![Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap()];
        assert_ne!(
            base,
            fingerprint(&rel, &onto, &other_sigma, &OfdCleanConfig::default())
        );
        let tau0 = OfdCleanConfig {
            tau: 0.0,
            ..OfdCleanConfig::default()
        };
        assert_ne!(base, fingerprint(&rel, &onto, &sigma, &tau0));
    }

    #[test]
    fn phase_bodies_round_trip() {
        let rel = table1_updated();
        let assignment = SenseAssignment::from_table(vec![
            vec![Some(SenseId::from_index(2)), None],
            vec![None],
        ]);
        let plan = OntologyRepairPlan {
            candidates: vec![(rel.pool().get("ASA").unwrap(), SenseId::from_index(1))],
            beam: 3,
            frontier: vec![ParetoPoint {
                k: 0,
                delta_p: 2,
                cover: 5,
                adds: vec![],
            }],
            pareto: vec![ParetoPoint {
                k: 1,
                delta_p: 0,
                cover: 7,
                adds: vec![(rel.pool().get("ASA").unwrap(), SenseId::from_index(1))],
            }],
        };
        let repairs = vec![CellRepair {
            row: 3,
            attr: AttrId::from_index(1),
            old: "USA".into(),
            new: "America".into(),
        }];
        let body = snapshot_body(
            9,
            3,
            &rel,
            &assignment,
            4,
            Some(&plan),
            Some(&repairs),
            &Obs::disabled(),
        );
        let text = serde_json::to_string(&body).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let onto = samples::combined_paper_ontology();
        let rs = restore(&parsed, 9, &rel, &onto).expect("restores");
        assert_eq!(rs.phase, 3);
        assert_eq!(rs.assignment, assignment);
        assert_eq!(rs.reassignments, 4);
        let got_plan = rs.plan.unwrap();
        assert_eq!(got_plan.candidates, plan.candidates);
        assert_eq!(got_plan.beam, 3);
        assert_eq!(got_plan.pareto[0].adds, plan.pareto[0].adds);
        assert_eq!(rs.repairs.unwrap(), repairs);
        // Wrong fingerprint is rejected.
        assert!(restore(&parsed, 10, &rel, &onto).is_none());
    }

    #[test]
    fn phase_and_sections_must_agree() {
        let rel = table1_updated();
        let assignment = SenseAssignment::from_table(vec![vec![None]]);
        // Claims phase 2 but has no plan section.
        let onto = samples::combined_paper_ontology();
        let body = snapshot_body(1, 2, &rel, &assignment, 0, None, None, &Obs::disabled());
        assert!(restore(&body, 1, &rel, &onto).is_none());
        let body1 = snapshot_body(1, 1, &rel, &assignment, 0, None, None, &Obs::disabled());
        assert!(restore(&body1, 1, &rel, &onto).is_some());
    }

    #[test]
    fn restore_rejects_ids_outside_the_ontology() {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let n = onto.len();
        let asa = rel.pool().get("ASA").unwrap();
        let fresh = SenseId::from_index(1);
        assert!(onto
            .with_repair(OntologyRepair::new().add(fresh, "ASA"))
            .is_ok());
        let held = onto
            .sense_ids()
            .find(|&s| !onto.synonyms(s).unwrap().is_empty())
            .unwrap();
        let held_value = rel.pool().get(&onto.synonyms(held).unwrap()[0]);
        let point = |adds: Vec<(ValueId, SenseId)>| ParetoPoint {
            k: adds.len(),
            delta_p: 0,
            cover: 0,
            adds,
        };
        let plan = |candidates, pareto: Vec<ParetoPoint>| OntologyRepairPlan {
            candidates,
            beam: 1,
            frontier: pareto.clone(),
            pareto,
        };
        let restores = |table: Vec<Vec<Option<SenseId>>>, plan: &OntologyRepairPlan| {
            let assignment = SenseAssignment::from_table(table);
            let body = snapshot_body(
                5,
                2,
                &rel,
                &assignment,
                0,
                Some(plan),
                None,
                &Obs::disabled(),
            );
            restore(&body, 5, &rel, &onto).is_some()
        };
        let good = plan(
            vec![(asa, fresh)],
            vec![point(vec![]), point(vec![(asa, fresh)])],
        );
        assert!(
            restores(vec![vec![Some(fresh)]], &good),
            "a body inside the ontology restores"
        );
        for bad in [n as u64, 1 << 20, 1 << 40] {
            let assignment = SenseAssignment::from_table(vec![vec![Some(fresh)]]);
            let mut body = snapshot_body(
                5,
                2,
                &rel,
                &assignment,
                0,
                Some(&good),
                None,
                &Obs::disabled(),
            );
            let Value::Object(fields) = &mut body else {
                unreachable!()
            };
            let (_, table) = fields.iter_mut().find(|(k, _)| k == "assignment").unwrap();
            *table = json!([[null, bad]]);
            assert!(
                restore(&body, 5, &rel, &onto).is_none(),
                "assignment sense {bad}"
            );
        }
        let unknown = SenseId::from_index(n);
        let bad_candidate = plan(vec![(asa, unknown)], vec![point(vec![])]);
        assert!(
            !restores(vec![], &bad_candidate),
            "a candidate naming an unknown sense"
        );
        let bad_point = plan(vec![], vec![point(vec![(asa, unknown)])]);
        assert!(
            !restores(vec![], &bad_point),
            "a Pareto add naming an unknown sense"
        );
        if let Some(v) = held_value {
            let held_add = plan(vec![], vec![point(vec![(v, held)])]);
            assert!(
                !restores(vec![], &held_add),
                "an add of a value the sense already holds"
            );
        }
        assert!(
            !restores(vec![], &plan(vec![], vec![])),
            "a phase-2 plan with no Pareto point"
        );
    }
}
