//! Data repair (§6.2), and the conflict graph that describes it.
//!
//! [`repair_data_guarded`] builds no graph. Each round it rebuilds the
//! classes of every OFD and, in each class that violates its OFD under the
//! class's assigned sense, rewrites the *outlier* tuples to one target
//! value: the most frequent value inside the sense, or the majority value
//! when no value is inside it or no sense is assigned; the outliers are the
//! tuples whose consequent lies outside the sense (every tuple off the
//! target, for a majority repair). Rounds repeat until no class violates,
//! a round changes nothing, or the round or repair budget runs out. The
//! outliers are exactly the vertices a minimum cover of the class's
//! conflict graph must contain, so no cover is computed.
//!
//! [`conflict_graph`], the 2-approximate [`vertex_cover`] and [`delta_p`]
//! build that graph and the paper's δ_P bound for ontology repair's
//! Table 6, the DOT export and the examples.

use std::collections::{HashMap, HashSet};

use ofd_core::{Ofd, Relation, SenseIndex, ValueId};
use ofd_ontology::Ontology;

use crate::classes::{build_classes, OfdClasses};
use crate::sense::{SenseAssignment, SenseView};

/// One conflicting tuple pair w.r.t. an OFD under the class's assigned
/// sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// First tuple (smaller id).
    pub t1: u32,
    /// Second tuple.
    pub t2: u32,
    /// Index of the violated OFD in Σ.
    pub ofd_idx: usize,
    /// Class index within that OFD.
    pub class_idx: usize,
}

/// One applied cell repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRepair {
    /// Row repaired.
    pub row: usize,
    /// Attribute repaired.
    pub attr: ofd_core::AttrId,
    /// Previous cell text.
    pub old: String,
    /// New cell text.
    pub new: String,
}

/// Builds the conflict graph: tuples `t_i, t_j` of the same class conflict
/// when their consequent values differ and are not both inside the class's
/// assigned sense (reproducing Figure 7 / Table 6 on the running example).
pub fn conflict_graph(
    rel: &Relation,
    classes: &[OfdClasses],
    assignment: &SenseAssignment,
    view: SenseView<'_>,
) -> Vec<Conflict> {
    let mut out = Vec::new();
    for oc in classes {
        let col = rel.column(oc.ofd.rhs);
        for (ci, class) in oc.classes.iter().enumerate() {
            let sense = assignment.get(oc.ofd_idx, ci);
            let compatible = |a: ValueId, b: ValueId| -> bool {
                a == b
                    || match sense {
                        Some(s) => view.in_sense(a, s) && view.in_sense(b, s),
                        None => false,
                    }
            };
            for (i, &t1) in class.tuples.iter().enumerate() {
                for &t2 in &class.tuples[i + 1..] {
                    let (v1, v2) = (col[t1 as usize], col[t2 as usize]);
                    if !compatible(v1, v2) {
                        out.push(Conflict {
                            t1,
                            t2,
                            ofd_idx: oc.ofd_idx,
                            class_idx: ci,
                        });
                    }
                }
            }
        }
    }
    out
}

/// A vertex cover of the conflict graph, at most twice the optimum: the
/// smaller of a maximal-matching cover (the classical 2-approximation) and
/// a greedy max-degree cover (which reproduces Table 6's single-vertex
/// covers on stars).
pub fn vertex_cover(conflicts: &[Conflict]) -> Vec<u32> {
    if conflicts.is_empty() {
        return Vec::new();
    }
    // Maximal matching cover.
    let mut matched: HashSet<u32> = HashSet::new();
    for c in conflicts {
        if !matched.contains(&c.t1) && !matched.contains(&c.t2) {
            matched.insert(c.t1);
            matched.insert(c.t2);
        }
    }

    // Greedy max-degree cover.
    let mut degree: HashMap<u32, usize> = HashMap::new();
    for c in conflicts {
        *degree.entry(c.t1).or_insert(0) += 1;
        *degree.entry(c.t2).or_insert(0) += 1;
    }
    let mut uncovered: Vec<&Conflict> = conflicts.iter().collect();
    let mut greedy: HashSet<u32> = HashSet::new();
    while !uncovered.is_empty() {
        let (&best, _) = degree
            .iter()
            .max_by_key(|&(t, d)| (*d, std::cmp::Reverse(*t)))
            .expect("non-empty degree map");
        greedy.insert(best);
        uncovered.retain(|c| {
            let covered = c.t1 == best || c.t2 == best;
            if covered {
                *degree.get_mut(&c.t1).expect("endpoint tracked") -= 1;
                *degree.get_mut(&c.t2).expect("endpoint tracked") -= 1;
            }
            !covered
        });
        degree.remove(&best);
    }

    let mut cover: Vec<u32> = if greedy.len() <= matched.len() {
        greedy.into_iter().collect()
    } else {
        matched.into_iter().collect()
    };
    cover.sort_unstable();
    cover
}

/// `δ_P`: the paper's upper bound on the data repairs needed —
/// `α × |C_2opt|` with `α = min{|Z|, |Σ|}` (§6.2).
pub fn delta_p(conflicts: &[Conflict], sigma: &[Ofd]) -> usize {
    let distinct_consequents: HashSet<_> = sigma.iter().map(|o| o.rhs).collect();
    let alpha = distinct_consequents.len().min(sigma.len());
    alpha * vertex_cover(conflicts).len()
}

/// Repairs the relation until no conflicts remain (or `max_rounds` /
/// `max_repairs` is hit). Each round rewrites the *outlier* tuples of every
/// violating class — the tuples whose consequent lies outside the class's
/// assigned sense (resp. differs from the majority when no sense is
/// assigned). These are exactly the vertices a minimum cover of the class's
/// conflict graph must contain (every edge has an outlier endpoint), and
/// all of them must change for the class to satisfy the OFD. Repairing for
/// one OFD can disturb another that shares the consequent, so the loop
/// regenerates the conflict graph between rounds.
#[allow(clippy::too_many_arguments)]
pub fn repair_data(
    rel: &mut Relation,
    onto: &Ontology,
    sigma: &[Ofd],
    assignment: &SenseAssignment,
    base_index: &mut SenseIndex,
    overlay: &HashSet<(ValueId, ofd_ontology::SenseId)>,
    max_repairs: usize,
    max_rounds: usize,
) -> (Vec<CellRepair>, bool) {
    repair_data_guarded(
        rel,
        onto,
        sigma,
        assignment,
        base_index,
        overlay,
        max_repairs,
        max_rounds,
        &ofd_core::ExecGuard::unlimited(),
    )
}

/// [`repair_data`] with an execution guard, probed once per round and once
/// per violating class.
///
/// Every repair already applied when the guard trips is individually sound
/// — it rewrote an outlier cell to its class's repair target — so an
/// interrupted run leaves the relation partially repaired, never corrupted;
/// the `bool` is `false` because the remaining violations were not resolved.
#[allow(clippy::too_many_arguments)]
pub fn repair_data_guarded(
    rel: &mut Relation,
    onto: &Ontology,
    sigma: &[Ofd],
    assignment: &SenseAssignment,
    base_index: &mut SenseIndex,
    overlay: &HashSet<(ValueId, ofd_ontology::SenseId)>,
    max_repairs: usize,
    max_rounds: usize,
    guard: &ofd_core::ExecGuard,
) -> (Vec<CellRepair>, bool) {
    let mut repairs: Vec<CellRepair> = Vec::new();
    for _round in 0..max_rounds {
        if guard.check().is_err() {
            return (repairs, false);
        }
        let classes = build_classes(rel, sigma);
        let view = SenseView {
            base: base_index,
            overlay,
        };
        let mut any_violation = false;
        let mut progressed = false;
        for oc in &classes {
            for (ci, class) in oc.classes.iter().enumerate() {
                if guard.check().is_err() {
                    return (repairs, false);
                }
                let sense = assignment.get(oc.ofd_idx, ci);
                let Some(plan) = class_repair_plan(class, sense, view) else {
                    continue;
                };
                any_violation = true;
                let RepairTarget::Value(target_value) = plan;
                let target = rel.pool().resolve(target_value).to_owned();
                for &t in &class.tuples {
                    let v = rel.value(t as usize, oc.ofd.rhs);
                    let is_outlier = match sense {
                        Some(s) if view.in_sense(target_value, s) => {
                            !view.in_sense(v, s)
                        }
                        // Majority-style repair: everything except the
                        // target value moves.
                        _ => v != target_value,
                    };
                    if !is_outlier {
                        continue;
                    }
                    if repairs.len() >= max_repairs {
                        return (repairs, false);
                    }
                    let old = rel.text(t as usize, oc.ofd.rhs).to_owned();
                    if old == target {
                        continue;
                    }
                    rel.set(t as usize, oc.ofd.rhs, &target)
                        .expect("repair in bounds");
                    progressed = true;
                    repairs.push(CellRepair {
                        row: t as usize,
                        attr: oc.ofd.rhs,
                        old,
                        new: target.clone(),
                    });
                }
            }
        }
        base_index.extend_synonym(rel, onto);
        if !any_violation {
            return (repairs, true);
        }
        if !progressed {
            break;
        }
    }
    // Out of rounds: report whether we ended clean.
    let classes = build_classes(rel, sigma);
    let view = SenseView {
        base: base_index,
        overlay,
    };
    let clean = classes.iter().all(|oc| {
        oc.classes.iter().enumerate().all(|(ci, class)| {
            class_repair_plan(class, assignment.get(oc.ofd_idx, ci), view).is_none()
        })
    });
    (repairs, clean)
}

/// What a violating class should be rewritten toward: an existing class
/// value — the most frequent in-sense value, or the majority value for
/// majority-style repairs (§6.2's candidate-set rule restricted to
/// dom(A), which always suffices since violating classes have ≥2 values).
enum RepairTarget {
    /// The repair value.
    Value(ValueId),
}

/// Returns `None` when the class satisfies its OFD under the assigned
/// sense; otherwise the repair target (§6.2's candidate-set rule).
fn class_repair_plan(
    class: &crate::classes::ClassData,
    sense: Option<ofd_ontology::SenseId>,
    view: SenseView<'_>,
) -> Option<RepairTarget> {
    if class.value_counts.len() <= 1 {
        return None; // single distinct value: satisfied
    }
    match sense {
        Some(s) => {
            let in_sense: Vec<&(ValueId, u32)> = class
                .value_counts
                .iter()
                .filter(|&&(v, _)| view.in_sense(v, s))
                .collect();
            let total: u32 = class.value_counts.iter().map(|&(_, c)| c).sum();
            let covered: u32 = in_sense.iter().map(|&&(_, c)| c).sum();
            if covered == total {
                return None; // every value inside the sense: satisfied
            }
            match in_sense.first() {
                // Most frequent in-sense value (value_counts are sorted).
                Some(&&(v, _)) => Some(RepairTarget::Value(v)),
                // Nothing in the sense: majority repair.
                None => Some(RepairTarget::Value(class.value_counts[0].0)),
            }
        }
        None => Some(RepairTarget::Value(class.value_counts[0].0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sense::assign_all;
    use ofd_core::table1_updated;
    use ofd_ontology::samples;

    fn paper_setup() -> (
        Relation,
        Ontology,
        Vec<Ofd>,
        SenseIndex,
    ) {
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let sigma = vec![
            Ofd::synonym_named(rel.schema(), &["CC"], "CTRY").unwrap(),
            Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap(),
        ];
        let index = SenseIndex::synonym(&rel, &onto);
        (rel, onto, sigma, index)
    }

    #[test]
    fn reproduces_figure7_conflict_graph() {
        // Table 6, first row: under the FDA sense, the headache class
        // {t8:cartia, t9:ASA, t10:tiazac, t11:adizem} has exactly the edges
        // (t8,t9), (t8,t11), (t9,t10), (t9,t11), (t10,t11).
        let (rel, onto, sigma, index) = paper_setup();
        let classes = build_classes(&rel, &sigma);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let mut assignment = SenseAssignment::empty(&classes);
        // Force the FDA diltiazem sense on the headache class (index 2).
        let dilt = onto.names("tiazac")[0];
        assignment.set(1, 2, Some(dilt));
        let conflicts: Vec<(u32, u32)> = conflict_graph(&rel, &classes, &assignment, view)
            .into_iter()
            .filter(|c| c.ofd_idx == 1 && c.class_idx == 2)
            .map(|c| (c.t1, c.t2))
            .collect();
        // Tuples t8..t11 are rows 7..10.
        assert_eq!(
            conflicts,
            vec![(7, 8), (7, 10), (8, 9), (8, 10), (9, 10)],
            "paper's five conflict edges"
        );
    }

    #[test]
    fn table6_asa_repair_leaves_a_star_covered_by_t11() {
        // Adding ASA under FDA leaves edges (t8,t11), (t9,t11), (t10,t11);
        // the cover is the single vertex t11 and δ_P = 2.
        let (rel, onto, sigma, index) = paper_setup();
        let classes = build_classes(&rel, &sigma);
        let dilt = onto.names("tiazac")[0];
        let asa = rel.pool().get("ASA").unwrap();
        let mut overlay = HashSet::new();
        overlay.insert((asa, dilt));
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let mut assignment = SenseAssignment::empty(&classes);
        assignment.set(1, 2, Some(dilt));
        let conflicts: Vec<Conflict> = conflict_graph(&rel, &classes, &assignment, view)
            .into_iter()
            .filter(|c| c.ofd_idx == 1 && c.class_idx == 2)
            .collect();
        let pairs: Vec<(u32, u32)> = conflicts.iter().map(|c| (c.t1, c.t2)).collect();
        assert_eq!(pairs, vec![(7, 10), (8, 10), (9, 10)]);
        let cover = vertex_cover(&conflicts);
        assert_eq!(cover, vec![10], "the star center t11");
        assert_eq!(delta_p(&conflicts, &sigma), 2, "α=2 × |cover|=1");
    }

    #[test]
    fn vertex_cover_is_a_cover_and_small() {
        let conflicts = vec![
            Conflict { t1: 0, t2: 1, ofd_idx: 0, class_idx: 0 },
            Conflict { t1: 1, t2: 2, ofd_idx: 0, class_idx: 0 },
            Conflict { t1: 2, t2: 3, ofd_idx: 0, class_idx: 0 },
        ];
        let cover = vertex_cover(&conflicts);
        for c in &conflicts {
            assert!(cover.contains(&c.t1) || cover.contains(&c.t2));
        }
        // Optimum is 2 ({1, 2}); 2-approximation allows at most 4.
        assert!(cover.len() <= 4);
        assert!(cover.len() >= 2);
    }

    #[test]
    fn repair_data_fixes_the_paper_example() {
        let (mut rel, onto, sigma, mut index) = paper_setup();
        let classes = build_classes(&rel, &sigma);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let (repairs, ok) = repair_data(
            &mut rel,
            &onto,
            &sigma,
            &assignment,
            &mut index,
            &overlay,
            usize::MAX,
            10,
        );
        assert!(ok, "repair must converge");
        assert!(!repairs.is_empty());
        // All OFDs satisfied afterwards.
        let v = ofd_core::Validator::new(&rel, &onto);
        for ofd in &sigma {
            assert!(v.check(ofd).satisfied(), "{}", ofd.display(rel.schema()));
        }
    }

    #[test]
    fn repair_budget_is_respected() {
        let (mut rel, onto, sigma, mut index) = paper_setup();
        let classes = build_classes(&rel, &sigma);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let (repairs, ok) = repair_data(
            &mut rel,
            &onto,
            &sigma,
            &assignment,
            &mut index,
            &overlay,
            1,
            10,
        );
        assert!(repairs.len() <= 1);
        assert!(!ok, "budget of one repair cannot clean the example");
    }

    mod cover_properties {
        use super::*;
        use proptest::prelude::*;

        /// Minimum vertex cover by exhaustive search (≤ 10 vertices).
        fn optimal_cover_size(conflicts: &[Conflict]) -> usize {
            let mut vertices: Vec<u32> = conflicts
                .iter()
                .flat_map(|c| [c.t1, c.t2])
                .collect();
            vertices.sort_unstable();
            vertices.dedup();
            let n = vertices.len();
            assert!(n <= 12, "exhaustive cover only for tiny graphs");
            (0u32..(1 << n))
                .filter(|mask| {
                    conflicts.iter().all(|c| {
                        let i = vertices.binary_search(&c.t1).expect("tracked") as u32;
                        let j = vertices.binary_search(&c.t2).expect("tracked") as u32;
                        mask & (1 << i) != 0 || mask & (1 << j) != 0
                    })
                })
                .map(|mask| mask.count_ones() as usize)
                .min()
                .unwrap_or(0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The cover is valid and at most twice the optimum.
            #[test]
            fn cover_is_valid_and_2_approximate(
                edges in prop::collection::vec((0u32..8, 0u32..8), 0..14),
            ) {
                let conflicts: Vec<Conflict> = edges
                    .into_iter()
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| Conflict {
                        t1: a.min(b),
                        t2: a.max(b),
                        ofd_idx: 0,
                        class_idx: 0,
                    })
                    .collect();
                let cover = vertex_cover(&conflicts);
                for c in &conflicts {
                    prop_assert!(
                        cover.contains(&c.t1) || cover.contains(&c.t2),
                        "edge ({}, {}) uncovered",
                        c.t1,
                        c.t2
                    );
                }
                let opt = optimal_cover_size(&conflicts);
                prop_assert!(cover.len() <= 2 * opt || conflicts.is_empty());
            }
        }
    }

    #[test]
    fn empty_conflicts_mean_no_repairs() {
        let rel = ofd_core::table1();
        let onto = samples::combined_paper_ontology();
        let sigma = vec![Ofd::synonym_named(rel.schema(), &["CC"], "CTRY").unwrap()];
        let mut index = SenseIndex::synonym(&rel, &onto);
        let overlay = HashSet::new();
        let classes = build_classes(&rel, &sigma);
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let mut working = rel.clone();
        let (repairs, ok) = repair_data(
            &mut working,
            &onto,
            &sigma,
            &assignment,
            &mut index,
            &overlay,
            usize::MAX,
            5,
        );
        assert!(ok);
        assert!(repairs.is_empty());
        assert_eq!(working.cell_distance(&rel).unwrap(), 0);
    }
}
