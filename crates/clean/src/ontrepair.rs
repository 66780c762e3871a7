//! Ontology repair via beam search over the candidate lattice
//! (Algorithm 7, §6.1).
//!
//! Candidates are `(value, sense)` pairs: data values absent from the
//! ontology, proposed for insertion under their class's assigned sense.
//! Level `k` of the lattice holds repairs of size `k`; each level keeps the
//! top-`b` nodes by the data-repair bound `δ_P`, with the secretary-rule
//! default `b = ⌊|Cand(S)| / e⌋`. The result is the Pareto frontier of
//! `(ontology repairs, data repairs)` plus the selected repair.

use std::collections::HashSet;

use ofd_core::{Ofd, Relation, SenseIndex, ValueId};
use ofd_ontology::SenseId;

use crate::classes::OfdClasses;
use crate::sense::SenseAssignment;

/// One point of the (dist(S,S'), dist(I,I')-bound) trade-off.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Number of ontology insertions `k = dist(S, S')`.
    pub k: usize,
    /// `δ_P` data-repair upper bound under this ontology repair
    /// (`α × |C_2opt|`, the paper's Table 6 column).
    pub delta_p: usize,
    /// Raw conflict-cover size `|C_2opt|` — the unscaled estimate of the
    /// data repairs still needed.
    pub cover: usize,
    /// The insertions themselves.
    pub adds: Vec<(ValueId, SenseId)>,
}

/// Output of the beam search.
#[derive(Debug, Clone)]
pub struct OntologyRepairPlan {
    /// All candidate `(value, sense)` insertions considered.
    pub candidates: Vec<(ValueId, SenseId)>,
    /// Beam width used.
    pub beam: usize,
    /// Best point found at each explored `k` (including `k = 0`).
    pub frontier: Vec<ParetoPoint>,
    /// The Pareto-minimal subset of `frontier`.
    pub pareto: Vec<ParetoPoint>,
}

impl OntologyRepairPlan {
    /// Selects the repair minimizing total modifications `k + |C_2opt|`
    /// (ties: fewer ontology insertions, so injected noise is fixed in the
    /// data rather than legitimized in the ontology), respecting a
    /// data-repair budget `tau_max` when any point satisfies it.
    pub fn select(&self, tau_max: usize) -> &ParetoPoint {
        let within: Vec<&ParetoPoint> = self
            .pareto
            .iter()
            .filter(|p| p.cover <= tau_max)
            .collect();
        let pool: Vec<&ParetoPoint> = if within.is_empty() {
            self.pareto.iter().collect()
        } else {
            within
        };
        pool.into_iter()
            .min_by_key(|p| (p.k + p.cover, p.k))
            .expect("frontier contains at least k = 0")
    }
}

/// The secretary-rule beam width `⌊w / e⌋`, clamped to `[1, 32]` — the
/// rule's optimality argument concerns *selection quality*, not runtime;
/// uncapped, a large candidate set would make each lattice level
/// `b × |Cand|` evaluations (the paper's Table 5 sweeps b only up to 5).
pub fn secretary_beam(w: usize) -> usize {
    (((w as f64) / std::f64::consts::E).floor() as usize).clamp(1, 32)
}

/// Collects `Cand(S)`: distinct consequent values of assigned classes that
/// the ontology does not know, paired with the class's sense.
pub fn candidates(
    classes: &[OfdClasses],
    assignment: &SenseAssignment,
    index: &SenseIndex,
) -> Vec<(ValueId, SenseId)> {
    let mut seen: HashSet<(ValueId, SenseId)> = HashSet::new();
    let mut out: Vec<(ValueId, SenseId)> = Vec::new();
    for oc in classes {
        for (ci, class) in oc.classes.iter().enumerate() {
            let Some(sense) = assignment.get(oc.ofd_idx, ci) else {
                continue;
            };
            for &(v, _) in &class.value_counts {
                if index.senses(v).is_empty() && seen.insert((v, sense)) {
                    out.push((v, sense));
                }
            }
        }
    }
    out
}

/// Runs the beam search (Algorithm 7). `beam = None` applies the secretary
/// rule; `max_k` bounds the explored repair size (defaults to all
/// candidates).
pub fn beam_search(
    rel: &Relation,
    sigma: &[Ofd],
    classes: &[OfdClasses],
    assignment: &SenseAssignment,
    index: &SenseIndex,
    beam: Option<usize>,
    max_k: Option<usize>,
) -> OntologyRepairPlan {
    beam_search_guarded(
        rel,
        sigma,
        classes,
        assignment,
        index,
        beam,
        max_k,
        &ofd_core::ExecGuard::unlimited(),
    )
}

/// [`beam_search`] with an execution guard, probed once per beam-node
/// expansion (level 1 expands the empty repair).
///
/// The frontier always contains the `k = 0` (no ontology repair) point, so
/// an interrupted search still yields a usable plan — `select` falls back
/// to the best fully evaluated point, in the worst case pure data repair.
/// A level joins the frontier only after all its parents are expanded, so
/// no partially costed point can be selected.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_guarded(
    rel: &Relation,
    sigma: &[Ofd],
    classes: &[OfdClasses],
    assignment: &SenseAssignment,
    index: &SenseIndex,
    beam: Option<usize>,
    max_k: Option<usize>,
    guard: &ofd_core::ExecGuard,
) -> OntologyRepairPlan {
    let cands = candidates(classes, assignment, index);
    let w = cands.len();
    let b = beam.unwrap_or_else(|| secretary_beam(w));
    let max_k = max_k.unwrap_or(w).min(w);
    let mut rhs: Vec<_> = sigma.iter().map(|o| o.rhs).collect();
    rhs.sort_unstable();
    rhs.dedup();
    let alpha = rhs.len();

    let (lattice, root) = Lattice::new(rel, classes, assignment, index, &cands);
    let base_cover = root.cover;
    let mut frontier = vec![ParetoPoint {
        k: 0,
        delta_p: alpha * base_cover,
        cover: base_cover,
        adds: Vec::new(),
    }];

    // Beam over the candidate lattice; stop on plateau (an extra insertion
    // that buys no data repairs cannot be part of a Pareto improvement).
    // A level's add sets are bitsets over candidate ranks, `words` each,
    // stored side by side.
    let words = w.div_ceil(64);
    let (mut level, mut keys) = (vec![root], vec![0u64; words]);
    let mut delta = vec![0i32; rel.n_rows()];
    let mut touched: Vec<u32> = Vec::new();
    let mut best_so_far = base_cover;
    'beam: for k in 1..=max_k {
        // Every child as (cover, parent, candidate rank).
        let mut children: Vec<(usize, usize, usize)> = Vec::new();
        for (p, node) in level.iter().enumerate() {
            if guard.check().is_err() {
                break 'beam;
            }
            let key = &keys[p * words..(p + 1) * words];
            for r in (0..w).filter(|&r| key[r / 64] & bit(r) == 0) {
                children.push((lattice.child_cover(node, r, &mut delta, &mut touched), p, r));
            }
        }
        // A set of k insertions has at most k parents, so the b·k cheapest
        // children hold at least b distinct sets: only children no dearer
        // than those can survive, and only they get keys. A zero beam
        // keeps none.
        let Some(cut) = (b * k).min(children.len()).checked_sub(1) else {
            break;
        };
        let bound = children.select_nth_unstable_by_key(cut, |c| c.0).1 .0;
        children.retain(|c| c.0 <= bound);
        let mut child_keys: Vec<u64> = Vec::with_capacity(children.len() * words);
        for &(_, p, r) in &children {
            let at = child_keys.len() + r / 64;
            child_keys.extend_from_slice(&keys[p * words..(p + 1) * words]);
            child_keys[at] |= bit(r);
        }
        // Equal covers rank by the sorted add vector: of two sets of equal
        // size, the smaller holds the lowest rank of their symmetric
        // difference, so its key is the larger. Covers are exact, so a set
        // reached from two parents sorts next to itself.
        let key_of = |c: usize| &child_keys[c * words..(c + 1) * words];
        let mut order: Vec<usize> = (0..children.len()).collect();
        order.sort_unstable_by(|&x, &y| {
            (children[x].0.cmp(&children[y].0)).then_with(|| key_of(y).cmp(key_of(x)))
        });
        order.dedup_by(|x, y| key_of(*x) == key_of(*y));
        order.truncate(b);
        let first = order[0];
        let cover = children[first].0;
        frontier.push(ParetoPoint {
            k,
            delta_p: alpha * cover,
            cover,
            adds: (0..w)
                .filter(|&r| key_of(first)[r / 64] & bit(r) != 0)
                .map(|r| lattice.ranked[r])
                .collect(),
        });
        // Stop when the marginal gain per insertion drops to ≤ 1: such an
        // insertion can never beat the corresponding data repair in the
        // Pareto selection (k + cover stays constant, and ties prefer
        // smaller k), so deeper levels cannot change the outcome.
        if cover == 0 || best_so_far.saturating_sub(cover) <= 1 {
            break;
        }
        best_so_far = cover;
        level = order
            .iter()
            .map(|&c| lattice.child(&level[children[c].1], children[c].2, children[c].0))
            .collect();
        keys = order.iter().flat_map(|&c| key_of(c)).copied().collect();
    }

    // Pareto filter over (k, δ_P).
    let mut pareto: Vec<ParetoPoint> = Vec::new();
    for p in &frontier {
        let dominated = frontier
            .iter()
            .any(|q| q.k <= p.k && q.delta_p <= p.delta_p && (q.k, q.delta_p) != (p.k, p.delta_p));
        if !dominated && !pareto.iter().any(|q| (q.k, q.delta_p) == (p.k, p.delta_p)) {
            pareto.push(p.clone());
        }
    }

    OntologyRepairPlan {
        candidates: cands,
        beam: b,
        frontier,
        pareto,
    }
}

/// Candidate rank `r`'s bit in word `r / 64` of an add-set key. Ranks run
/// from the top bit down, so a lower rank is a higher bit.
fn bit(r: usize) -> u64 {
    1 << (63 - r % 64)
}

/// The candidates ranked by `(ValueId, SenseId)`, each with its effects:
/// it can change only the classes assigned its sense that hold its value
/// and at least one other.
///
/// The objective counts the *distinct tuples* that are outliers in some
/// class (a tuple conflicting for several OFDs is covered once). A class
/// whose sense holds some of its values has the others' tuples as
/// outliers; any other class falls back to majority repair. The union
/// makes the objective subadditive, which is why a wider beam can beat
/// pure greedy (Exp-9).
struct Lattice {
    ranked: Vec<(ValueId, SenseId)>,
    effects: Vec<Vec<Effect>>,
}

/// How inserting a candidate `(v, s)` changes one class assigned `s`.
struct Effect {
    /// The class, numbered across all of Σ's classes.
    slot: usize,
    /// Whether a class value lies in `s` before any insertion.
    base_in: bool,
    /// The class's tuples holding `v`.
    holders: Vec<u32>,
    /// The class's tuples holding its majority value when no base value
    /// lies in `s` and `v` is not the majority; otherwise empty.
    majority: Vec<u32>,
}

/// A beam node: an add set's cover and what its children are costed from.
struct Node {
    cover: usize,
    /// Per tuple, the number of classes it is an outlier in (≤ |Σ|).
    outliers: Vec<u32>,
    /// The classes with no base value in their sense that gained one
    /// through the node's insertions, ascending.
    gained: Vec<usize>,
}

impl Lattice {
    /// The effect lists and the root node (no insertions).
    fn new(
        rel: &Relation,
        classes: &[OfdClasses],
        assignment: &SenseAssignment,
        index: &SenseIndex,
        cands: &[(ValueId, SenseId)],
    ) -> (Lattice, Node) {
        let mut ranked = cands.to_vec();
        ranked.sort_unstable();
        let mut effects: Vec<Vec<Effect>> = ranked.iter().map(|_| Vec::new()).collect();
        let mut outliers = vec![0u32; rel.n_rows()];
        let slots = classes.iter().flat_map(|oc| {
            oc.classes
                .iter()
                .enumerate()
                .map(move |(ci, c)| (oc, ci, c))
        });
        for (slot, (oc, ci, class)) in slots.enumerate() {
            if class.value_counts.len() <= 1 {
                continue; // a single distinct value satisfies any OFD
            }
            let value = |t: u32| rel.value(t as usize, oc.ofd.rhs);
            let holding = |v| {
                class
                    .tuples
                    .iter()
                    .copied()
                    .filter(|&t| value(t) == v)
                    .collect()
            };
            let majority = class.value_counts[0].0;
            let sense = assignment.get(oc.ofd_idx, ci);
            let base_in = sense.is_some_and(|s| {
                class
                    .value_counts
                    .iter()
                    .any(|&(v, _)| index.in_sense(v, s))
            });
            for &t in &class.tuples {
                outliers[t as usize] += match sense {
                    Some(s) if base_in => !index.in_sense(value(t), s),
                    _ => value(t) != majority,
                } as u32;
            }
            let Some(s) = sense else {
                continue;
            };
            for &(v, _) in &class.value_counts {
                if let Ok(rank) = ranked.binary_search(&(v, s)) {
                    effects[rank].push(Effect {
                        slot,
                        base_in,
                        holders: holding(v),
                        majority: if base_in || v == majority {
                            Vec::new()
                        } else {
                            holding(majority)
                        },
                    });
                }
            }
        }
        let cover = outliers.iter().filter(|&&c| c > 0).count();
        let root = Node {
            cover,
            outliers,
            gained: Vec::new(),
        };
        (Lattice { ranked, effects }, root)
    }

    /// Calls `f(tuples, ±1)` for each change that inserting candidate
    /// `rank` makes to `node`'s outlier counts.
    fn changes(&self, node: &Node, rank: usize, mut f: impl FnMut(&[u32], i32)) {
        for e in &self.effects[rank] {
            if e.base_in || node.gained.binary_search(&e.slot).is_ok() {
                // The sense already holds a class value: v's tuples stop
                // being outliers.
                f(&e.holders, -1);
            } else if !e.majority.is_empty() {
                // Majority repair gives way to "every tuple but v".
                f(&e.majority, 1);
                f(&e.holders, -1);
            }
        }
    }

    /// The cover of `node` plus candidate `rank`, counted in the dense
    /// `delta` scratch (all zero on entry and on return) over the tuples
    /// the candidate touches.
    fn child_cover(
        &self,
        node: &Node,
        rank: usize,
        delta: &mut [i32],
        touched: &mut Vec<u32>,
    ) -> usize {
        self.changes(node, rank, |tuples, by| {
            for &t in tuples {
                if delta[t as usize] == 0 {
                    touched.push(t);
                }
                delta[t as usize] += by;
            }
        });
        let mut cover = node.cover;
        for t in touched.drain(..) {
            let was = node.outliers[t as usize] as i32;
            match (was > 0, was + std::mem::take(&mut delta[t as usize]) > 0) {
                (false, true) => cover += 1,
                (true, false) => cover -= 1,
                _ => {}
            }
        }
        cover
    }

    /// The node for `node` plus candidate `rank`, whose cover is known.
    fn child(&self, node: &Node, rank: usize, cover: usize) -> Node {
        let mut outliers = node.outliers.clone();
        self.changes(node, rank, |tuples, by| {
            for &t in tuples {
                let c = &mut outliers[t as usize];
                *c = c.checked_add_signed(by).expect("outlier counts stay ≥ 0");
            }
        });
        let mut gained = node.gained.clone();
        gained.extend(
            self.effects[rank]
                .iter()
                .filter(|e| !e.base_in)
                .map(|e| e.slot),
        );
        gained.sort_unstable();
        gained.dedup();
        Node {
            cover,
            outliers,
            gained,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::build_classes;
    use crate::sense::{assign_all, SenseView};
    use ofd_core::table1_updated;
    use ofd_ontology::{samples, OntologyBuilder};
    use proptest::prelude::*;

    fn setup() -> (
        Relation,
        ofd_ontology::Ontology,
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
    fn secretary_rule_values() {
        assert_eq!(secretary_beam(0), 1);
        assert_eq!(secretary_beam(3), 1);
        assert_eq!(secretary_beam(6), 2);
        assert_eq!(secretary_beam(10), 3);
    }

    #[test]
    fn adizem_is_the_repair_candidate() {
        // Example 1.2: adizem is absent from Figure 1's ontology.
        let (rel, _onto, sigma, index) = setup();
        let classes = build_classes(&rel, &sigma);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let cands = candidates(&classes, &assignment, &index);
        let adizem = rel.pool().get("adizem").unwrap();
        assert!(cands.iter().any(|&(v, _)| v == adizem));
        // Every candidate value is genuinely unknown to the ontology.
        for &(v, _) in &cands {
            assert!(index.senses(v).is_empty());
        }
    }

    #[test]
    fn beam_search_improves_delta_with_k() {
        let (rel, _onto, sigma, index) = setup();
        let classes = build_classes(&rel, &sigma);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let plan = beam_search(&rel, &sigma, &classes, &assignment, &index, Some(3), None);
        assert!(plan.frontier.len() >= 2, "at least k=0 and k=1 explored");
        let base = plan.frontier[0].delta_p;
        assert!(base > 0, "the updated table has violations");
        let best = plan.frontier.iter().map(|p| p.delta_p).min().unwrap();
        assert!(best < base, "ontology repair reduces the repair bound");
        // Frontier entries are indexed by k.
        for (i, p) in plan.frontier.iter().enumerate() {
            assert_eq!(p.k, i);
            assert_eq!(p.adds.len(), i);
        }
    }

    #[test]
    fn pareto_points_are_mutually_nondominated() {
        let (rel, _onto, sigma, index) = setup();
        let classes = build_classes(&rel, &sigma);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let plan = beam_search(&rel, &sigma, &classes, &assignment, &index, None, None);
        for p in &plan.pareto {
            for q in &plan.pareto {
                if (p.k, p.delta_p) != (q.k, q.delta_p) {
                    assert!(
                        !(q.k <= p.k && q.delta_p <= p.delta_p),
                        "({},{}) dominates ({},{})",
                        q.k,
                        q.delta_p,
                        p.k,
                        p.delta_p
                    );
                }
            }
        }
    }

    /// Naive recomputation of the union-of-outliers objective under
    /// `base ∪ adds`.
    fn naive_cover(
        rel: &Relation,
        classes: &[OfdClasses],
        assignment: &SenseAssignment,
        index: &SenseIndex,
        adds: &[(ValueId, SenseId)],
    ) -> usize {
        let ov: HashSet<_> = adds.iter().copied().collect();
        let v = SenseView {
            base: index,
            overlay: &ov,
        };
        let mut outliers: HashSet<u32> = HashSet::new();
        for oc in classes {
            for (ci, class) in oc.classes.iter().enumerate() {
                let sense = assignment.get(oc.ofd_idx, ci);
                if class.value_counts.len() <= 1 {
                    continue;
                }
                let total: u32 = class.value_counts.iter().map(|&(_, c)| c).sum();
                match sense {
                    Some(s) => {
                        let covered: u32 = class
                            .value_counts
                            .iter()
                            .filter(|&&(val, _)| v.in_sense(val, s))
                            .map(|&(_, c)| c)
                            .sum();
                        if covered == total {
                            continue;
                        }
                        if covered > 0 {
                            for &t in &class.tuples {
                                let val = rel.value(t as usize, oc.ofd.rhs);
                                if !v.in_sense(val, s) {
                                    outliers.insert(t);
                                }
                            }
                        } else {
                            let majority = class.value_counts[0].0;
                            for &t in &class.tuples {
                                if rel.value(t as usize, oc.ofd.rhs) != majority {
                                    outliers.insert(t);
                                }
                            }
                        }
                    }
                    None => {
                        let majority = class.value_counts[0].0;
                        for &t in &class.tuples {
                            if rel.value(t as usize, oc.ofd.rhs) != majority {
                                outliers.insert(t);
                            }
                        }
                    }
                }
            }
        }
        outliers.len()
    }

    #[test]
    fn incremental_eval_matches_from_scratch() {
        // The parent-derived evaluation must equal a naive recomputation
        // for arbitrary candidate subsets.
        use ofd_datagen::{clinical, PresetConfig};
        let mut ds = clinical(&PresetConfig {
            n_rows: 400,
            n_ofds: 6,
            seed: 41,
            ..PresetConfig::default()
        });
        ds.degrade_ontology(0.06, 42);
        ds.inject_errors(0.05, 42);
        let classes = build_classes(&ds.relation, &ds.ofds);
        let index = SenseIndex::synonym(&ds.relation, &ds.ontology);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let cands = candidates(&classes, &assignment, &index);
        assert!(cands.len() >= 4, "need candidates to exercise subsets");

        // The beam search reports frontiers whose covers must match the
        // naive objective for the chosen add-sets.
        let plan = beam_search(
            &ds.relation,
            &ds.ofds,
            &classes,
            &assignment,
            &index,
            Some(4),
            Some(5),
        );
        for point in &plan.frontier {
            assert_eq!(
                point.cover,
                naive_cover(&ds.relation, &classes, &assignment, &index, &point.adds),
                "k={} adds={:?}",
                point.k,
                point.adds
            );
        }
    }

    #[test]
    fn cover_is_exact_when_the_sense_holds_no_class_value() {
        // b is interned before the majority a, and the sense holds neither,
        // so the class falls back to majority repair (cover 1). Inserting b
        // makes a's three tuples the outliers (cover 3); inserting a keeps
        // cover 1.
        let rel = Relation::from_rows(
            ["X", "A"],
            [
                &["x", "b"] as &[&str],
                &["x", "a"],
                &["x", "a"],
                &["x", "a"],
            ],
        )
        .unwrap();
        let mut builder = OntologyBuilder::new();
        let s = builder.concept("S").synonyms(["c"]).build().unwrap();
        let index = SenseIndex::synonym(&rel, &builder.finish().unwrap());
        let sigma = vec![Ofd::synonym_named(rel.schema(), &["X"], "A").unwrap()];
        let classes = build_classes(&rel, &sigma);
        let assignment = SenseAssignment::from_table(vec![vec![Some(s)]]);
        let plan = beam_search(&rel, &sigma, &classes, &assignment, &index, Some(2), None);
        let a = rel.pool().get("a").unwrap();
        assert_eq!((plan.frontier[0].cover, plan.frontier[1].cover), (1, 1));
        assert_eq!(plan.frontier[1].adds, vec![(a, s)]);
    }

    /// Algorithm 7 with every child costed from scratch, ranked by
    /// (cover, sorted insertions) and de-duplicated by value: the frontier
    /// (cover, insertions) that `beam_search` must report.
    fn reference_frontier(
        cands: &[(ValueId, SenseId)],
        b: usize,
        cover: impl Fn(&[(ValueId, SenseId)]) -> usize,
    ) -> Vec<(usize, Vec<(ValueId, SenseId)>)> {
        let mut frontier = vec![(cover(&[]), Vec::new())];
        let mut level = vec![Vec::new()];
        for _ in cands {
            let mut next: Vec<(usize, Vec<(ValueId, SenseId)>)> = Vec::new();
            for adds in &level {
                for c in cands.iter().filter(|c| !adds.contains(*c)) {
                    let mut child = adds.clone();
                    child.push(*c);
                    child.sort_unstable();
                    next.push((cover(&child), child));
                }
            }
            next.sort();
            next.dedup();
            next.truncate(b);
            let Some(first) = next.first().cloned() else {
                break;
            };
            let best = frontier.last().unwrap().0;
            frontier.push(first.clone());
            if first.0 == 0 || best.saturating_sub(first.0) <= 1 {
                break;
            }
            level = next.into_iter().map(|(_, adds)| adds).collect();
        }
        frontier
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random relations over `X, Y, A, B` with Σ = {X→A, Y→A, X→B},
        /// value `v{i}` in sense `S{members[i]}` (3 to 5: unknown) and
        /// classes assigned from `senses` (3: none), so a class often sits
        /// under a sense holding none of its values: every cover derived
        /// from a parent along a random insertion chain equals the objective
        /// recomputed from scratch, and the search reports the frontier of
        /// a search that costs every child from scratch.
        #[test]
        fn parent_derived_covers_match_from_scratch(
            rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..8, 0u8..8), 2..60),
            members in prop::collection::vec(0u8..6, 8),
            senses in prop::collection::vec(0u8..4, 1..9),
            chain in prop::collection::vec(0usize..64, 0..12),
            beam in 0usize..6,
        ) {
            let cells: Vec<[String; 4]> = rows
                .iter()
                .map(|&(x, y, a, b)| [format!("x{x}"), format!("y{y}"), format!("v{a}"), format!("v{b}")])
                .collect();
            let cells: Vec<[&str; 4]> = cells.iter().map(|r| r.each_ref().map(String::as_str)).collect();
            let rel = Relation::from_rows(["X", "Y", "A", "B"], cells.iter().map(|r| &r[..])).unwrap();
            let mut builder = OntologyBuilder::new();
            let ids: Vec<SenseId> = (0..3)
                .map(|s| {
                    let names = (0..8).filter(|&i| members[i] == s).map(|i| format!("v{i}"));
                    builder.concept(format!("S{s}")).synonyms(names).build().unwrap()
                })
                .collect();
            let index = SenseIndex::synonym(&rel, &builder.finish().unwrap());
            let sigma: Vec<Ofd> = [("X", "A"), ("Y", "A"), ("X", "B")]
                .iter()
                .map(|&(x, a)| Ofd::synonym_named(rel.schema(), &[x], a).unwrap())
                .collect();
            let classes = build_classes(&rel, &sigma);
            let mut draw = senses.iter().cycle();
            let assignment = SenseAssignment::from_table(
                classes
                    .iter()
                    .map(|oc| oc.classes.iter().map(|_| ids.get(*draw.next().unwrap() as usize).copied()).collect())
                    .collect(),
            );
            let naive = |adds: &[(ValueId, SenseId)]| naive_cover(&rel, &classes, &assignment, &index, adds);

            let cands = candidates(&classes, &assignment, &index);
            let (lattice, mut node) = Lattice::new(&rel, &classes, &assignment, &index, &cands);
            prop_assert_eq!(node.cover, naive(&[]));
            let (mut delta, mut touched) = (vec![0i32; rel.n_rows()], Vec::new());
            let mut free: Vec<usize> = (0..cands.len()).collect();
            let mut adds = Vec::new();
            for pick in chain.into_iter().take(free.len()) {
                let r = free.remove(pick % free.len());
                let cover = lattice.child_cover(&node, r, &mut delta, &mut touched);
                adds.push(lattice.ranked[r]);
                adds.sort_unstable();
                prop_assert_eq!(cover, naive(&adds), "adds {:?}", adds);
                node = lattice.child(&node, r, cover);
            }
            let plan = beam_search(&rel, &sigma, &classes, &assignment, &index, Some(beam), None);
            let frontier: Vec<_> = plan.frontier.iter().map(|p| (p.cover, p.adds.clone())).collect();
            prop_assert_eq!(frontier, reference_frontier(&cands, beam, naive));
        }

        /// Keys of equal-size rank sets, spanning several words, order in
        /// reverse of the sorted rank vectors.
        #[test]
        fn keys_order_as_reversed_sorted_vectors(
            a in prop::collection::vec(0usize..150, 0..8),
            b in prop::collection::vec(0usize..150, 0..8),
        ) {
            let (mut a, mut b) = (a, b);
            for v in [&mut a, &mut b] {
                v.sort_unstable();
                v.dedup();
            }
            let n = a.len().min(b.len());
            let key = |v: &[usize]| {
                let mut key = [0u64; 3];
                v[..n].iter().for_each(|&r| key[r / 64] |= bit(r));
                key
            };
            prop_assert_eq!(key(&b).cmp(&key(&a)), a[..n].cmp(&b[..n]));
        }
    }

    #[test]
    fn select_minimizes_total_changes() {
        let (rel, _onto, sigma, index) = setup();
        let classes = build_classes(&rel, &sigma);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let plan = beam_search(&rel, &sigma, &classes, &assignment, &index, Some(4), None);
        let chosen = plan.select(usize::MAX);
        for p in &plan.pareto {
            assert!(chosen.k + chosen.cover <= p.k + p.cover);
        }
        // A tight τ prefers points with fewer data repairs when available.
        let tight = plan.select(0);
        if plan.pareto.iter().any(|p| p.cover == 0) {
            assert_eq!(tight.cover, 0);
        }
    }
}
