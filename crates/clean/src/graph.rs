//! The dependency graph over equivalence classes (§5.2) and local
//! refinement of the sense assignment (Algorithm 6).
//!
//! Nodes are `(OFD, class)` pairs; an edge connects classes of *different*
//! OFDs that share a consequent attribute and overlap in tuples. Edge
//! weights are the EMD between the overlap's value distributions under the
//! two assigned senses, computed from integer token counts over interned
//! ids. Refinement visits heavy nodes first and considers three ways to
//! align a heavy edge — ontology repair, data repair, or sense
//! reassignment — applying a reassignment only when it actually lowers the
//! edge weight.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use ofd_core::{AttrId, Relation, ValueId};
use ofd_ontology::{Ontology, SenseId};

use crate::classes::{ClassData, OfdClasses};
use crate::emd::Histogram;
use crate::sense::{SenseAssignment, SenseView};

/// A node of the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    /// OFD index in Σ.
    pub ofd_idx: usize,
    /// Class index within that OFD.
    pub class_idx: usize,
}

/// An undirected weighted edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Endpoint node indices into [`DepGraph::nodes`].
    pub u: usize,
    /// Second endpoint.
    pub v: usize,
    /// Where the overlapping tuple ids sit in the graph's overlap buffer
    /// ([`DepGraph::overlap`]).
    pub overlap: Range<usize>,
    /// EMD between the overlap's distributions under the endpoints' senses.
    pub weight: f64,
}

/// The dependency graph.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Nodes (classes participating in at least one edge are meaningful;
    /// isolated classes are included for completeness).
    pub nodes: Vec<NodeRef>,
    /// Edges.
    pub edges: Vec<Edge>,
    /// Every edge's overlapping tuple ids, edge after edge.
    overlaps: Vec<u32>,
    /// Node `n`'s incident edges are `adj[adj_start[n]..adj_start[n + 1]]`,
    /// ascending.
    adj_start: Vec<usize>,
    adj: Vec<usize>,
}

impl DepGraph {
    /// Indexes each node's incident edges, in edge order.
    fn new(nodes: Vec<NodeRef>, edges: Vec<Edge>, overlaps: Vec<u32>) -> Self {
        let mut adj_start = vec![0; nodes.len() + 1];
        for e in &edges {
            adj_start[e.u + 1] += 1;
            adj_start[e.v + 1] += 1;
        }
        for n in 1..adj_start.len() {
            adj_start[n] += adj_start[n - 1];
        }
        let mut next = adj_start.clone();
        let mut adj = vec![0; 2 * edges.len()];
        for (i, e) in edges.iter().enumerate() {
            for n in [e.u, e.v] {
                adj[next[n]] = i;
                next[n] += 1;
            }
        }
        DepGraph {
            nodes,
            edges,
            overlaps,
            adj_start,
            adj,
        }
    }

    /// The tuple ids `edge`'s classes share, in the second class's order.
    pub fn overlap(&self, edge: &Edge) -> &[u32] {
        &self.overlaps[edge.overlap.clone()]
    }

    /// Edge indices incident to node `n`.
    pub fn incident(&self, n: usize) -> &[usize] {
        &self.adj[self.adj_start[n]..self.adj_start[n + 1]]
    }

    /// Sum of incident edge weights — the BFS priority of Algorithm 8.
    pub fn node_weight(&self, n: usize) -> f64 {
        self.incident(n).iter().map(|&e| self.edges[e].weight).sum()
    }
}

/// Distribution of the overlap's consequent values under `sense`: values
/// inside the sense collapse to the sense's canonical value, outliers stay
/// themselves (§5.2.1). Edge weights count the same tokens over interned
/// ids.
pub fn overlap_histogram(
    rel: &Relation,
    onto: &Ontology,
    view: SenseView<'_>,
    overlap: &[u32],
    rhs: AttrId,
    sense: Option<SenseId>,
) -> Histogram<String> {
    let mut h = Histogram::new();
    for &t in overlap {
        let v = rel.value(t as usize, rhs);
        let token = match sense {
            Some(s) if view.in_sense(v, s) => onto
                .canonical(s)
                .expect("assigned sense exists")
                .to_owned(),
            _ => rel.pool().resolve(v).to_owned(),
        };
        h.add(token, 1.0);
    }
    h
}

/// Builds the dependency graph for the current assignment.
pub fn build_graph(
    rel: &Relation,
    onto: &Ontology,
    classes: &[OfdClasses],
    assignment: &SenseAssignment,
    view: SenseView<'_>,
) -> DepGraph {
    Weigher::new(rel, onto, view).graph(classes, assignment)
}

/// A class of no OFD in the pair, and a sense whose token is not looked up
/// yet.
const NONE: u32 = u32::MAX;

/// The integer EMD kernel behind every edge weight (§5.2.2).
///
/// A tuple's token under a sense is its consequent [`ValueId`], unless the
/// value lies in the sense: then it is the token of the sense's canonical
/// text. That is the pool id of the text when the pool holds it, so tokens
/// follow string equality as [`overlap_histogram`]'s do; a text the pool
/// lacks gets a fresh id above `pool().len()`, one per distinct text. Both
/// distributions of an overlap hold one token per tuple, so their EMD is
/// half the L1 distance of the token counts, exact in integers.
struct Weigher<'a> {
    rel: &'a Relation,
    onto: &'a Ontology,
    view: SenseView<'a>,
    /// Token of each sense's canonical text, [`NONE`] until first needed.
    canonical: Vec<u32>,
    /// Tokens of the canonical texts the pool lacks.
    fresh: HashMap<&'a str, u32>,
    /// Per token, its count under the first sense minus under the second.
    diff: Vec<i32>,
    /// Tokens whose `diff` may be nonzero (a token may repeat).
    touched: Vec<u32>,
}

impl<'a> Weigher<'a> {
    fn new(rel: &'a Relation, onto: &'a Ontology, view: SenseView<'a>) -> Self {
        Weigher {
            rel,
            onto,
            view,
            canonical: vec![NONE; onto.len()],
            fresh: HashMap::new(),
            diff: vec![0; rel.pool().len()],
            touched: Vec::new(),
        }
    }

    /// The dependency graph of `classes` under `assignment`: for each pair
    /// of OFDs sharing a consequent, one edge per overlapping pair of
    /// classes, in (class of the first, class of the second) order.
    fn graph(&mut self, classes: &[OfdClasses], assignment: &SenseAssignment) -> DepGraph {
        let mut nodes = Vec::new();
        let mut first_node = Vec::with_capacity(classes.len());
        for oc in classes {
            first_node.push(nodes.len());
            nodes.extend((0..oc.classes.len()).map(|class_idx| NodeRef {
                ofd_idx: oc.ofd_idx,
                class_idx,
            }));
        }
        let mut edges = Vec::new();
        let mut overlaps = Vec::new();
        // Tuple -> class of the pair's first OFD, reset after each pair.
        let mut owner = vec![NONE; self.rel.n_rows()];
        // (class of the first OFD, class of the second, tuple), in the
        // second OFD's order; `sorted` holds them by the first class.
        let mut hits: Vec<(u32, u32, u32)> = Vec::new();
        let mut sorted = Vec::new();
        let mut start: Vec<usize> = Vec::new();
        for (i, a) in classes.iter().enumerate() {
            for (j, b) in classes.iter().enumerate().skip(i + 1) {
                if a.ofd.rhs != b.ofd.rhs {
                    continue;
                }
                for (ci, class) in a.classes.iter().enumerate() {
                    for &t in &class.tuples {
                        owner[t as usize] = ci as u32;
                    }
                }
                hits.clear();
                for (cj, class) in b.classes.iter().enumerate() {
                    for &t in &class.tuples {
                        let ci = owner[t as usize];
                        if ci != NONE {
                            hits.push((ci, cj as u32, t));
                        }
                    }
                }
                for class in &a.classes {
                    for &t in &class.tuples {
                        owner[t as usize] = NONE;
                    }
                }
                // A counting sort by ci: stable, so each (ci, cj) group
                // keeps the second OFD's tuple order.
                start.clear();
                start.resize(a.classes.len() + 1, 0);
                for &(ci, _, _) in &hits {
                    start[ci as usize + 1] += 1;
                }
                for k in 1..start.len() {
                    start[k] += start[k - 1];
                }
                sorted.clear();
                sorted.resize(hits.len(), (0, 0, 0));
                for &hit in &hits {
                    sorted[start[hit.0 as usize]] = hit;
                    start[hit.0 as usize] += 1;
                }
                for group in sorted.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
                    let (ci, cj) = (group[0].0 as usize, group[0].1 as usize);
                    let start = overlaps.len();
                    overlaps.extend(group.iter().map(|&(_, _, t)| t));
                    let weight = self.weight(
                        &overlaps[start..],
                        a.ofd.rhs,
                        assignment.get(a.ofd_idx, ci),
                        assignment.get(b.ofd_idx, cj),
                    );
                    edges.push(Edge {
                        u: first_node[i] + ci,
                        v: first_node[j] + cj,
                        overlap: start..overlaps.len(),
                        weight,
                    });
                }
            }
        }
        DepGraph::new(nodes, edges, overlaps)
    }

    /// EMD between the overlap's distributions under `su` and `sv`.
    fn weight(
        &mut self,
        overlap: &[u32],
        rhs: AttrId,
        su: Option<SenseId>,
        sv: Option<SenseId>,
    ) -> f64 {
        if su == sv {
            return 0.0;
        }
        let column = self.rel.column(rhs);
        for &t in overlap {
            let v = column[t as usize];
            let (p, q) = (self.token(v, su), self.token(v, sv));
            if p != q {
                self.shift(p, 1);
                self.shift(q, -1);
            }
        }
        let mut l1 = 0u64;
        for &token in &self.touched {
            l1 += u64::from(self.diff[token as usize].unsigned_abs());
            self.diff[token as usize] = 0;
        }
        self.touched.clear();
        l1 as f64 / 2.0
    }

    fn shift(&mut self, token: u32, by: i32) {
        let d = &mut self.diff[token as usize];
        if *d == 0 {
            self.touched.push(token);
        }
        *d += by;
    }

    /// The token of value `v` under `sense`.
    fn token(&mut self, v: ValueId, sense: Option<SenseId>) -> u32 {
        match sense {
            Some(s) if self.view.in_sense(v, s) => self.canonical_token(s),
            _ => v.index() as u32,
        }
    }

    /// Looked up on first use: like [`overlap_histogram`], which asks for
    /// a sense's canonical text only for a tuple inside the sense.
    fn canonical_token(&mut self, s: SenseId) -> u32 {
        match self.canonical.get(s.index()) {
            Some(&token) if token != NONE => return token,
            _ => {}
        }
        let text = self.onto.canonical(s).expect("assigned sense exists");
        let token = match self.rel.pool().get(text) {
            Some(v) => v.index() as u32,
            None => *self.fresh.entry(text).or_insert_with(|| {
                self.diff.push(0);
                (self.diff.len() - 1) as u32
            }),
        };
        self.canonical[s.index()] = token;
        token
    }
}

/// Outlier values of an overlap w.r.t. a sense: `ρ_{Ω,λ}` (§5.2.1).
fn outlier_values(
    rel: &Relation,
    view: SenseView<'_>,
    overlap: &[u32],
    rhs: AttrId,
    sense: Option<SenseId>,
) -> HashSet<ValueId> {
    overlap
        .iter()
        .map(|&t| rel.value(t as usize, rhs))
        .filter(|&v| match sense {
            Some(s) => !view.in_sense(v, s),
            None => true,
        })
        .collect()
}

/// Tuples of a class not covered by a sense: `R(x_λ)`.
fn uncovered_tuples(class: &ClassData, view: SenseView<'_>, sense: Option<SenseId>) -> usize {
    match sense {
        Some(s) => class.size() - view.coverage(class, s),
        None => class.size(),
    }
}

/// One pass of Algorithm 6 over the whole graph: visits nodes in descending
/// summed-EMD order and, for each incident edge heavier than `theta`,
/// evaluates the three alignment options, applying the cheapest when it is
/// a sense reassignment that reduces the edge weight. Returns the number of
/// reassignments performed.
pub fn local_refinement(
    rel: &Relation,
    onto: &Ontology,
    classes: &[OfdClasses],
    assignment: &mut SenseAssignment,
    view: SenseView<'_>,
    theta: f64,
) -> usize {
    local_refinement_guarded(
        rel,
        onto,
        classes,
        assignment,
        view,
        theta,
        &ofd_core::ExecGuard::unlimited(),
    )
}

/// [`local_refinement`] with an execution guard, probed once per visited
/// node and per heavy edge.
///
/// Interrupting mid-pass is safe: each applied reassignment was already
/// individually validated to reduce its edge's weight, so a truncated pass
/// leaves the assignment strictly no worse than it started.
pub fn local_refinement_guarded(
    rel: &Relation,
    onto: &Ontology,
    classes: &[OfdClasses],
    assignment: &mut SenseAssignment,
    view: SenseView<'_>,
    theta: f64,
    guard: &ofd_core::ExecGuard,
) -> usize {
    let mut weigher = Weigher::new(rel, onto, view);
    let graph = weigher.graph(classes, assignment);
    refine(
        rel,
        classes,
        assignment,
        view,
        theta,
        guard,
        &graph,
        |overlap, rhs, su, sv| weigher.weight(overlap, rhs, su, sv),
    )
}

/// The pass of [`local_refinement_guarded`] over a built `graph`; `weigh`
/// re-weighs an edge's overlap under a tentative pair of senses.
#[allow(clippy::too_many_arguments)]
fn refine(
    rel: &Relation,
    classes: &[OfdClasses],
    assignment: &mut SenseAssignment,
    view: SenseView<'_>,
    theta: f64,
    guard: &ofd_core::ExecGuard,
    graph: &DepGraph,
    mut weigh: impl FnMut(&[u32], AttrId, Option<SenseId>, Option<SenseId>) -> f64,
) -> usize {
    let weights: Vec<f64> = (0..graph.nodes.len())
        .map(|n| graph.node_weight(n))
        .collect();
    let mut order: Vec<usize> = (0..graph.nodes.len()).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));

    let class_of = |n: NodeRef| -> &ClassData {
        let oc = classes
            .iter()
            .find(|oc| oc.ofd_idx == n.ofd_idx)
            .expect("node references a known OFD");
        &oc.classes[n.class_idx]
    };

    let mut reassigned = 0usize;
    'nodes: for &u in &order {
        if guard.check().is_err() {
            break;
        }
        if weights[u] <= theta {
            continue;
        }
        for &ei in graph.incident(u) {
            if guard.check().is_err() {
                break 'nodes;
            }
            let edge = &graph.edges[ei];
            if edge.weight <= theta {
                continue;
            }
            let overlap = graph.overlap(edge);
            let (nu, nv) = (graph.nodes[edge.u], graph.nodes[edge.v]);
            let su = assignment.get(nu.ofd_idx, nu.class_idx);
            let sv = assignment.get(nv.ofd_idx, nv.class_idx);
            let rhs = classes
                .iter()
                .find(|oc| oc.ofd_idx == nu.ofd_idx)
                .expect("ofd exists")
                .ofd
                .rhs;

            let rho_u = outlier_values(rel, view, overlap, rhs, su);
            let rho_v = outlier_values(rel, view, overlap, rhs, sv);

            // Option (i): ontology repair — add each outlier to S.
            let cost_onto = (rho_u.len() + rho_v.len()) as f64;
            // Option (ii): data repair — update tuples carrying outliers.
            let count_tuples = |rho: &HashSet<ValueId>| {
                overlap
                    .iter()
                    .filter(|&&t| rho.contains(&rel.value(t as usize, rhs)))
                    .count()
            };
            let cost_data = (count_tuples(&rho_u) + count_tuples(&rho_v)) as f64;

            // Option (iii): sense reassignment of either endpoint to a
            // candidate sense touching the outliers.
            let mut best_reassign: Option<(usize, SenseId, f64)> = None;
            for (node_pos, node, cur, rho) in
                [(edge.u, nu, su, &rho_u), (edge.v, nv, sv, &rho_v)]
            {
                let class = class_of(node);
                let mut candidates: Vec<SenseId> = Vec::new();
                for &val in rho.iter() {
                    for s in view.senses(val) {
                        if Some(s) != cur && !candidates.contains(&s) {
                            candidates.push(s);
                        }
                    }
                }
                if let Some(other) = if node_pos == edge.u { sv } else { su } {
                    if Some(other) != cur && !candidates.contains(&other) {
                        candidates.push(other);
                    }
                }
                candidates.sort_unstable();
                for cand in candidates {
                    let delta = uncovered_tuples(class, view, Some(cand)) as f64
                        - uncovered_tuples(class, view, cur) as f64;
                    let cost = delta.max(0.0);
                    if best_reassign.is_none_or(|(_, _, c)| cost < c) {
                        best_reassign = Some((node_pos, cand, cost));
                    }
                }
            }

            // Apply a reassignment only when it is the cheapest option and
            // actually reduces the edge weight.
            if let Some((node_pos, cand, cost)) = best_reassign {
                if cost <= cost_onto && cost <= cost_data {
                    let node = graph.nodes[node_pos];
                    let old = assignment.get(node.ofd_idx, node.class_idx);
                    assignment.set(node.ofd_idx, node.class_idx, Some(cand));
                    let new_weight = weigh(
                        overlap,
                        rhs,
                        assignment.get(nu.ofd_idx, nu.class_idx),
                        assignment.get(nv.ofd_idx, nv.class_idx),
                    );
                    if new_weight < edge.weight {
                        reassigned += 1;
                    } else {
                        assignment.set(node.ofd_idx, node.class_idx, old);
                    }
                }
            }
        }
    }
    reassigned
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use crate::classes::build_classes;
    use crate::emd::emd;
    use crate::sense::assign_all;
    use ofd_core::{Ofd, SenseIndex};
    use ofd_ontology::OntologyBuilder;

    /// The Figure 5 setting: two OFDs A→C and B→C over a shared consequent,
    /// with senses λ1 = {c2,c1,c3} and λ2 = {c2,c4} (canonical c2).
    fn figure5() -> (Relation, ofd_ontology::Ontology, Vec<Ofd>) {
        let rel = Relation::from_rows(
            ["A", "B", "C"],
            [
                &["a1", "b1", "c1"] as &[&str],
                &["a1", "b1", "c2"],
                &["a1", "b2", "c2"],
                &["a1", "b2", "c2"],
                &["a1", "b2", "c1"],
                &["a1", "b2", "c4"],
                &["a2", "b2", "c3"],
                &["a2", "b3", "c5"],
                &["a2", "b3", "c5"],
            ],
        )
        .unwrap();
        let mut b = OntologyBuilder::new();
        b.concept("λ1").synonyms(["c2", "c1", "c3"]).build().unwrap();
        b.concept("λ2").synonyms(["c2", "c4"]).build().unwrap();
        b.concept("λ3").synonyms(["c5"]).build().unwrap();
        let onto = b.finish().unwrap();
        let sigma = vec![
            Ofd::synonym_named(rel.schema(), &["A"], "C").unwrap(),
            Ofd::synonym_named(rel.schema(), &["B"], "C").unwrap(),
        ];
        (rel, onto, sigma)
    }

    #[test]
    fn graph_edges_connect_overlapping_classes_of_shared_consequent() {
        let (rel, onto, sigma) = figure5();
        let classes = build_classes(&rel, &sigma);
        let index = SenseIndex::synonym(&rel, &onto);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let g = build_graph(&rel, &onto, &classes, &assignment, view);
        assert!(!g.edges.is_empty());
        for e in &g.edges {
            let (nu, nv) = (g.nodes[e.u], g.nodes[e.v]);
            assert_ne!(nu.ofd_idx, nv.ofd_idx, "edges span different OFDs");
            assert!(!g.overlap(e).is_empty());
            assert!(e.weight >= 0.0);
        }
    }

    #[test]
    fn same_sense_on_both_ends_gives_zero_weight() {
        let (rel, onto, sigma) = figure5();
        let classes = build_classes(&rel, &sigma);
        let index = SenseIndex::synonym(&rel, &onto);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let mut assignment = SenseAssignment::empty(&classes);
        let lambda1 = onto.names("c1")[0];
        for oc in &classes {
            for ci in 0..oc.classes.len() {
                assignment.set(oc.ofd_idx, ci, Some(lambda1));
            }
        }
        let g = build_graph(&rel, &onto, &classes, &assignment, view);
        for e in &g.edges {
            assert_eq!(e.weight, 0.0, "identical senses align distributions");
        }
    }

    #[test]
    fn refinement_reduces_or_preserves_total_weight() {
        let (rel, onto, sigma) = figure5();
        let classes = build_classes(&rel, &sigma);
        let index = SenseIndex::synonym(&rel, &onto);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let mut assignment = assign_all(&classes, view);
        let before: f64 = build_graph(&rel, &onto, &classes, &assignment, view)
            .edges
            .iter()
            .map(|e| e.weight)
            .sum();
        local_refinement(&rel, &onto, &classes, &mut assignment, view, 0.0);
        let after: f64 = build_graph(&rel, &onto, &classes, &assignment, view)
            .edges
            .iter()
            .map(|e| e.weight)
            .sum();
        assert!(after <= before + 1e-9, "refinement must not worsen ({before} -> {after})");
    }

    #[test]
    fn high_theta_means_no_refinement() {
        let (rel, onto, sigma) = figure5();
        let classes = build_classes(&rel, &sigma);
        let index = SenseIndex::synonym(&rel, &onto);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let mut assignment = assign_all(&classes, view);
        let snapshot = assignment.clone();
        let n = local_refinement(&rel, &onto, &classes, &mut assignment, view, 1e12);
        assert_eq!(n, 0);
        assert_eq!(assignment, snapshot);
    }

    #[test]
    fn refinement_reassigns_to_align_interpretations() {
        // Example 5.4's dynamics: two overlapping classes start on
        // different senses; a sense reassignment is the cheapest of the
        // three options and reduces the edge weight, so it is applied.
        let rel = Relation::from_rows(
            ["A", "B", "C"],
            [
                &["a1", "b1", "c1"] as &[&str],
                &["a1", "b1", "c2"],
                &["a1", "b1", "c2"],
                &["a1", "b2", "c2"],
                &["a1", "b2", "c4"],
                &["a1", "b2", "c4"],
                &["a1", "b2", "c4"],
            ],
        )
        .unwrap();
        let mut b = OntologyBuilder::new();
        let l1 = b.concept("λ1").synonyms(["c2", "c1"]).build().unwrap();
        let l2 = b.concept("λ2").synonyms(["c2", "c4"]).build().unwrap();
        let onto = b.finish().unwrap();
        let sigma = vec![
            Ofd::synonym_named(rel.schema(), &["A"], "C").unwrap(),
            Ofd::synonym_named(rel.schema(), &["B"], "C").unwrap(),
        ];
        let classes = build_classes(&rel, &sigma);
        let index = SenseIndex::synonym(&rel, &onto);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let mut assignment = assign_all(&classes, view);
        // Initial: the A-class {c1,c2×3,c4×3} is covered best by λ2
        // (6 of 7 tuples); the B=b1 class {c1,c2,c2} fully by λ1.
        assert_eq!(assignment.get(0, 0), Some(l2));
        assert_eq!(assignment.get(1, 0), Some(l1));
        let before: f64 = build_graph(&rel, &onto, &classes, &assignment, view)
            .edges
            .iter()
            .map(|e| e.weight)
            .sum();
        assert!(before > 0.0, "misaligned senses must weigh something");
        let n = local_refinement(&rel, &onto, &classes, &mut assignment, view, 0.0);
        assert!(n >= 1, "a reassignment must fire");
        let after: f64 = build_graph(&rel, &onto, &classes, &assignment, view)
            .edges
            .iter()
            .map(|e| e.weight)
            .sum();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn node_weight_sums_incident_edges() {
        let (rel, onto, sigma) = figure5();
        let classes = build_classes(&rel, &sigma);
        let index = SenseIndex::synonym(&rel, &onto);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let assignment = assign_all(&classes, view);
        let g = build_graph(&rel, &onto, &classes, &assignment, view);
        for n in 0..g.nodes.len() {
            let direct: f64 = g.incident(n).iter().map(|&e| g.edges[e].weight).sum();
            assert!((g.node_weight(n) - direct).abs() < 1e-12);
        }
    }

    /// The graph as the string histograms define it: overlaps grouped in a
    /// map keyed by (class, class), each edge weighed by [`emd`] over two
    /// [`overlap_histogram`]s. Also returns each node's incident edges in
    /// the order they were pushed.
    fn reference_graph(
        rel: &Relation,
        onto: &ofd_ontology::Ontology,
        classes: &[OfdClasses],
        assignment: &SenseAssignment,
        view: SenseView<'_>,
    ) -> (DepGraph, Vec<Vec<usize>>) {
        let mut nodes = Vec::new();
        let mut node_index = HashMap::new();
        for oc in classes {
            for ci in 0..oc.classes.len() {
                let n = NodeRef {
                    ofd_idx: oc.ofd_idx,
                    class_idx: ci,
                };
                node_index.insert(n, nodes.len());
                nodes.push(n);
            }
        }
        let mut edges = Vec::new();
        let mut buffer = Vec::new();
        let mut adj = vec![Vec::new(); nodes.len()];
        for (i, a) in classes.iter().enumerate() {
            for b in classes.iter().skip(i + 1) {
                if a.ofd.rhs != b.ofd.rhs {
                    continue;
                }
                let mut owner = HashMap::new();
                for (ci, class) in a.classes.iter().enumerate() {
                    for &t in &class.tuples {
                        owner.insert(t, ci);
                    }
                }
                let mut overlaps: BTreeMap<(usize, usize), Vec<u32>> = BTreeMap::new();
                for (cj, class) in b.classes.iter().enumerate() {
                    for &t in &class.tuples {
                        if let Some(&ci) = owner.get(&t) {
                            overlaps.entry((ci, cj)).or_default().push(t);
                        }
                    }
                }
                for ((ci, cj), overlap) in overlaps {
                    let u = node_index[&NodeRef {
                        ofd_idx: a.ofd_idx,
                        class_idx: ci,
                    }];
                    let v = node_index[&NodeRef {
                        ofd_idx: b.ofd_idx,
                        class_idx: cj,
                    }];
                    let weight = reference_weight(
                        rel,
                        onto,
                        view,
                        &overlap,
                        a.ofd.rhs,
                        assignment.get(a.ofd_idx, ci),
                        assignment.get(b.ofd_idx, cj),
                    );
                    adj[u].push(edges.len());
                    adj[v].push(edges.len());
                    let start = buffer.len();
                    buffer.extend(overlap);
                    edges.push(Edge {
                        u,
                        v,
                        overlap: start..buffer.len(),
                        weight,
                    });
                }
            }
        }
        (DepGraph::new(nodes, edges, buffer), adj)
    }

    fn reference_weight(
        rel: &Relation,
        onto: &ofd_ontology::Ontology,
        view: SenseView<'_>,
        overlap: &[u32],
        rhs: AttrId,
        su: Option<SenseId>,
        sv: Option<SenseId>,
    ) -> f64 {
        emd(
            &overlap_histogram(rel, onto, view, overlap, rhs, su),
            &overlap_histogram(rel, onto, view, overlap, rhs, sv),
        )
    }

    /// `build_graph` equals the reference graph (nodes, edges in order,
    /// overlaps, weight bits, adjacency), and `local_refinement` makes the
    /// same reassignments as the same pass over the reference graph with
    /// string re-weighing. Returns the number of reassignments.
    fn assert_matches_reference(
        rel: &Relation,
        onto: &ofd_ontology::Ontology,
        classes: &[OfdClasses],
        assignment: &SenseAssignment,
        view: SenseView<'_>,
        theta: f64,
    ) -> usize {
        let g = build_graph(rel, onto, classes, assignment, view);
        let (r, r_adj) = reference_graph(rel, onto, classes, assignment, view);
        assert_eq!(g.nodes, r.nodes);
        assert_eq!(g.edges.len(), r.edges.len());
        for (e, f) in g.edges.iter().zip(&r.edges) {
            assert_eq!(
                (e.u, e.v, g.overlap(e), e.weight.to_bits()),
                (f.u, f.v, r.overlap(f), f.weight.to_bits())
            );
        }
        for (n, adj) in r_adj.iter().enumerate() {
            assert_eq!(g.incident(n), adj.as_slice(), "node {n}");
        }
        let (mut fast, mut slow) = (assignment.clone(), assignment.clone());
        let n_fast = local_refinement(rel, onto, classes, &mut fast, view, theta);
        let n_slow = refine(
            rel,
            classes,
            &mut slow,
            view,
            theta,
            &ofd_core::ExecGuard::unlimited(),
            &r,
            |overlap, rhs, su, sv| reference_weight(rel, onto, view, overlap, rhs, su, sv),
        );
        assert_eq!((n_fast, &fast), (n_slow, &slow));
        n_fast
    }

    #[test]
    fn senses_sharing_a_canonical_text_share_its_token() {
        // λ1 = {c2, c1} and λ2 = {c2, c4} both read c1/c4 tuples as "c2"
        // when inside: {c2, c4} against {c1, c2} moves one tuple, where
        // tokens per sense would move two.
        let rel = Relation::from_rows(
            ["A", "B", "C"],
            [&["a", "b", "c1"] as &[&str], &["a", "b", "c4"]],
        )
        .unwrap();
        let mut b = OntologyBuilder::new();
        let l1 = b.concept("λ1").synonyms(["c2", "c1"]).build().unwrap();
        let l2 = b.concept("λ2").synonyms(["c2", "c4"]).build().unwrap();
        let onto = b.finish().unwrap();
        let sigma = vec![
            Ofd::synonym_named(rel.schema(), &["A"], "C").unwrap(),
            Ofd::synonym_named(rel.schema(), &["B"], "C").unwrap(),
        ];
        let classes = build_classes(&rel, &sigma);
        let index = SenseIndex::synonym(&rel, &onto);
        let overlay = HashSet::new();
        let view = SenseView {
            base: &index,
            overlay: &overlay,
        };
        let mut assignment = SenseAssignment::empty(&classes);
        assignment.set(0, 0, Some(l1));
        assignment.set(1, 0, Some(l2));
        let g = build_graph(&rel, &onto, &classes, &assignment, view);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].weight, 1.0);
        assert_matches_reference(&rel, &onto, &classes, &assignment, view, 0.0);
    }

    #[test]
    fn clean_2k_graphs_match_the_histogram_reference() {
        use ofd_datagen::{clinical, PresetConfig};
        for seed in [4, 1, 9, 2, 3] {
            let mut ds = clinical(&PresetConfig {
                n_rows: 2_000,
                seed,
                ..PresetConfig::default()
            });
            ds.degrade_ontology(0.04, seed);
            ds.inject_errors(0.03, seed);
            let classes = build_classes(&ds.relation, &ds.ofds);
            let index = SenseIndex::synonym(&ds.relation, &ds.ontology);
            let overlay = HashSet::new();
            let view = SenseView {
                base: &index,
                overlay: &overlay,
            };
            let assignment = assign_all(&classes, view);
            assert_matches_reference(&ds.relation, &ds.ontology, &classes, &assignment, view, 0.0);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// C draws from the first five texts; "x0", "x1" and "L1" appear
        /// only in the ontology.
        const TEXTS: [&str; 8] = ["c0", "c1", "c2", "c3", "c4", "x0", "x1", "L1"];

        /// Σ draws from these; the D-consequent OFDs share no edge with
        /// the C ones.
        const OFDS: [(&[&str], &str); 6] = [
            (&["A"], "C"),
            (&["B"], "C"),
            (&["A", "B"], "C"),
            (&["D"], "C"),
            (&["A"], "D"),
            (&["B"], "D"),
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Small relations and ontologies where senses share canonical
            /// texts, a canonical text may be absent from the relation or
            /// spell a value outside its sense (a synonym-less concept's
            /// label), classes may be unassigned, and an overlay may add
            /// memberships.
            #[test]
            fn graph_and_refinement_match_the_histogram_reference(
                rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..5, 0u8..2), 2..16),
                concepts in prop::collection::vec(
                    (prop::collection::vec(0usize..7, 0..4), 0usize..8),
                    1..6,
                ),
                ofd_mask in 1u8..64,
                initial in 0u8..2,
                picks in prop::collection::vec(0usize..7, 1..24),
                overlay_picks in prop::collection::vec((0usize..5, 0usize..6), 0..5),
                theta in 0usize..4,
            ) {
                let cells: Vec<[String; 4]> = rows
                    .iter()
                    .map(|&(a, b, c, d)| {
                        [format!("a{a}"), format!("b{b}"), TEXTS[c as usize].to_owned(), format!("d{d}")]
                    })
                    .collect();
                let refs: Vec<Vec<&str>> = cells
                    .iter()
                    .map(|r| r.iter().map(String::as_str).collect())
                    .collect();
                let rel = Relation::from_rows(["A", "B", "C", "D"], refs.iter().map(Vec::as_slice))
                    .unwrap();

                let mut b = OntologyBuilder::new();
                for (synonyms, label) in &concepts {
                    let mut values: Vec<&str> = Vec::new();
                    for &k in synonyms {
                        if !values.contains(&TEXTS[k]) {
                            values.push(TEXTS[k]);
                        }
                    }
                    // A synonym-less concept's canonical text is its label.
                    b.concept(TEXTS[*label]).synonyms(values).build().unwrap();
                }
                let onto = b.finish().unwrap();
                let n_senses = onto.len();

                let sigma: Vec<Ofd> = OFDS
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| ofd_mask & (1 << k) != 0)
                    .map(|(_, &(lhs, rhs))| Ofd::synonym_named(rel.schema(), lhs, rhs).unwrap())
                    .collect();
                let classes = build_classes(&rel, &sigma);
                let index = SenseIndex::synonym(&rel, &onto);
                let overlay: HashSet<(ValueId, SenseId)> = overlay_picks
                    .iter()
                    .filter_map(|&(v, s)| {
                        let value = rel.pool().get(TEXTS[v])?;
                        Some((value, SenseId::from_index(s % n_senses)))
                    })
                    .collect();
                let view = SenseView {
                    base: &index,
                    overlay: &overlay,
                };
                let theta = [0.0, 0.5, 1.0, -1.0][theta];
                let assignment = if initial == 1 {
                    assign_all(&classes, view)
                } else {
                    let mut a = SenseAssignment::empty(&classes);
                    let mut pick = picks.iter().cycle();
                    for oc in &classes {
                        for ci in 0..oc.classes.len() {
                            let p = *pick.next().expect("cycle");
                            let sense = (p > 0).then(|| SenseId::from_index((p - 1) % n_senses));
                            a.set(oc.ofd_idx, ci, sense);
                        }
                    }
                    a
                };
                assert_matches_reference(&rel, &onto, &classes, &assignment, view, theta);
            }
        }
    }
}
