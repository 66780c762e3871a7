//! Evidence sampling: the HyFD-style pre-filter for exact discovery.
//!
//! Full-relation verification is the dominant cost of lattice traversal,
//! and the overwhelming majority of candidates *fail*. A failing candidate
//! needs only one witness pair to be refuted, and witness pairs cluster:
//! two rows violating `X → A` agree on `X`, so they sit close together
//! when the rows are sorted by any attribute of `X`. Following HyFD's
//! focused-sampling idea (see `ofd-fd-baselines::hyfd` for the plain-FD
//! reference implementation), round `r` compares every row with its
//! `r + 1`-distant neighbour in each attribute's sort order and records
//! the pair's agree-set together with its incompatible consequents in an
//! [`EvidenceSet`].
//!
//! Soundness is one-directional by construction: a sampled pair that
//! refutes `X → A` refutes it on the full relation (the pair is in the
//! full `Π_X` class too), while nothing is ever concluded from the
//! *absence* of evidence — surviving candidates still pay for the exact
//! check. That is what makes the whole phase result-neutral.

use ofd_core::{EvidenceSet, ExecGuard, PairKernel, Relation, SenseIndex, ValueId};

/// Outcome of the sampling phase.
pub(crate) struct SampleOutcome {
    /// The gathered refutation witnesses, reduced to the maximal agree-sets
    /// of each consequent.
    pub evidence: EvidenceSet,
    /// Rounds fully executed (may stop short under a tripped guard; the
    /// partial evidence is still sound).
    pub rounds_run: u64,
}

/// Runs `rounds` sorted-neighbourhood passes and returns the evidence.
///
/// Deterministic: the pair schedule depends only on the relation contents
/// (value-id sort orders with row-id tie-breaks), never on threads or
/// timing. The guard is probed once per (round, attribute) block; a trip
/// returns the evidence gathered so far.
pub(crate) fn gather_evidence(
    rel: &Relation,
    index: &SenseIndex,
    rounds: usize,
    guard: &ExecGuard,
) -> SampleOutcome {
    let mut out = observe_rounds(rel, index, rounds, guard);
    out.evidence.keep_maximal();
    out
}

/// The pair schedule of [`gather_evidence`], with every distinct witness
/// kept.
fn observe_rounds(
    rel: &Relation,
    index: &SenseIndex,
    rounds: usize,
    guard: &ExecGuard,
) -> SampleOutcome {
    let n = rel.n_rows();
    let mut evidence = EvidenceSet::new(rel.n_attrs());
    let mut rounds_run = 0u64;
    if n < 2 || rounds == 0 {
        return SampleOutcome {
            evidence,
            rounds_run,
        };
    }
    let kernel = PairKernel::new(rel, index);
    // One order per attribute, reused across rounds.
    let orders: Vec<Vec<u32>> = rel
        .schema()
        .attrs()
        .map(|a| value_order(rel.column(a)))
        .collect();
    'rounds: for round in 0..rounds {
        let dist = round + 1;
        if dist >= n {
            break;
        }
        for order in &orders {
            if guard.check().is_err() {
                break 'rounds;
            }
            for (&t1, &t2) in order.iter().zip(&order[dist..]) {
                kernel.observe(&mut evidence, t1 as usize, t2 as usize);
            }
        }
        rounds_run += 1;
    }
    SampleOutcome {
        evidence,
        rounds_run,
    }
}

/// The rows of one column in ascending `(value id, row)` order, by one
/// counting pass over the column's value-id range. Rows are placed in
/// ascending row order within each value, so ties break exactly as a sort
/// by `(value, row)` breaks them.
fn value_order(col: &[ValueId]) -> Vec<u32> {
    let lo = col.iter().map(|v| v.index()).min().unwrap_or(0);
    let hi = col.iter().map(|v| v.index()).max().unwrap_or(0);
    // next[v - lo]: where the next row holding value v goes.
    let mut next = vec![0u32; hi - lo + 2];
    for v in col {
        next[v.index() - lo + 1] += 1;
    }
    for i in 1..next.len() {
        next[i] += next[i - 1];
    }
    let mut order = vec![0u32; col.len()];
    for (t, v) in col.iter().enumerate() {
        let slot = &mut next[v.index() - lo];
        order[*slot as usize] = t as u32;
        *slot += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::{table1, AttrId, AttrSet, Ofd, Validator};
    use ofd_ontology::{samples, Ontology, OntologyBuilder};
    use proptest::prelude::*;

    /// Width of the kernel's sense signatures.
    const SIGNATURE_BITS: usize = 128;

    /// The gather the kernel replaces, as a test reference: comparison-sorted
    /// orders, a per-attribute sense-list intersection for every differing
    /// cell, and one witness insert per incompatible attribute. Returns the
    /// evidence, its incompatible-pair count and the orders.
    fn naive_gather(
        rel: &Relation,
        index: &SenseIndex,
        rounds: usize,
    ) -> (EvidenceSet, u64, Vec<Vec<u32>>) {
        let n = rel.n_rows();
        let orders: Vec<Vec<u32>> = rel
            .schema()
            .attrs()
            .map(|a| {
                let col = rel.column(a);
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by_key(|&t| (col[t as usize], t));
                order
            })
            .collect();
        let mut ev = EvidenceSet::new(rel.n_attrs());
        let mut pairs = 0u64;
        for dist in 1..=rounds {
            if dist >= n {
                break;
            }
            for order in &orders {
                for i in 0..n - dist {
                    let (t1, t2) = (order[i] as usize, order[i + dist] as usize);
                    let mut agree = AttrSet::empty();
                    let mut incompat = AttrSet::empty();
                    for a in rel.schema().attrs() {
                        let (v1, v2) = (rel.value(t1, a), rel.value(t2, a));
                        let (s1, s2) = (index.senses(v1), index.senses(v2));
                        if v1 == v2 {
                            agree.insert(a);
                        } else if !s1.iter().any(|s| s2.binary_search(s).is_ok()) {
                            incompat.insert(a);
                        }
                    }
                    if !incompat.is_empty() {
                        pairs += 1;
                        for a in incompat.iter() {
                            ev.observe_agree(agree, a);
                        }
                    }
                }
            }
        }
        (ev, pairs, orders)
    }

    /// Random relations over values carrying up to six senses each, in an
    /// ontology whose sense ids span more than twice the signature width:
    /// sense `base + 128·lane` for `base < 8`, `lane < 3`, so distinct
    /// senses share signature bits all the time. Every sense also names a
    /// filler value that never occurs in the relation.
    fn arb_sensed_instance() -> impl Strategy<Value = (Relation, Ontology)> {
        let n_attrs = 4usize;
        let n_values = 10usize;
        let rows = prop::collection::vec(prop::collection::vec(0..n_values, n_attrs), 2..40);
        let senses = prop::collection::vec(
            prop::collection::vec((0usize..8, 0usize..3), 0..7),
            n_values,
        );
        (rows, senses).prop_map(move |(rows, senses)| {
            let names: Vec<String> = (0..n_attrs).map(|i| format!("A{i}")).collect();
            let mut b = Relation::builder(
                ofd_core::Schema::new(names.iter().map(String::as_str)).unwrap(),
            );
            for row in &rows {
                let cells: Vec<String> = row.iter().map(|v| format!("v{v}")).collect();
                b.push_row(cells.iter().map(String::as_str)).unwrap();
            }
            let mut members = vec![Vec::new(); 8 + 2 * SIGNATURE_BITS];
            for (v, list) in senses.iter().enumerate() {
                for &(base, lane) in list {
                    members[base + SIGNATURE_BITS * lane].push(format!("v{v}"));
                }
            }
            let mut ob = OntologyBuilder::new();
            for (sense, mut values) in members.into_iter().enumerate() {
                values.sort();
                values.dedup();
                ob.concept(format!("s{sense}"))
                    .synonym(format!("filler{sense}"))
                    .synonyms(values)
                    .build()
                    .unwrap();
            }
            (b.finish(), ob.finish().unwrap())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The signature-filtered kernel, its one-probe dedup and the
        /// counting-sort schedule give the naive gather's pair count and
        /// refutation answers, both before and after the maximal-witness
        /// reduction.
        #[test]
        fn kernel_gather_equals_naive_reference(
            (rel, onto) in arb_sensed_instance(),
            rounds in 1usize..4,
        ) {
            prop_assert!(onto.len() >= 2 * SIGNATURE_BITS);
            let index = SenseIndex::synonym(&rel, &onto);
            let (naive, naive_pairs, naive_orders) = naive_gather(&rel, &index, rounds);
            for a in rel.schema().attrs() {
                prop_assert_eq!(&value_order(rel.column(a)), &naive_orders[a.index()]);
            }
            let guard = ExecGuard::unlimited();
            let raw = observe_rounds(&rel, &index, rounds, &guard).evidence;
            let reduced = gather_evidence(&rel, &index, rounds, &guard).evidence;
            let mut naive_reduced = naive.clone();
            naive_reduced.keep_maximal();
            prop_assert_eq!(raw.pair_count(), naive_pairs);
            prop_assert_eq!(reduced.pair_count(), naive_pairs);
            prop_assert_eq!(raw.len(), naive.len());
            prop_assert_eq!(reduced.len(), naive_reduced.len());
            for rhs in (0..rel.n_attrs()).map(AttrId::from_index) {
                for bits in 0..(1u64 << rel.n_attrs()) {
                    let lhs = AttrSet::from_bits(bits);
                    let want = naive.refutes(lhs, rhs);
                    prop_assert_eq!(raw.refutes(lhs, rhs), want);
                    prop_assert_eq!(reduced.refutes(lhs, rhs), want);
                    prop_assert_eq!(naive_reduced.refutes(lhs, rhs), want);
                }
            }
        }
    }

    #[test]
    fn evidence_is_sound_wrt_full_relation() {
        // The satellite soundness contract: any candidate the sample
        // refutes is refuted by exact validation over the full relation.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let guard = ExecGuard::unlimited();
        let out = gather_evidence(&rel, &index, 4, &guard);
        assert_eq!(out.rounds_run, 4);
        assert!(!out.evidence.is_empty(), "Table 1 yields witnesses");
        let v = Validator::new(&rel, &onto);
        let schema = rel.schema();
        for a in schema.attrs() {
            for bits in 0..(1u64 << schema.len()) {
                let lhs = AttrSet::from_bits(bits);
                if lhs.contains(a) || !out.evidence.refutes(lhs, a) {
                    continue;
                }
                let ofd = Ofd::synonym(lhs, a);
                assert!(
                    !v.check(&ofd).satisfied(),
                    "sample refuted the valid OFD {}",
                    ofd.display(schema)
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_and_guard_aware() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let a = gather_evidence(&rel, &index, 3, &ExecGuard::unlimited());
        let b = gather_evidence(&rel, &index, 3, &ExecGuard::unlimited());
        assert_eq!(a.evidence.len(), b.evidence.len());
        assert_eq!(a.evidence.pair_count(), b.evidence.pair_count());
        // A pre-tripped guard stops before any pair is examined.
        let tripped = ExecGuard::unlimited();
        tripped.cancel();
        let c = gather_evidence(&rel, &index, 3, &tripped);
        assert_eq!(c.rounds_run, 0);
        assert!(c.evidence.is_empty());
    }

    #[test]
    fn degenerate_inputs_produce_no_evidence() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let out = gather_evidence(&rel, &index, 0, &ExecGuard::unlimited());
        assert_eq!(out.rounds_run, 0);
        assert!(out.evidence.is_empty());
        // Distances beyond the relation size terminate cleanly.
        let far = gather_evidence(&rel, &index, 10_000, &ExecGuard::unlimited());
        assert!(far.rounds_run <= rel.n_rows() as u64);
    }
}
