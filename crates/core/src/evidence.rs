//! Violation evidence from sampled tuple pairs (HyFD-style pre-filtering).
//!
//! A single tuple pair is a sound *refutation* witness for exact OFDs: if
//! `t1` and `t2` agree on every attribute of `X` and their values on `A`
//! are distinct with no common sense, then the class of `Π_X` containing
//! the pair has no covering interpretation — `X → A` fails on *any*
//! relation containing both tuples. The converse never holds (the Table 2
//! counterexample: pairwise compatibility does not imply a class-wide
//! witness), so evidence only ever answers "refuted", never "satisfied".
//!
//! [`PairKernel::gather`] samples the pairs, HyFD-style: round `r`
//! compares every row with its `r + 1`-distant neighbour in each
//! attribute's sort order, since two rows violating `X → A` agree on `X`
//! and so sit close together when sorted by any attribute of `X`.
//! Discovery consults the evidence before paying for a full-relation scan,
//! and the HyFD baseline (`fd-baselines`) induces its FD hypotheses from
//! it. Soundness is one-directional: a sampled pair that refutes `X → A`
//! refutes it on the full relation, while nothing is concluded from the
//! *absence* of evidence.

use crate::fxhash::FxHashMap;
use crate::guard::ExecGuard;
use crate::relation::Relation;
use crate::schema::{AttrId, AttrSet};
use crate::sense_index::SenseIndex;
use crate::value::ValueId;

/// Refutation evidence for exact OFD candidates, deduplicated.
///
/// Per consequent attribute `A`, stores the agree-sets (as [`AttrSet`]
/// bits) of observed pairs whose `A`-values are *incompatible* (distinct
/// and sharing no sense). A candidate `X → A` is refuted iff some stored
/// agree-set contains `X`.
#[derive(Debug, Default, Clone)]
pub struct EvidenceSet {
    per_rhs: Vec<Vec<u64>>,
    /// Agree-set bits → the consequents already recorded for it.
    recorded: FxHashMap<u64, u64>,
    pairs: u64,
}

impl EvidenceSet {
    /// An empty evidence set over a schema of `n_attrs` attributes.
    pub fn new(n_attrs: usize) -> EvidenceSet {
        EvidenceSet {
            per_rhs: vec![Vec::new(); n_attrs],
            recorded: FxHashMap::default(),
            pairs: 0,
        }
    }

    /// Records one pair's witnesses with a single map probe: each
    /// consequent in `incompat` not yet recorded for `agree` gets `agree`
    /// appended, in ascending consequent order.
    fn record(&mut self, agree: u64, incompat: u64) {
        let seen = self.recorded.entry(agree).or_insert(0);
        let fresh = incompat & !*seen;
        *seen |= incompat;
        self.append(agree, fresh);
    }

    /// Appends `agree` to the witness list of every consequent in `fresh`,
    /// in ascending consequent order.
    fn append(&mut self, agree: u64, mut fresh: u64) {
        while fresh != 0 {
            self.per_rhs[fresh.trailing_zeros() as usize].push(agree);
            fresh &= fresh - 1;
        }
    }

    /// Records a raw witness: pairs agreeing exactly on `agree` refute any
    /// exact `X → rhs` with `X ⊆ agree`. (Test/tool entry point; discovery
    /// records pairs through a [`PairKernel`].)
    pub fn observe_agree(&mut self, agree: AttrSet, rhs: AttrId) {
        self.record(agree.bits(), 1 << rhs.index());
    }

    /// Drops every agree-set contained in another one of the same
    /// consequent. [`EvidenceSet::refutes`] answers exactly as before:
    /// `lhs ⊆ a ⊆ b` for any dropped `a` and the kept `b` covering it.
    /// Each list ends up ordered by descending size, then ascending bits.
    pub fn keep_maximal(&mut self) {
        for witnesses in &mut self.per_rhs {
            // Recorded agree-sets are distinct, so a proper superset has
            // more bits and sorts ahead of every set it covers.
            witnesses.sort_unstable_by_key(|&a| (std::cmp::Reverse(a.count_ones()), a));
            let mut kept: Vec<u64> = Vec::new();
            for &a in witnesses.iter() {
                if !kept.iter().any(|&b| a & b == a) {
                    kept.push(a);
                }
            }
            *witnesses = kept;
        }
    }

    /// The agree-sets recorded against `rhs`, in recording order (or, after
    /// [`EvidenceSet::keep_maximal`], the maximal ones): pairs agreeing on
    /// each refute every exact `X → rhs` with `X` inside it.
    pub fn witnesses(&self, rhs: AttrId) -> impl Iterator<Item = AttrSet> + '_ {
        self.per_rhs[rhs.index()]
            .iter()
            .map(|&bits| AttrSet::from_bits(bits))
    }

    /// Whether the recorded evidence refutes the exact OFD `lhs → rhs`.
    #[inline]
    pub fn refutes(&self, lhs: AttrSet, rhs: AttrId) -> bool {
        let need = lhs.bits();
        self.per_rhs
            .get(rhs.index())
            .is_some_and(|w| w.iter().any(|&agree| agree & need == need))
    }

    /// Number of (agree-set, consequent) witnesses kept: every distinct
    /// one recorded, or only the maximal ones after
    /// [`EvidenceSet::keep_maximal`].
    pub fn len(&self) -> usize {
        self.per_rhs.iter().map(Vec::len).sum()
    }

    /// Whether no witness has been recorded.
    pub fn is_empty(&self) -> bool {
        self.per_rhs.iter().all(Vec::is_empty)
    }

    /// Number of observed pairs that contributed at least one incompatible
    /// consequent (before witness deduplication).
    pub fn pair_count(&self) -> u64 {
        self.pairs
    }
}

/// The tuple-pair routine of the evidence sampler, and its pair schedule
/// ([`PairKernel::gather`]). Built once per relation: it holds the
/// relation's cells row by row (a pair then reads two short rows instead of
/// one cell in every column) and a 128-bit *sense signature* per interned
/// value: bit `s % 128` set for every sense `s`, 0 for a value with no
/// sense.
///
/// Two distinct values whose signatures do not intersect share no sense (a
/// common sense would set a common bit), so they are incompatible with no
/// merge. Intersecting signatures are only a necessary condition for a
/// shared sense — senses 128 apart collide — so the exact sorted merge of
/// the two sense lists decides those.
#[derive(Debug)]
pub struct PairKernel<'a> {
    /// The relation, whose columns give the gather's sort orders.
    rel: &'a Relation,
    /// Row-major cells: row `t` is `rows[t·width .. (t+1)·width]`.
    rows: Vec<ValueId>,
    width: usize,
    index: &'a SenseIndex,
    signatures: Vec<u128>,
    /// Every attribute of the schema.
    all: u64,
    /// Attributes whose column holds a value with at least one sense;
    /// differing cells anywhere else are incompatible outright.
    sensed: u64,
}

impl<'a> PairKernel<'a> {
    /// Transposes `rel` and computes the signature of every value interned
    /// in it.
    pub fn new(rel: &'a Relation, index: &'a SenseIndex) -> PairKernel<'a> {
        let signatures: Vec<u128> = (0..rel.pool().len())
            .map(|i| {
                index
                    .senses(ValueId::from_index(i))
                    .iter()
                    .fold(0u128, |sig, s| sig | 1u128 << (s.index() % 128))
            })
            .collect();
        let width = rel.n_attrs();
        let mut rows = vec![ValueId::from_index(0); rel.n_rows() * width];
        let mut sensed = 0u64;
        for a in rel.schema().attrs() {
            for (t, &v) in rel.column(a).iter().enumerate() {
                rows[t * width + a.index()] = v;
                if signatures[v.index()] != 0 {
                    sensed |= 1 << a.index();
                }
            }
        }
        PairKernel {
            rel,
            rows,
            width,
            index,
            signatures,
            all: rel.schema().all().bits(),
            sensed,
        }
    }

    /// Records the evidence of the tuple pair `(t1, t2)` in `ev`: computes
    /// the agree-set and, if the pair is incompatible on any attribute,
    /// counts it and stores its witnesses.
    ///
    /// A consequent the agree-set has already witnessed gains nothing from
    /// another witness, so only the others have their senses checked. The
    /// witnessed ones decide only whether the pair counts: they are checked
    /// when nothing else is incompatible, up to the first incompatible one.
    /// Every witness list therefore grows exactly as if every differing
    /// attribute were checked.
    #[inline]
    pub fn observe(&self, ev: &mut EvidenceSet, t1: usize, t2: usize) {
        let w = self.width;
        let (r1, r2) = (&self.rows[t1 * w..][..w], &self.rows[t2 * w..][..w]);
        let mut agree = 0u64;
        for (a, (v1, v2)) in r1.iter().zip(r2).enumerate() {
            agree |= u64::from(v1 == v2) << a;
        }
        let incompatible = |a: usize| {
            let (v1, v2) = (r1[a], r2[a]);
            self.signatures[v1.index()] & self.signatures[v2.index()] == 0
                || !shares_sense(self.index.senses(v1), self.index.senses(v2))
        };
        let differ = self.all & !agree;
        let slot = ev.recorded.get_mut(&agree);
        let seen = slot.as_deref().copied().unwrap_or(0);
        let mut incompat = differ & !self.sensed;
        let mut check = differ & self.sensed & !seen;
        while check != 0 {
            let a = check.trailing_zeros() as usize;
            check &= check - 1;
            if incompatible(a) {
                incompat |= 1 << a;
            }
        }
        if incompat == 0 {
            let mut witnessed = differ & self.sensed & seen;
            loop {
                if witnessed == 0 {
                    return;
                }
                if incompatible(witnessed.trailing_zeros() as usize) {
                    break;
                }
                witnessed &= witnessed - 1;
            }
        }
        ev.pairs += 1;
        let fresh = incompat & !seen;
        match slot {
            Some(seen) => *seen |= fresh,
            None => {
                ev.recorded.insert(agree, fresh);
            }
        }
        ev.append(agree, fresh);
    }

    /// Runs `rounds` sorted-neighbourhood passes over the relation: round
    /// `r` observes every row with its `r + 1`-distant neighbour in each
    /// attribute's `(value, row)` order. Returns the evidence, with every
    /// distinct witness kept, and the number of rounds fully run.
    ///
    /// Deterministic: the pair schedule depends only on the relation
    /// contents, never on threads or timing. The guard is probed once per
    /// (round, attribute) block; a trip returns the evidence gathered so
    /// far, which is still sound.
    pub fn gather(&self, rounds: usize, guard: &ExecGuard) -> (EvidenceSet, u64) {
        let rel = self.rel;
        let mut evidence = EvidenceSet::new(self.width);
        let mut rounds_run = 0;
        // One order per attribute, reused across rounds.
        let orders: Vec<Vec<u32>> = rel
            .schema()
            .attrs()
            .map(|a| value_order(rel.column(a)))
            .collect();
        'rounds: for dist in 1..=rounds.min(rel.n_rows().saturating_sub(1)) {
            for order in &orders {
                if guard.check().is_err() {
                    break 'rounds;
                }
                for (&t1, &t2) in order.iter().zip(&order[dist..]) {
                    self.observe(&mut evidence, t1 as usize, t2 as usize);
                }
            }
            rounds_run += 1;
        }
        (evidence, rounds_run)
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

/// Whether two sorted sense lists intersect (merge scan; sense lists are
/// short in practice).
fn shares_sense(a: &[ofd_ontology::SenseId], b: &[ofd_ontology::SenseId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofd::Ofd;
    use crate::relation::table1;
    use crate::validate::Validator;
    use ofd_ontology::{samples, Ontology, OntologyBuilder, SenseId};
    use proptest::prelude::*;

    /// The per-attribute merge the kernel replaces: the test reference.
    fn observe_naive(
        ev: &mut EvidenceSet,
        rel: &Relation,
        index: &SenseIndex,
        t1: usize,
        t2: usize,
    ) {
        let mut agree = AttrSet::empty();
        let mut incompat = AttrSet::empty();
        for a in rel.schema().attrs() {
            let (v1, v2) = (rel.value(t1, a), rel.value(t2, a));
            if v1 == v2 {
                agree.insert(a);
            } else if !shares_sense(index.senses(v1), index.senses(v2)) {
                incompat.insert(a);
            }
        }
        if !incompat.is_empty() {
            ev.pairs += 1;
            for a in incompat.iter() {
                ev.observe_agree(agree, a);
            }
        }
    }

    fn all_pairs(rel: &Relation, mut observe: impl FnMut(usize, usize)) {
        for t1 in 0..rel.n_rows() {
            for t2 in (t1 + 1)..rel.n_rows() {
                observe(t1, t2);
            }
        }
    }

    fn assert_same_refutations(a: &EvidenceSet, b: &EvidenceSet, n_attrs: usize) {
        for rhs in 0..n_attrs {
            let rhs = AttrId::from_index(rhs);
            for bits in 0..(1u64 << n_attrs) {
                let lhs = AttrSet::from_bits(bits);
                assert_eq!(
                    a.refutes(lhs, rhs),
                    b.refutes(lhs, rhs),
                    "{lhs:?} -> {rhs:?}"
                );
            }
        }
    }

    #[test]
    fn pair_evidence_refutes_subset_antecedents_only() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let schema = rel.schema();
        let kernel = PairKernel::new(&rel, &index);
        let mut ev = EvidenceSet::new(schema.len());
        // Rows 3 and 4 of Table 1: same CC ("IN"), different CTRY texts
        // ("India" vs "Bharat") — but those are synonyms, so CTRY is NOT
        // incompatible; scan all pairs and check agreement semantics on
        // whatever evidence falls out.
        all_pairs(&rel, |t1, t2| kernel.observe(&mut ev, t1, t2));
        assert!(!ev.is_empty(), "Table 1 has incompatible pairs");
        // CC → CTRY is a valid synonym OFD on Table 1, so no evidence may
        // refute it (soundness).
        let cc = schema.set(["CC"]).unwrap();
        let ctry = schema.attr("CTRY").unwrap();
        assert!(!ev.refutes(cc, ctry));
        // SYMP,DIAG → MED fails as a synonym OFD (the nausea class), and
        // full pair enumeration must surface a witness for it.
        let sd = schema.set(["SYMP", "DIAG"]).unwrap();
        let med = schema.attr("MED").unwrap();
        assert!(ev.refutes(sd, med));
        // Soundness over every small antecedent: whenever the evidence
        // refutes X → A, the exact check over the full relation must fail
        // too (never the other way a refutation gets invented).
        let v = crate::validate::Validator::new(&rel, &onto);
        for a in schema.attrs() {
            for bits in 0..(1u64 << schema.len()) {
                let lhs = AttrSet::from_bits(bits);
                if lhs.len() > 2 || lhs.contains(a) {
                    continue;
                }
                if ev.refutes(lhs, a) {
                    let ofd = crate::ofd::Ofd::synonym(lhs, a);
                    assert!(
                        !v.check(&ofd).satisfied(),
                        "evidence refuted a valid OFD {}",
                        ofd.display(schema)
                    );
                }
            }
        }
    }

    #[test]
    fn observe_agree_dedups_and_matches_refutes() {
        let rel = table1();
        let schema = rel.schema();
        let mut ev = EvidenceSet::new(schema.len());
        let x = schema.set(["CC", "SYMP"]).unwrap();
        let rhs = schema.attr("MED").unwrap();
        ev.observe_agree(x, rhs);
        ev.observe_agree(x, rhs);
        assert_eq!(ev.len(), 1);
        assert!(ev.refutes(schema.set(["CC"]).unwrap(), rhs));
        assert!(ev.refutes(x, rhs));
        assert!(!ev.refutes(schema.set(["CC", "TEST"]).unwrap(), rhs));
        assert!(!ev.refutes(x, schema.attr("CTRY").unwrap()));
    }

    #[test]
    fn kernel_equals_the_merge_when_signatures_collide() {
        // Overlay senses 128 and 256 apart from the real ones, so distinct
        // senses share signature bits: only the exact merge may decide.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let mut index = SenseIndex::synonym(&rel, &onto);
        for (i, (v, _)) in rel.pool().iter().enumerate() {
            index.add_sense(v, SenseId::from_index(128 + i % 7));
            if i % 3 == 0 {
                index.add_sense(v, SenseId::from_index(256 + i % 5));
            }
        }
        let kernel = PairKernel::new(&rel, &index);
        let (mut fast, mut naive) = (
            EvidenceSet::new(rel.n_attrs()),
            EvidenceSet::new(rel.n_attrs()),
        );
        all_pairs(&rel, |t1, t2| {
            kernel.observe(&mut fast, t1, t2);
            observe_naive(&mut naive, &rel, &index, t1, t2);
        });
        assert!(!naive.is_empty());
        assert_eq!(fast.pair_count(), naive.pair_count());
        assert_eq!(fast.per_rhs, naive.per_rhs, "identical witness lists");
    }

    #[test]
    fn keep_maximal_preserves_every_refutation() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let kernel = PairKernel::new(&rel, &index);
        let mut full = EvidenceSet::new(rel.n_attrs());
        all_pairs(&rel, |t1, t2| kernel.observe(&mut full, t1, t2));
        let mut maximal = full.clone();
        maximal.keep_maximal();
        assert!(
            maximal.len() < full.len(),
            "Table 1 has dominated witnesses"
        );
        assert_eq!(maximal.pair_count(), full.pair_count());
        assert_same_refutations(&full, &maximal, rel.n_attrs());
        for w in &maximal.per_rhs {
            for (i, &a) in w.iter().enumerate() {
                for (j, &b) in w.iter().enumerate() {
                    assert!(i == j || a & b != a, "kept {a:#b} inside {b:#b}");
                }
            }
        }
    }

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
                crate::schema::Schema::new(names.iter().map(String::as_str)).unwrap(),
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

        /// The signature-filtered kernel, its skip of witnessed consequents
        /// and the counting-sort schedule give the naive gather's pair
        /// count, its per-consequent witness lists in recording order and
        /// its refutation answers, both before and after the
        /// maximal-witness reduction.
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
            let (raw, _) = PairKernel::new(&rel, &index).gather(rounds, &ExecGuard::unlimited());
            let mut reduced = raw.clone();
            reduced.keep_maximal();
            let mut naive_reduced = naive.clone();
            naive_reduced.keep_maximal();
            prop_assert_eq!(raw.pair_count(), naive_pairs);
            prop_assert_eq!(reduced.pair_count(), naive_pairs);
            prop_assert_eq!(&raw.per_rhs, &naive.per_rhs);
            prop_assert_eq!(&reduced.per_rhs, &naive_reduced.per_rhs);
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
        // The soundness contract: any candidate the sample
        // refutes is refuted by exact validation over the full relation.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let (mut evidence, rounds_run) =
            PairKernel::new(&rel, &index).gather(4, &ExecGuard::unlimited());
        evidence.keep_maximal();
        assert_eq!(rounds_run, 4);
        assert!(!evidence.is_empty(), "Table 1 yields witnesses");
        let v = Validator::new(&rel, &onto);
        let schema = rel.schema();
        for a in schema.attrs() {
            for bits in 0..(1u64 << schema.len()) {
                let lhs = AttrSet::from_bits(bits);
                if lhs.contains(a) || !evidence.refutes(lhs, a) {
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
        let kernel = PairKernel::new(&rel, &index);
        let (a, _) = kernel.gather(3, &ExecGuard::unlimited());
        let (b, _) = kernel.gather(3, &ExecGuard::unlimited());
        assert_eq!(a.per_rhs, b.per_rhs);
        assert_eq!(a.pair_count(), b.pair_count());
        // A pre-tripped guard stops before any pair is examined.
        let tripped = ExecGuard::unlimited();
        tripped.cancel();
        let (c, rounds_run) = kernel.gather(3, &tripped);
        assert_eq!(rounds_run, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn degenerate_inputs_produce_no_evidence() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let kernel = PairKernel::new(&rel, &index);
        let (none, rounds_run) = kernel.gather(0, &ExecGuard::unlimited());
        assert_eq!(rounds_run, 0);
        assert!(none.is_empty());
        // Distances beyond the relation size terminate cleanly.
        let (_, far) = kernel.gather(10_000, &ExecGuard::unlimited());
        assert_eq!(far, rel.n_rows() as u64 - 1);
    }
}
