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
//! Discovery gathers evidence from focused row samples and consults it
//! before paying for a full-relation scan; see
//! `ofd-discovery`'s sampling module for the gathering policy.

use crate::fxhash::FxHashMap;
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
        let mut fresh = incompat & !*seen;
        *seen |= incompat;
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

/// The tuple-pair routine of one evidence gather. Built once per gather:
/// it holds the relation's cells row by row (a pair then reads two short
/// rows instead of one cell in every column) and a 128-bit *sense
/// signature* per interned value: bit `s % 128` set for every sense `s`, 0
/// for a value with no sense.
///
/// Two distinct values whose signatures do not intersect share no sense (a
/// common sense would set a common bit), so they are incompatible with no
/// merge. Intersecting signatures are only a necessary condition for a
/// shared sense — senses 128 apart collide — so the exact sorted merge of
/// the two sense lists decides those.
#[derive(Debug)]
pub struct PairKernel<'a> {
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
    #[inline]
    pub fn observe(&self, ev: &mut EvidenceSet, t1: usize, t2: usize) {
        let w = self.width;
        let (r1, r2) = (&self.rows[t1 * w..][..w], &self.rows[t2 * w..][..w]);
        let mut agree = 0u64;
        for (a, (v1, v2)) in r1.iter().zip(r2).enumerate() {
            agree |= u64::from(v1 == v2) << a;
        }
        let differ = self.all & !agree;
        let mut incompat = differ & !self.sensed;
        let mut check = differ & self.sensed;
        while check != 0 {
            let a = check.trailing_zeros() as usize;
            check &= check - 1;
            let (v1, v2) = (r1[a], r2[a]);
            if self.signatures[v1.index()] & self.signatures[v2.index()] == 0
                || !shares_sense(self.index.senses(v1), self.index.senses(v2))
            {
                incompat |= 1 << a;
            }
        }
        if incompat != 0 {
            ev.pairs += 1;
            ev.record(agree, incompat);
        }
    }
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
    use crate::relation::table1;
    use ofd_ontology::{samples, SenseId};

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
}
