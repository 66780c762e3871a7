//! OFD verification over equivalence classes (Definition 2.1, §4.3).
//!
//! Unlike traditional FDs, OFDs cannot be verified pairwise: every
//! equivalence class of the antecedent partition must have a *common*
//! interpretation across all its consequent values (the Table 2
//! counterexample: pairwise-common classes whose global intersection is
//! empty). Verification scans the stripped partition once, maintaining
//! sense frequencies per class — linear in the number of tuples, as the
//! paper's complexity analysis requires. One per-class routine on
//! [`VerifyScratch`] decides every class: [`Validator`] asks it for each
//! class's cover and witness, discovery's [`covered_within`] only for the
//! uncovered tuples within a support budget, and
//! [`crate::IncrementalChecker`] feeds it the value counts it maintains.

use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::HashMap;

use crate::fxhash::FxHashMap;

use ofd_ontology::{Ontology, SenseId};

use crate::ofd::{Fd, Ofd, OfdKind};
use crate::partition::StrippedPartition;
use crate::relation::Relation;
use crate::sense_index::SenseIndex;
use crate::value::ValueId;

/// The interpretation that covers (part of) an equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Witness {
    /// A sense under which the covered values are synonyms.
    Sense(SenseId),
    /// Syntactic equality: the covered tuples all carry this literal value
    /// (the FD fast path / Opt-4; also values unknown to the ontology).
    Literal(ValueId),
}

/// Verification outcome for one (non-singleton) equivalence class.
#[derive(Debug, Clone)]
pub struct ClassOutcome {
    /// Position of the class in the stripped partition.
    pub class_index: usize,
    /// Smallest tuple id in the class (its representative).
    pub representative: u32,
    /// Number of tuples in the class.
    pub size: usize,
    /// Maximum number of tuples consistent under a single interpretation.
    pub covered: usize,
    /// The interpretation achieving `covered`.
    pub witness: Option<Witness>,
}

impl ClassOutcome {
    /// Whether the whole class is consistent under one interpretation.
    #[inline]
    pub fn satisfied(&self) -> bool {
        self.covered == self.size
    }
}

/// Result of checking one OFD over a relation.
#[derive(Debug, Clone)]
pub struct Validation {
    /// The dependency checked.
    pub ofd: Ofd,
    /// Relation size (for support computation).
    pub n_rows: usize,
    /// Per-class outcomes over the stripped antecedent partition.
    pub outcomes: Vec<ClassOutcome>,
    /// Tuples consistent under the per-class best interpretations, counting
    /// stripped-away singleton tuples as trivially consistent.
    pub covered_tuples: usize,
}

impl Validation {
    /// Whether the OFD holds exactly (`I ⊨ φ`).
    pub fn satisfied(&self) -> bool {
        self.outcomes.iter().all(ClassOutcome::satisfied)
    }

    /// Support `s(φ)`: the fraction of tuples in a maximum satisfying
    /// sub-relation (used by κ-approximate discovery).
    pub fn support(&self) -> f64 {
        if self.n_rows == 0 {
            1.0
        } else {
            self.covered_tuples as f64 / self.n_rows as f64
        }
    }

    /// Tuples left uncovered by the per-class best interpretations — the
    /// integer numerator of `1 − support()`.
    pub fn violating_tuples(&self) -> usize {
        self.n_rows - self.covered_tuples
    }

    /// Whether the OFD meets support κ, decided by the shared exact integer
    /// comparison [`crate::support::meets_support`] (never by the f64
    /// [`support`](Validation::support), which is for display only).
    pub fn meets_support(&self, kappa: f64) -> bool {
        crate::support::meets_support(self.violating_tuples(), self.n_rows, kappa)
    }

    /// Classes violating the OFD.
    pub fn violations(&self) -> impl Iterator<Item = &ClassOutcome> {
        self.outcomes.iter().filter(|o| !o.satisfied())
    }

    /// Number of violating classes.
    pub fn violation_count(&self) -> usize {
        self.violations().count()
    }
}

/// Verifies OFDs and FDs against one relation and ontology.
///
/// The synonym-mode [`SenseIndex`] is built eagerly or borrowed
/// ([`Validator::with_index`]); inheritance-mode indexes are built per `θ`
/// on first use and cached. Every check counts through one
/// [`VerifyScratch`].
#[derive(Debug)]
pub struct Validator<'a> {
    rel: &'a Relation,
    onto: &'a Ontology,
    syn_index: Cow<'a, SenseIndex>,
    inh_indexes: RefCell<HashMap<usize, SenseIndex>>,
    scratch: RefCell<VerifyScratch>,
}

impl<'a> Validator<'a> {
    /// Creates a validator for `rel` against `onto`.
    pub fn new(rel: &'a Relation, onto: &'a Ontology) -> Validator<'a> {
        Validator::build(rel, onto, Cow::Owned(SenseIndex::synonym(rel, onto)))
    }

    /// A validator that borrows `index`, which must be
    /// [`SenseIndex::synonym`] of `rel` and `onto`: a caller that validates
    /// one immutable instance many times builds it once.
    pub fn with_index(
        rel: &'a Relation,
        onto: &'a Ontology,
        index: &'a SenseIndex,
    ) -> Validator<'a> {
        Validator::build(rel, onto, Cow::Borrowed(index))
    }

    fn build(
        rel: &'a Relation,
        onto: &'a Ontology,
        syn_index: Cow<'a, SenseIndex>,
    ) -> Validator<'a> {
        Validator {
            rel,
            onto,
            syn_index,
            inh_indexes: RefCell::new(HashMap::new()),
            scratch: RefCell::new(VerifyScratch::default()),
        }
    }

    /// The relation under validation.
    pub fn relation(&self) -> &Relation {
        self.rel
    }

    /// The synonym-mode sense index.
    pub fn sense_index(&self) -> &SenseIndex {
        &self.syn_index
    }

    /// Checks an OFD, computing the antecedent partition from scratch.
    pub fn check(&self, ofd: &Ofd) -> Validation {
        let sp = StrippedPartition::of(self.rel, ofd.lhs);
        self.check_with_partition(ofd, &sp)
    }

    /// Checks an OFD against a precomputed stripped antecedent partition
    /// (the discovery lattice reuses partition products).
    pub fn check_with_partition(&self, ofd: &Ofd, partition: &StrippedPartition) -> Validation {
        match ofd.kind {
            OfdKind::Synonym => self.run(ofd, partition, &self.syn_index),
            OfdKind::Inheritance { theta } => {
                let mut cache = self.inh_indexes.borrow_mut();
                let index = cache
                    .entry(theta)
                    .or_insert_with(|| SenseIndex::inheritance(self.rel, self.onto, theta));
                self.run(ofd, partition, index)
            }
        }
    }

    /// Checks a plain FD (syntactic equality only) against a precomputed
    /// partition.
    pub fn check_fd_with_partition(&self, fd: &Fd, partition: &StrippedPartition) -> bool {
        let col = self.rel.column(fd.rhs);
        partition.classes().all(|class| {
            let first = col[class[0] as usize];
            class.iter().all(|&t| col[t as usize] == first)
        })
    }

    /// Checks a plain FD, computing the partition.
    pub fn check_fd(&self, fd: &Fd) -> bool {
        let sp = StrippedPartition::of(self.rel, fd.lhs);
        self.check_fd_with_partition(fd, &sp)
    }

    /// Every class's cover and witness; the index's construction mode
    /// (synonym vs inheritance) determines the semantics.
    fn run(&self, ofd: &Ofd, partition: &StrippedPartition, index: &SenseIndex) -> Validation {
        let col = self.rel.column(ofd.rhs);
        let mut scratch = self.scratch.borrow_mut();
        scratch.prepare(self.rel);
        let outcomes: Vec<ClassOutcome> = partition
            .classes()
            .enumerate()
            .map(|(class_index, class)| {
                let (covered, witness) = scratch
                    .class_cover::<true>(class, col, index, usize::MAX)
                    .expect("a nonzero budget always yields a count");
                ClassOutcome {
                    class_index,
                    representative: class.first().copied().unwrap_or(0),
                    size: class.len(),
                    covered: covered as usize,
                    witness,
                }
            })
            .collect();
        let stripped = self.rel.n_rows() - partition.tuple_count();
        Validation {
            ofd: *ofd,
            n_rows: self.rel.n_rows(),
            covered_tuples: stripped + outcomes.iter().map(|o| o.covered).sum::<usize>(),
            outcomes,
        }
    }
}

/// Estimates an OFD's support from a uniform tuple sample — exploratory
/// profiling for instances too large for exact verification. The estimate
/// converges to [`Validation::support`] as `sample_size → n` (property
/// tested); at `sample_size ≥ n` it is exact. An empty sample (or an empty
/// relation) has nothing to refute and estimates 1.0.
pub fn estimate_support(
    rel: &Relation,
    index: &SenseIndex,
    ofd: &Ofd,
    sample_size: usize,
    seed: u64,
) -> f64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let n = rel.n_rows();
    let m = sample_size.min(n);
    if m == 0 {
        return 1.0;
    }
    // Deterministic pseudo-random sample without replacement: rank rows by
    // a seeded hash and keep the smallest `m`.
    let mut ranked: Vec<(u64, u32)> = (0..n as u32)
        .map(|t| {
            let mut h = DefaultHasher::new();
            (seed, t).hash(&mut h);
            (h.finish(), t)
        })
        .collect();
    ranked.select_nth_unstable(m - 1);
    let mut groups: FxHashMap<Vec<ValueId>, Vec<u32>> = FxHashMap::default();
    for &(_, t) in &ranked[..m] {
        let key: Vec<ValueId> = ofd.lhs.iter().map(|a| rel.value(t as usize, a)).collect();
        groups.entry(key).or_default().push(t);
    }
    // The sample's antecedent partition; `covered_within` counts every row
    // outside it as covered, so the sample's uncovered tuples are
    // `n − covered`.
    let sample = StrippedPartition::from_classes(n, groups.into_values());
    let covered = covered_within(rel, index, ofd, &sample, n, &mut VerifyScratch::default())
        .expect("budget n is never exceeded");
    (m - (n - covered)) as f64 / m as f64
}

/// Dense counters of the one per-class cover routine, in the
/// [`crate::ProductScratch`] idiom: value counts indexed by [`ValueId`]
/// (grown to the relation's pool), sense counts indexed by [`SenseId`]
/// (grown on demand), and touched lists so that only the entries a class
/// used are reset. One scratch serves one thread; its footprint is one
/// `u32` per interned value plus one per sense seen.
#[derive(Debug, Default)]
pub struct VerifyScratch {
    value_counts: Vec<u32>,
    touched_values: Vec<ValueId>,
    senses: SenseCounts,
}

/// The sense half of a [`VerifyScratch`].
#[derive(Debug, Default)]
struct SenseCounts {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

/// One class's best interpretation: the tuples it covers and, when the
/// caller asks for it, the witness.
type Cover = (u32, Option<Witness>);

impl VerifyScratch {
    /// Zeroes every touched counter and sizes the value counts to `rel`'s
    /// pool. Every nonzero counter is on a touched list (it is pushed
    /// before it is incremented), so this restores the all-zero invariant
    /// even after an unwind mid-class; on a clean scratch it is a no-op.
    fn prepare(&mut self, rel: &Relation) {
        for &v in &self.touched_values {
            self.value_counts[v.index()] = 0;
        }
        self.touched_values.clear();
        self.senses.reset();
        if self.value_counts.len() < rel.pool().len() {
            self.value_counts.resize(rel.pool().len(), 0);
        }
    }

    /// The cover of one class, whose consequent values are read from
    /// `col`; `None` when the class has an uncovered tuple and
    /// `budget_left` is 0. Leaves the scratch zeroed.
    fn class_cover<const WITNESS: bool>(
        &mut self,
        class: &[u32],
        col: &[ValueId],
        index: &SenseIndex,
        budget_left: usize,
    ) -> Option<Cover> {
        // The Opt-4 equality pass: one distinct consequent value covers the
        // class. Checked before counting, which a mixed class abandons at
        // its first differing tuple. An empty class (possible only through
        // a degenerate caller) covers and violates nothing.
        let Some(&head) = class.first() else {
            return Some((0, None));
        };
        let first = col[head as usize];
        if class.iter().all(|&t| col[t as usize] == first) {
            let witness = WITNESS.then_some(Witness::Literal(first));
            return Some((class.len() as u32, witness));
        }
        let VerifyScratch {
            value_counts,
            touched_values,
            senses,
        } = self;
        for &t in class {
            let v = col[t as usize];
            if value_counts[v.index()] == 0 {
                touched_values.push(v);
            }
            value_counts[v.index()] += 1;
        }
        let counts = touched_values.iter().map(|&v| (v, value_counts[v.index()]));
        let cover = senses.cover::<WITNESS>(counts, class.len() as u32, index, budget_left);
        for &v in touched_values.iter() {
            value_counts[v.index()] = 0;
        }
        touched_values.clear();
        cover
    }

    /// Whether one interpretation covers a whole class of `size` tuples
    /// whose distinct consequent values have the counts `counts`: the
    /// budget-0 routine of [`covered_within`], fed the counts that
    /// [`crate::IncrementalChecker`] maintains.
    pub(crate) fn covers(
        &mut self,
        counts: &FxHashMap<ValueId, u32>,
        size: u32,
        index: &SenseIndex,
    ) -> bool {
        if counts.len() <= 1 {
            return true; // the Opt-4 equality pass
        }
        let counts = counts.iter().map(|(&v, &c)| (v, c));
        self.senses.cover::<false>(counts, size, index, 0).is_some()
    }
}

impl SenseCounts {
    fn reset(&mut self) {
        for &s in &self.touched {
            self.counts[s as usize] = 0;
        }
        self.touched.clear();
    }

    /// The sense-count step over a class of `size` tuples with at least
    /// two distinct consequent values, each given once with its count:
    ///
    /// - the literal cover is the largest count; ties go to the smaller
    ///   [`ValueId`];
    /// - at budget 0, a value with no sense leaves a tuple uncovered, so
    ///   the step gives `None`;
    /// - a sense covers the tuples of every value it contains; ties go to
    ///   the smaller [`SenseId`]. When no witness is asked, a sense that
    ///   reaches `size` ends the count (`>=`: a duplicated sense id may
    ///   count a tuple twice, which is also why covers are capped at
    ///   `size`);
    /// - the witness is the sense when it covers at least as many tuples
    ///   as the literal, the literal otherwise.
    ///
    /// Leaves the sense counts zeroed.
    fn cover<const WITNESS: bool>(
        &mut self,
        values: impl Iterator<Item = (ValueId, u32)>,
        size: u32,
        index: &SenseIndex,
        budget_left: usize,
    ) -> Option<Cover> {
        let SenseCounts { counts, touched } = self;
        let (mut best_literal, mut literal) = (0u32, ValueId::from_index(0));
        let (mut best_sense, mut sense) = (0u32, SenseId::from_index(0));
        let cover = 'class: {
            for (v, count) in values {
                if WITNESS && (count, Reverse(v)) > (best_literal, Reverse(literal)) {
                    literal = v;
                }
                best_literal = best_literal.max(count);
                let senses = index.senses(v);
                if senses.is_empty() && budget_left == 0 {
                    break 'class None;
                }
                for &s in senses {
                    let i = s.index();
                    if i >= counts.len() {
                        counts.resize(i + 1, 0);
                    }
                    if counts[i] == 0 {
                        touched.push(i as u32);
                    }
                    counts[i] += count;
                    if WITNESS && (counts[i], Reverse(s)) > (best_sense, Reverse(sense)) {
                        sense = s;
                    }
                    best_sense = best_sense.max(counts[i]);
                }
                if !WITNESS && best_sense >= size {
                    break 'class Some((size, None));
                }
            }
            let covered = best_sense.max(best_literal).min(size);
            let witness = if best_sense >= best_literal {
                Witness::Sense(sense)
            } else {
                Witness::Literal(literal)
            };
            (covered == size || budget_left > 0).then_some((covered, WITNESS.then_some(witness)))
        };
        self.reset();
        cover
    }
}

/// The budgeted support kernel of discovery: the number of tuples covered
/// by the per-class best interpretations, or `None` as soon as more than
/// `max_uncovered` tuples are uncovered.
///
/// `Some(c)` is returned exactly when the OFD's violating tuples are at
/// most `max_uncovered`, and then `c` equals
/// [`Validation::covered_tuples`]. A budget of 0 is the exact check
/// (κ = 1); a budget of `n − ceil(κ·n)` decides support κ. No
/// [`Validation`] or per-class vector is built. The index's construction
/// mode (synonym vs inheritance) determines the semantics; `ofd.kind` is
/// not consulted.
pub fn covered_within(
    rel: &Relation,
    index: &SenseIndex,
    ofd: &Ofd,
    partition: &StrippedPartition,
    max_uncovered: usize,
    scratch: &mut VerifyScratch,
) -> Option<usize> {
    let col = rel.column(ofd.rhs);
    scratch.prepare(rel);
    let mut uncovered = 0usize;
    for class in partition.classes() {
        let (covered, _) =
            scratch.class_cover::<false>(class, col, index, max_uncovered - uncovered)?;
        uncovered += class.len() - covered as usize;
        if uncovered > max_uncovered {
            return None;
        }
    }
    Some(rel.n_rows() - uncovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{table1, table1_updated};
    use ofd_ontology::{samples, OntologyBuilder};
    use proptest::prelude::*;

    #[test]
    fn f1_cc_to_ctry_fails_as_fd_but_holds_as_synonym_ofd() {
        // Example 1.1 / 2.2.
        let rel = table1();
        let onto = samples::country_ontology();
        let v = Validator::new(&rel, &onto);
        let fd = Fd::new(
            rel.schema().set(["CC"]).unwrap(),
            rel.schema().attr("CTRY").unwrap(),
        );
        assert!(!v.check_fd(&fd), "USA/America/Bharat break the plain FD");
        let ofd = Ofd::synonym_named(rel.schema(), &["CC"], "CTRY").unwrap();
        let val = v.check(&ofd);
        assert!(val.satisfied(), "synonyms rescue the dependency");
        assert_eq!(val.support(), 1.0);
        assert_eq!(val.violation_count(), 0);
    }

    #[test]
    fn f2_symp_diag_to_med_is_inheritance_not_synonym() {
        // Example 1.1: tylenol is-a acetaminophen is-a analgesic, so the
        // nausea class only resolves under inheritance semantics.
        let rel = table1();
        let onto = samples::medical_drug_ontology();
        let v = Validator::new(&rel, &onto);
        let syn = Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap();
        let val = v.check(&syn);
        assert!(!val.satisfied());
        assert_eq!(val.violation_count(), 1, "only the nausea class violates");
        let inh = Ofd::inheritance(syn.lhs, syn.rhs, 1);
        assert!(v.check(&inh).satisfied(), "θ=1 resolves via analgesic");
    }

    #[test]
    fn example_1_2_updates_break_the_headache_class() {
        let rel = table1_updated();
        let onto = samples::medical_drug_ontology();
        let v = Validator::new(&rel, &onto);
        let syn = Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap();
        let val = v.check(&syn);
        let headache = val
            .violations()
            .find(|o| o.representative == 7)
            .expect("headache class violates");
        assert_eq!(headache.size, 4);
        // Best covers: FDA diltiazem {cartia, tiazac} or MoH {cartia, ASA}.
        assert_eq!(headache.covered, 2);
    }

    #[test]
    fn table2_pairwise_common_but_empty_intersection() {
        // The defining example: every pair of Y-values shares a class, yet
        // no single class covers all three, so the OFD fails.
        let rel = Relation::from_rows(
            ["X", "Y"],
            [
                &["u", "v"] as &[&str],
                &["u", "w"],
                &["u", "z"],
            ],
        )
        .unwrap();
        let mut b = OntologyBuilder::new();
        b.concept("C").synonyms(["v", "z"]).build().unwrap();
        b.concept("D").synonyms(["v", "w"]).build().unwrap();
        b.concept("F").synonyms(["w", "z"]).build().unwrap();
        b.concept("G").synonyms(["z"]).build().unwrap();
        let onto = b.finish().unwrap();
        // Pairwise: every pair has a common sense.
        for (a, c) in [("v", "w"), ("v", "z"), ("w", "z")] {
            assert!(!onto.common_sense([a, c]).is_empty(), "{a},{c}");
        }
        let v = Validator::new(&rel, &onto);
        let ofd = Ofd::synonym_named(rel.schema(), &["X"], "Y").unwrap();
        let val = v.check(&ofd);
        assert!(!val.satisfied());
        // Best sense covers exactly 2 of the 3 tuples.
        assert_eq!(val.outcomes[0].covered, 2);
        assert!((val.support() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn support_counts_singletons_as_satisfied() {
        let rel = table1_updated();
        let onto = samples::medical_drug_ontology();
        let v = Validator::new(&rel, &onto);
        let syn = Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap();
        let val = v.check(&syn);
        // Classes: joint-pain (3, NSAID ✓), nausea (3, best 2 — tylenol and
        // acetaminophen share the acetaminophen sense but analgesic is only
        // an is-a ancestor), chest-pain (singleton, stripped), headache
        // (4, best 2).
        assert_eq!(val.covered_tuples, 1 + 3 + 2 + 2);
        assert!((val.support() - 8.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn meets_support_uses_exact_integer_arithmetic() {
        // Continuation of the case above: 8 of 11 tuples covered.
        let rel = table1_updated();
        let onto = samples::medical_drug_ontology();
        let v = Validator::new(&rel, &onto);
        let syn = Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap();
        let val = v.check(&syn);
        assert_eq!(val.violating_tuples(), 3);
        // Exactly at the boundary: ceil(8/11 · 11) = 8 ≤ 8.
        assert!(val.meets_support(8.0 / 11.0));
        // Just above it: ceil(0.75 · 11) = 9 > 8.
        assert!(!val.meets_support(0.75));
        assert!(!val.meets_support(1.0));
        assert!(val.meets_support(0.5));
    }

    #[test]
    fn empty_ontology_reduces_ofd_to_fd() {
        let rel = table1();
        let onto = ofd_ontology::Ontology::empty();
        let v = Validator::new(&rel, &onto);
        for lhs in [["CC"], ["SYMP"], ["TEST"]] {
            for rhs in ["CTRY", "DIAG", "MED"] {
                let ofd = Ofd::synonym_named(rel.schema(), &[lhs[0]], rhs).unwrap();
                let fd = ofd.as_fd();
                assert_eq!(
                    v.check(&ofd).satisfied(),
                    v.check_fd(&fd),
                    "{}",
                    ofd.display(rel.schema())
                );
            }
        }
    }

    #[test]
    fn trivial_ofd_always_holds() {
        let rel = table1();
        let onto = samples::medical_drug_ontology();
        let v = Validator::new(&rel, &onto);
        let schema = rel.schema();
        let ofd = Ofd::synonym(
            schema.set(["MED", "CC"]).unwrap(),
            schema.attr("MED").unwrap(),
        );
        assert!(ofd.is_trivial());
        assert!(v.check(&ofd).satisfied());
    }

    #[test]
    fn superkey_antecedent_always_satisfied() {
        // Opt-3: if X is a key, the stripped partition is empty and any
        // X → A holds vacuously.
        let rel = Relation::from_rows(
            ["ID", "B"],
            [&["1", "x"] as &[&str], &["2", "y"], &["3", "x"]],
        )
        .unwrap();
        let onto = ofd_ontology::Ontology::empty();
        let v = Validator::new(&rel, &onto);
        let ofd = Ofd::synonym_named(rel.schema(), &["ID"], "B").unwrap();
        let val = v.check(&ofd);
        assert!(val.satisfied());
        assert!(val.outcomes.is_empty(), "no non-singleton classes");
        assert_eq!(val.support(), 1.0);
    }

    #[test]
    fn witness_reports_the_covering_sense() {
        let rel = table1();
        let onto = samples::medical_drug_ontology();
        let v = Validator::new(&rel, &onto);
        let ofd = Ofd::synonym_named(rel.schema(), &["DIAG"], "MED").unwrap();
        let val = v.check(&ofd);
        let joint = val
            .outcomes
            .iter()
            .find(|o| o.representative == 0)
            .expect("osteoarthritis class");
        match joint.witness {
            Some(Witness::Sense(s)) => {
                assert_eq!(onto.concept(s).unwrap().label(), "NSAID");
            }
            other => panic!("expected a sense witness, got {other:?}"),
        }
    }

    #[test]
    fn sampled_support_converges_to_exact() {
        use crate::sense_index::SenseIndex;
        use crate::validate::estimate_support;
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let ofd = Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap();
        let exact = Validator::new(&rel, &onto).check(&ofd).support();
        // Full-sample estimate is exact.
        assert!((estimate_support(&rel, &index, &ofd, rel.n_rows(), 1) - exact).abs() < 1e-12);
        assert!(
            (estimate_support(&rel, &index, &ofd, 10 * rel.n_rows(), 1) - exact).abs() < 1e-12
        );
        // Sub-samples stay in [0, 1] and are seed-deterministic.
        for size in [2usize, 5, 8] {
            let a = estimate_support(&rel, &index, &ofd, size, 7);
            let b = estimate_support(&rel, &index, &ofd, size, 7);
            assert_eq!(a, b);
            assert!((0.0..=1.0).contains(&a));
        }
        // An empty sample has nothing to refute.
        assert_eq!(estimate_support(&rel, &index, &ofd, 0, 1), 1.0);
        // Empty relation edge case.
        let empty = Relation::from_rows(["A", "B"], std::iter::empty::<&[&str]>()).unwrap();
        let eidx = SenseIndex::synonym(&empty, &onto);
        let eofd = Ofd::synonym_named(empty.schema(), &["A"], "B").unwrap();
        assert_eq!(estimate_support(&empty, &eidx, &eofd, 5, 1), 1.0);
    }

    #[test]
    fn sampled_support_is_statistically_close_on_larger_data() {
        use crate::sense_index::SenseIndex;
        use crate::validate::estimate_support;
        // Build a 400-row relation with a known ~75% support dependency.
        let mut b = crate::relation::Relation::builder(
            crate::schema::Schema::new(["X", "Y"]).unwrap(),
        );
        for i in 0..400 {
            let x = format!("x{}", i % 20);
            let y = if i % 4 == 0 { "bad".to_owned() } else { format!("y{}", i % 20) };
            b.push_row([x.as_str(), y.as_str()]).unwrap();
        }
        let rel = b.finish();
        let onto = ofd_ontology::Ontology::empty();
        let index = SenseIndex::synonym(&rel, &onto);
        let ofd = Ofd::synonym_named(rel.schema(), &["X"], "Y").unwrap();
        let exact = Validator::new(&rel, &onto).check(&ofd).support();
        let est = estimate_support(&rel, &index, &ofd, 200, 3);
        assert!(
            (est - exact).abs() < 0.15,
            "estimate {est} too far from exact {exact}"
        );
    }

    #[test]
    fn exact_early_exit_matches_full_validation() {
        use crate::partition::StrippedPartition;
        use crate::sense_index::SenseIndex;
        let rel = table1_updated();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let v = Validator::new(&rel, &onto);
        let mut scratch = VerifyScratch::default();
        let n = rel.schema().len();
        for bits in 0..(1u64 << n) {
            let lhs = crate::schema::AttrSet::from_bits(bits);
            for a in rel.schema().attrs() {
                if lhs.contains(a) {
                    continue;
                }
                let ofd = Ofd::synonym(lhs, a);
                let sp = StrippedPartition::of(&rel, lhs);
                assert_eq!(
                    covered_within(&rel, &index, &ofd, &sp, 0, &mut scratch).is_some(),
                    v.check_with_partition(&ofd, &sp).satisfied(),
                    "{}",
                    ofd.display(rel.schema())
                );
            }
        }
    }

    #[test]
    fn budgeted_kernel_ignores_a_dirty_scratch() {
        // One class {p, q, q}: `q` covers 2 tuples literally, sense S only
        // `p`. Counters left behind by an unwind mid-class (every nonzero
        // counter on a touched list) would make S cover the whole class;
        // the kernel resets them on entry.
        let rel = Relation::from_rows(
            ["X", "Y"],
            [&["a", "p"] as &[&str], &["a", "q"], &["a", "q"]],
        )
        .unwrap();
        let mut b = OntologyBuilder::new();
        b.concept("S").synonyms(["p"]).build().unwrap();
        let onto = b.finish().unwrap();
        let index = SenseIndex::synonym(&rel, &onto);
        let ofd = Ofd::synonym_named(rel.schema(), &["X"], "Y").unwrap();
        let sp = StrippedPartition::of(&rel, ofd.lhs);
        let dirty = || VerifyScratch {
            value_counts: vec![3; rel.pool().len()],
            touched_values: (0..rel.pool().len()).map(ValueId::from_index).collect(),
            senses: SenseCounts {
                counts: vec![5; onto.len()],
                touched: (0..onto.len() as u32).collect(),
            },
        };
        let kernel = |budget| covered_within(&rel, &index, &ofd, &sp, budget, &mut dirty());
        assert_eq!(kernel(1), Some(2));
        assert_eq!(kernel(0), None);
    }

    /// Random relations over `v0..v5` and an ontology of up to three
    /// concepts, each optionally the child of an earlier one, so a value
    /// lies in up to three senses (more under inheritance).
    fn arb_instance() -> impl Strategy<Value = (Relation, Ontology)> {
        let rows = prop::collection::vec(prop::collection::vec(0u8..6, 3), 1..12);
        let concepts = prop::collection::vec(
            // (synonyms, parent choice: 0 = a root, k = the k-th earlier)
            (prop::collection::vec(0u8..6, 1..4), 0usize..4),
            0..4,
        );
        (rows, concepts).prop_map(|(rows, concepts)| {
            let mut b = Relation::builder(crate::schema::Schema::new(["A", "B", "C"]).unwrap());
            for row in &rows {
                let cells: Vec<String> = row.iter().map(|v| format!("v{v}")).collect();
                b.push_row(cells.iter().map(String::as_str)).unwrap();
            }
            let mut ob = OntologyBuilder::new();
            let mut ids = Vec::new();
            for (ci, (values, parent)) in concepts.iter().enumerate() {
                let mut values: Vec<String> = values.iter().map(|v| format!("v{v}")).collect();
                values.sort();
                values.dedup();
                let mut c = ob.concept(format!("c{ci}")).synonyms(values);
                if let Some(&p) = ids.get(parent.wrapping_sub(1)) {
                    c = c.parent(p);
                }
                ids.push(c.build().unwrap());
            }
            (b.finish(), ob.finish().unwrap())
        })
    }

    /// The naive reference for one class: every candidate value and sense
    /// counted from scratch over the class's tuples, the best by count with
    /// ties to the smaller id, and a sense preferred to a literal it
    /// matches. One distinct value is its own witness (Opt-4).
    fn naive_cover(class: &[u32], col: &[ValueId], index: &SenseIndex) -> (usize, Witness) {
        use std::cmp::Reverse;
        let count =
            |hit: &dyn Fn(ValueId) -> bool| class.iter().filter(|&&t| hit(col[t as usize])).count();
        let mut values: Vec<ValueId> = class.iter().map(|&t| col[t as usize]).collect();
        values.sort_unstable();
        values.dedup();
        if let [only] = values[..] {
            return (class.len(), Witness::Literal(only));
        }
        let (lit_count, literal) = values
            .iter()
            .map(|&v| (count(&|w| w == v), v))
            .max_by_key(|&(c, v)| (c, Reverse(v)))
            .expect("a class has a value");
        let mut senses: Vec<SenseId> = values
            .iter()
            .flat_map(|&v| index.senses(v).to_vec())
            .collect();
        senses.sort_unstable();
        senses.dedup();
        let best_sense = senses
            .iter()
            .map(|&s| (count(&|w| index.in_sense(w, s)), s))
            .max_by_key(|&(c, s)| (c, Reverse(s)));
        match best_sense {
            Some((c, s)) if c >= lit_count => (c, Witness::Sense(s)),
            _ => (lit_count, Witness::Literal(literal)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one cover routine against the naive reference, under
        /// synonym and θ = 1 inheritance semantics, for every antecedent
        /// and consequent: `Validator`'s per-class cover and witness, the
        /// streaming checker's counts-fed entry, and `covered_within` at
        /// every budget — `Some(covered)` iff the uncovered tuples fit it.
        /// One scratch is reused across every call, so failing candidates
        /// precede passing ones on it; a fresh scratch must agree.
        #[test]
        fn kernel_matches_naive_reference((rel, onto) in arb_instance()) {
            let n = rel.n_rows();
            let validator = Validator::new(&rel, &onto);
            let mut shared = VerifyScratch::default();
            for theta in [None, Some(1)] {
                let index = match theta {
                    None => SenseIndex::synonym(&rel, &onto),
                    Some(t) => SenseIndex::inheritance(&rel, &onto, t),
                };
                for bits in 0..(1u64 << rel.schema().len()) {
                    let lhs = crate::schema::AttrSet::from_bits(bits);
                    let sp = StrippedPartition::of(&rel, lhs);
                    for a in rel.schema().attrs().filter(|&a| !lhs.contains(a)) {
                        let ofd = match theta {
                            None => Ofd::synonym(lhs, a),
                            Some(t) => Ofd::inheritance(lhs, a, t),
                        };
                        let col = rel.column(a);
                        let v = validator.check_with_partition(&ofd, &sp);
                        prop_assert_eq!(v.outcomes.len(), sp.class_count());
                        let mut covered = n - sp.tuple_count();
                        for (class, outcome) in sp.classes().zip(&v.outcomes) {
                            let (c, w) = naive_cover(class, col, &index);
                            prop_assert_eq!((outcome.covered, outcome.witness), (c, Some(w)));
                            let mut counts: FxHashMap<ValueId, u32> = FxHashMap::default();
                            for &t in class {
                                *counts.entry(col[t as usize]).or_insert(0) += 1;
                            }
                            let whole = shared.covers(&counts, class.len() as u32, &index);
                            prop_assert_eq!(whole, c == class.len());
                            covered += c;
                        }
                        prop_assert_eq!(v.covered_tuples, covered);
                        for budget in 0..=n {
                            let expect = (n - covered <= budget).then_some(covered);
                            let got = covered_within(&rel, &index, &ofd, &sp, budget, &mut shared);
                            let fresh = covered_within(
                                &rel, &index, &ofd, &sp, budget, &mut VerifyScratch::default(),
                            );
                            prop_assert_eq!(got, expect, "{} at budget {}", ofd.display(rel.schema()), budget);
                            prop_assert_eq!(fresh, expect);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fd_with_partition_matches_fd_check() {
        let rel = table1();
        let onto = ofd_ontology::Ontology::empty();
        let v = Validator::new(&rel, &onto);
        let lhs = rel.schema().set(["SYMP"]).unwrap();
        let sp = StrippedPartition::of(&rel, lhs);
        let fd = Fd::new(lhs, rel.schema().attr("DIAG").unwrap());
        assert_eq!(v.check_fd(&fd), v.check_fd_with_partition(&fd, &sp));
        assert!(v.check_fd(&fd), "SYMP -> DIAG holds in Table 1");
    }
}
