//! OFD verification over equivalence classes (Definition 2.1, §4.3).
//!
//! Unlike traditional FDs, OFDs cannot be verified pairwise: every
//! equivalence class of the antecedent partition must have a *common*
//! interpretation across all its consequent values (the Table 2
//! counterexample: pairwise-common classes whose global intersection is
//! empty). Verification scans the stripped partition once, maintaining
//! sense frequencies per class — linear in the number of tuples, as the
//! paper's complexity analysis requires. [`check_ofd_with_index`] reports
//! every class; discovery's [`covered_within`] only counts covered tuples,
//! in dense arrays, and stops once a support budget is lost.

use std::cell::RefCell;
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
/// The synonym-mode [`SenseIndex`] is built eagerly; inheritance-mode
/// indexes are built per `θ` on first use and cached.
#[derive(Debug)]
pub struct Validator<'a> {
    rel: &'a Relation,
    onto: &'a Ontology,
    syn_index: SenseIndex,
    inh_indexes: RefCell<HashMap<usize, SenseIndex>>,
}

impl<'a> Validator<'a> {
    /// Creates a validator for `rel` against `onto`.
    pub fn new(rel: &'a Relation, onto: &'a Ontology) -> Validator<'a> {
        Validator {
            rel,
            onto,
            syn_index: SenseIndex::synonym(rel, onto),
            inh_indexes: RefCell::new(HashMap::new()),
        }
    }

    /// Creates a validator with a caller-supplied synonym index (used by the
    /// cleaning algorithms to overlay candidate ontology repairs).
    pub fn with_index(rel: &'a Relation, onto: &'a Ontology, index: SenseIndex) -> Validator<'a> {
        Validator {
            rel,
            onto,
            syn_index: index,
            inh_indexes: RefCell::new(HashMap::new()),
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

    fn run(&self, ofd: &Ofd, partition: &StrippedPartition, index: &SenseIndex) -> Validation {
        check_ofd_with_index(self.rel, index, ofd, partition)
    }
}

/// Checks an OFD against a caller-supplied [`SenseIndex`] and precomputed
/// antecedent partition.
///
/// This is the thread-safe core of [`Validator::check_with_partition`]
/// (`Relation` and `SenseIndex` are `Sync`). Discovery, which needs only a
/// count, uses [`covered_within`] instead. The index's construction mode
/// (synonym vs inheritance) determines the semantics; the `ofd.kind` field
/// is not consulted.
pub fn check_ofd_with_index(
    rel: &Relation,
    index: &SenseIndex,
    ofd: &Ofd,
    partition: &StrippedPartition,
) -> Validation {
    let col = rel.column(ofd.rhs);
    let mut outcomes = Vec::with_capacity(partition.class_count());
    let mut covered_total = rel.n_rows() - partition.tuple_count();
    let mut value_counts: FxHashMap<ValueId, u32> = FxHashMap::default();
    let mut sense_counts: FxHashMap<SenseId, u32> = FxHashMap::default();
    for (class_index, class) in partition.classes().enumerate() {
        let outcome = class_outcome(
            class_index,
            class,
            col,
            index,
            &mut value_counts,
            &mut sense_counts,
        );
        covered_total += outcome.covered;
        outcomes.push(outcome);
    }
    Validation {
        ofd: *ofd,
        n_rows: rel.n_rows(),
        outcomes,
        covered_tuples: covered_total,
    }
}

/// Estimates an OFD's support from a uniform tuple sample — exploratory
/// profiling for instances too large for exact verification. The estimate
/// converges to [`Validation::support`] as `sample_size → n` (property
/// tested); at `sample_size ≥ n` it is exact.
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
    if n == 0 {
        return 1.0;
    }
    if sample_size >= n {
        let sp = StrippedPartition::of(rel, ofd.lhs);
        return check_ofd_with_index(rel, index, ofd, &sp).support();
    }
    // Deterministic pseudo-random sample without replacement: rank rows by
    // a seeded hash and keep the smallest `sample_size`.
    let mut ranked: Vec<(u64, u32)> = (0..n as u32)
        .map(|t| {
            let mut h = DefaultHasher::new();
            (seed, t).hash(&mut h);
            (h.finish(), t)
        })
        .collect();
    ranked.select_nth_unstable(sample_size - 1);
    let mut rows: Vec<u32> = ranked[..sample_size].iter().map(|&(_, t)| t).collect();
    rows.sort_unstable();

    // Build the sampled sub-relation's antecedent partition directly.
    let lhs: Vec<crate::schema::AttrId> = ofd.lhs.iter().collect();
    let mut groups: FxHashMap<Vec<ValueId>, Vec<u32>> = FxHashMap::default();
    for &t in &rows {
        let key: Vec<ValueId> = lhs.iter().map(|&a| rel.value(t as usize, a)).collect();
        groups.entry(key).or_default().push(t);
    }
    let col = rel.column(ofd.rhs);
    let mut covered = 0usize;
    let mut value_counts: FxHashMap<ValueId, u32> = FxHashMap::default();
    let mut sense_counts: FxHashMap<SenseId, u32> = FxHashMap::default();
    for class in groups.values() {
        if class.len() < 2 {
            covered += class.len();
            continue;
        }
        let outcome = class_outcome(0, class, col, index, &mut value_counts, &mut sense_counts);
        covered += outcome.covered;
    }
    covered as f64 / sample_size as f64
}

/// Dense counters reused across [`covered_within`] calls, in the
/// [`crate::ProductScratch`] idiom: value counts indexed by [`ValueId`]
/// (grown to the relation's pool), sense counts indexed by [`SenseId`]
/// (grown on demand), and touched lists so that only the entries a class
/// used are reset. One scratch serves one thread; its footprint is one
/// `u32` per interned value plus one per sense seen.
#[derive(Debug, Default)]
pub struct VerifyScratch {
    value_counts: Vec<u32>,
    touched_values: Vec<ValueId>,
    sense_counts: Vec<u32>,
    touched_senses: Vec<u32>,
}

impl VerifyScratch {
    /// Zeroes every touched counter. Every nonzero counter is on a touched
    /// list (it is pushed before it is incremented), so this restores the
    /// all-zero invariant even after an unwind mid-class.
    fn reset(&mut self) {
        for &v in &self.touched_values {
            self.value_counts[v.index()] = 0;
        }
        self.touched_values.clear();
        for &s in &self.touched_senses {
            self.sense_counts[s as usize] = 0;
        }
        self.touched_senses.clear();
    }

    /// Uncovered tuples of one class under its best interpretation — the
    /// arithmetic of `class_outcome` without its witness. `None` when the
    /// class has an uncovered tuple and `budget_left` is 0. Leaves the
    /// scratch zeroed.
    fn class_uncovered(
        &mut self,
        class: &[u32],
        col: &[ValueId],
        index: &SenseIndex,
        budget_left: usize,
    ) -> Option<usize> {
        // Opt-4 fast path: one distinct consequent value covers the class.
        // Checked before counting, which a mixed class abandons at its
        // first differing tuple.
        let Some(&head) = class.first() else {
            return Some(0);
        };
        let first = col[head as usize];
        if class.iter().all(|&t| col[t as usize] == first) {
            return Some(0);
        }
        let VerifyScratch {
            value_counts,
            touched_values,
            sense_counts,
            touched_senses,
        } = self;
        for &t in class {
            let v = col[t as usize];
            if value_counts[v.index()] == 0 {
                touched_values.push(v);
            }
            value_counts[v.index()] += 1;
        }
        let uncovered = 'class: {
            let size = class.len() as u32;
            let mut best_literal = 0u32;
            let mut best_sense = 0u32;
            for &v in touched_values.iter() {
                let count = value_counts[v.index()];
                best_literal = best_literal.max(count);
                let senses = index.senses(v);
                if senses.is_empty() && budget_left == 0 {
                    // No sense covers this value's tuples, so the class
                    // keeps at least one uncovered tuple.
                    break 'class None;
                }
                for &s in senses {
                    let s = s.index();
                    if s >= sense_counts.len() {
                        sense_counts.resize(s + 1, 0);
                    }
                    if sense_counts[s] == 0 {
                        touched_senses.push(s as u32);
                    }
                    sense_counts[s] += count;
                    best_sense = best_sense.max(sense_counts[s]);
                }
                // `>=`: a duplicated sense id may count a tuple twice.
                if best_sense >= size {
                    break 'class Some(0);
                }
            }
            (budget_left > 0).then(|| (size - best_sense.max(best_literal)) as usize)
        };
        self.reset();
        uncovered
    }
}

/// The budgeted support kernel of discovery: the number of tuples covered
/// by the per-class best interpretations, or `None` as soon as more than
/// `max_uncovered` tuples are uncovered.
///
/// `Some(c)` is returned exactly when the OFD's violating tuples are at
/// most `max_uncovered`, and then `c` equals
/// [`Validation::covered_tuples`] of [`check_ofd_with_index`]. A budget of
/// 0 is the exact check (κ = 1); a budget of `n − ceil(κ·n)` decides
/// support κ. No [`Validation`] or per-class vector is built, and counts go
/// through `scratch`'s dense arrays instead of hash maps.
pub fn covered_within(
    rel: &Relation,
    index: &SenseIndex,
    ofd: &Ofd,
    partition: &StrippedPartition,
    max_uncovered: usize,
    scratch: &mut VerifyScratch,
) -> Option<usize> {
    let col = rel.column(ofd.rhs);
    // A no-op on a clean scratch; guards reuse after a caught unwind.
    scratch.reset();
    if scratch.value_counts.len() < rel.pool().len() {
        scratch.value_counts.resize(rel.pool().len(), 0);
    }
    let mut uncovered = 0usize;
    for class in partition.classes() {
        uncovered += scratch.class_uncovered(class, col, index, max_uncovered - uncovered)?;
        if uncovered > max_uncovered {
            return None;
        }
    }
    Some(rel.n_rows() - uncovered)
}

/// Core per-class routine: the maximum number of tuples whose consequent
/// values are consistent under a single interpretation, and that witness.
fn class_outcome(
    class_index: usize,
    class: &[u32],
    col: &[ValueId],
    index: &SenseIndex,
    value_counts: &mut FxHashMap<ValueId, u32>,
    sense_counts: &mut FxHashMap<SenseId, u32>,
) -> ClassOutcome {
    value_counts.clear();
    for &t in class {
        *value_counts.entry(col[t as usize]).or_insert(0) += 1;
    }
    let size = class.len();
    let representative = class.first().copied().unwrap_or(0);

    // Opt-4 fast path: a single distinct consequent value means the class
    // satisfies the traditional FD, hence the OFD, with no ontology lookups.
    if value_counts.len() == 1 {
        if let Some((&v, _)) = value_counts.iter().next() {
            return ClassOutcome {
                class_index,
                representative,
                size,
                covered: size,
                witness: Some(Witness::Literal(v)),
            };
        }
    }

    // Best literal cover: tuples sharing one exact value are consistent even
    // if the ontology does not know the value. An empty class (possible only
    // through a degenerate caller) is vacuously satisfied rather than a
    // panic.
    let Some((&lit_value, &lit_count)) = value_counts
        .iter()
        .max_by_key(|&(v, c)| (*c, std::cmp::Reverse(*v)))
    else {
        return ClassOutcome {
            class_index,
            representative,
            size,
            covered: size,
            witness: None,
        };
    };

    // Sense frequencies: a sense covers a tuple when it contains the tuple's
    // value.
    sense_counts.clear();
    for (&v, &c) in value_counts.iter() {
        for &s in index.senses(v) {
            *sense_counts.entry(s).or_insert(0) += c;
        }
    }
    let best_sense = sense_counts
        .iter()
        .max_by_key(|&(s, c)| (*c, std::cmp::Reverse(*s)))
        .map(|(&s, &c)| (s, c));

    let (covered, witness) = match best_sense {
        Some((s, c)) if c >= lit_count => (c, Witness::Sense(s)),
        _ => (lit_count, Witness::Literal(lit_value)),
    };
    ClassOutcome {
        class_index,
        representative,
        size,
        covered: covered as usize,
        witness: Some(witness),
    }
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
            sense_counts: vec![5; onto.len()],
            touched_senses: (0..onto.len() as u32).collect(),
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The budgeted kernel against the full validation, for every
        /// antecedent and every budget: `Some(covered_tuples)` iff the
        /// violating tuples fit the budget. One scratch is reused across
        /// every call, so failing candidates precede passing ones on it;
        /// a fresh scratch must agree.
        #[test]
        fn budgeted_kernel_matches_full_validation((rel, onto) in arb_instance()) {
            let n = rel.n_rows();
            let mut shared = VerifyScratch::default();
            for index in [SenseIndex::synonym(&rel, &onto), SenseIndex::inheritance(&rel, &onto, 1)] {
                for bits in 0..(1u64 << rel.schema().len()) {
                    let lhs = crate::schema::AttrSet::from_bits(bits);
                    let sp = StrippedPartition::of(&rel, lhs);
                    for a in rel.schema().attrs().filter(|&a| !lhs.contains(a)) {
                        let ofd = Ofd::synonym(lhs, a);
                        let v = check_ofd_with_index(&rel, &index, &ofd, &sp);
                        for budget in 0..=n {
                            let expect = (v.violating_tuples() <= budget).then_some(v.covered_tuples);
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
