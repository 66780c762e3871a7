//! Incremental OFD maintenance: delta-maintained stripped partitions.
//!
//! The paper's repair scope (§5.1) observes that OFD violations are local to
//! equivalence classes of the antecedent partition Π*_X, so an edit only
//! needs the touched classes re-checked. [`IncrementalChecker`] grows that
//! observation into a full delta-maintenance engine over a tuple stream:
//!
//! * **updates** to a consequent cell adjust the value multiset of the
//!   containing class and re-verify just that class — O(distinct values of
//!   the class), independent of |I|;
//! * **inserts** ([`IncrementalChecker::apply_insert`]) route the new tuple
//!   to its antecedent group per OFD: an unseen antecedent becomes a
//!   stripped singleton (never violating, zero verification work), a
//!   singleton is promoted to a two-tuple class, and an existing class
//!   absorbs the tuple — in every case only the one affected `(OFD, class)`
//!   pair is re-verified;
//! * **deletes** ([`IncrementalChecker::apply_retract`]) reverse the same
//!   moves — membership removal, demotion back to a stripped singleton when
//!   a class shrinks to one tuple (its slot is recycled), and a tuple-id
//!   rename mirroring the relation's O(attrs) swap-remove.
//!
//! Because the checker tracks a whole candidate set Σ at once and
//! re-verifies only the classes whose antecedent groups an edit touched, it
//! also maintains the discovered Σ frontier under edits: after any edit
//! sequence, [`IncrementalChecker::satisfied_sigma`] is exactly the subset
//! of tracked candidates that a from-scratch [`crate::Validator`] pass
//! would report as holding — without recomputing any untouched partition.
//!
//! Desynchronised callers get a typed [`CoreError::StaleUpdate`] instead of
//! a panic; failed calls leave the checker state untouched.

use std::collections::BTreeSet;

use crate::fxhash::FxHashMap;

use crate::error::CoreError;
use crate::ofd::Ofd;
use crate::partition::StrippedPartition;
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::sense_index::SenseIndex;
use crate::validate::VerifyScratch;
use crate::value::ValueId;

/// Per-class bookkeeping: members and the consequent value multiset.
#[derive(Debug, Clone, Default)]
struct ClassState {
    /// Tuple ids of the class, unordered (swap-removed on retract).
    members: Vec<u32>,
    /// Consequent value → its tuples in the class: what
    /// [`VerifyScratch::covers`] re-verifies the class from, in O(distinct
    /// values of the class).
    counts: FxHashMap<ValueId, u32>,
}

/// Where an antecedent value combination currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Exactly one tuple has this antecedent: stripped away, never violates.
    Singleton(u32),
    /// Two or more tuples: a tracked class at this index.
    Class(u32),
}

/// Per-OFD delta-partition state.
#[derive(Debug)]
struct OfdState {
    /// Antecedent attributes, ascending (the group-key layout).
    lhs: Vec<AttrId>,
    /// Antecedent value combination → current slot.
    groups: FxHashMap<Vec<ValueId>, Slot>,
    /// Class states, slot-indexed; demoted slots sit in `free` with cleared
    /// members/counts until a promotion recycles them.
    classes: Vec<ClassState>,
    free: Vec<u32>,
    /// Tuple → class index (tuples in non-singleton classes only).
    membership: FxHashMap<u32, u32>,
}

impl OfdState {
    fn key_of(&self, rel: &Relation, row: usize) -> Vec<ValueId> {
        self.lhs.iter().map(|&a| rel.value(row, a)).collect()
    }
}

/// Outcome of a retract: how much re-verification it cost and which tuple
/// id was renamed by the relation's swap-remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetractOutcome {
    /// `(OFD, class)` pairs re-verified by this edit.
    pub reverified: usize,
    /// The former index of the row moved into the freed slot, if any.
    pub moved_from: Option<usize>,
}

/// Tracks which `(OFD, class)` pairs violate Σ under a stream of updates,
/// inserts and deletes, re-verifying only the touched classes.
#[derive(Debug)]
pub struct IncrementalChecker {
    sigma: Vec<Ofd>,
    states: Vec<OfdState>,
    /// Currently violating (ofd, class) pairs, deterministic order.
    violated: BTreeSet<(usize, usize)>,
    /// OFD indexes per consequent attribute.
    by_rhs: FxHashMap<AttrId, Vec<usize>>,
    scratch: VerifyScratch,
}

impl IncrementalChecker {
    /// Builds the checker from the current instance (the `index` must stay
    /// in sync with the pool — see [`IncrementalChecker::apply_update`]).
    pub fn new(rel: &Relation, index: &SenseIndex, sigma: &[Ofd]) -> IncrementalChecker {
        let mut states = Vec::with_capacity(sigma.len());
        let mut violated = BTreeSet::new();
        let mut by_rhs: FxHashMap<AttrId, Vec<usize>> = FxHashMap::default();
        let mut scratch = VerifyScratch::default();
        for (oi, ofd) in sigma.iter().enumerate() {
            by_rhs.entry(ofd.rhs).or_default().push(oi);
            let sp = StrippedPartition::of(rel, ofd.lhs);
            let col = rel.column(ofd.rhs);
            let mut st = OfdState {
                lhs: ofd.lhs.iter().collect(),
                groups: FxHashMap::default(),
                classes: Vec::with_capacity(sp.class_count()),
                free: Vec::new(),
                membership: FxHashMap::default(),
            };
            for (ci, class) in sp.classes().enumerate() {
                let mut counts: FxHashMap<ValueId, u32> = FxHashMap::default();
                let mut members = Vec::with_capacity(class.len());
                for &t in class {
                    st.membership.insert(t, ci as u32);
                    members.push(t);
                    *counts.entry(col[t as usize]).or_insert(0) += 1;
                }
                let state = ClassState { members, counts };
                if !scratch.covers(&state.counts, state.members.len() as u32, index) {
                    violated.insert((oi, ci));
                }
                st.classes.push(state);
            }
            // Register every antecedent group: class representatives and the
            // stripped singletons the partition dropped.
            for row in 0..rel.n_rows() {
                let t = row as u32;
                let key = st.key_of(rel, row);
                match st.membership.get(&t).copied() {
                    Some(ci) => {
                        st.groups.insert(key, Slot::Class(ci));
                    }
                    None => {
                        st.groups.insert(key, Slot::Singleton(t));
                    }
                }
            }
            states.push(st);
        }
        IncrementalChecker {
            sigma: sigma.to_vec(),
            states,
            violated,
            by_rhs,
            scratch,
        }
    }

    /// Applies one consequent-cell update: tuple `row`'s value for `attr`
    /// changed `old → new`. The caller must have already updated the
    /// relation and extended the sense index for any newly interned value.
    ///
    /// Updates to attributes that are no OFD's consequent are ignored
    /// (antecedents are immutable under the §5.1 repair scope — changing
    /// one requires a retract + insert). Returns the number of classes
    /// re-verified.
    ///
    /// When `old` is not the value the checker tracks for that cell in
    /// every affected class, no class is mutated and
    /// [`CoreError::StaleUpdate`] is returned — the checker stays valid.
    pub fn apply_update(
        &mut self,
        index: &SenseIndex,
        row: usize,
        attr: AttrId,
        old: ValueId,
        new: ValueId,
    ) -> Result<usize, CoreError> {
        if old == new {
            return Ok(0);
        }
        let Some(ofds) = self.by_rhs.get(&attr) else {
            return Ok(0);
        };
        // First pass: detect desync before touching any class, so a stale
        // call is atomic — all affected classes mutate or none do.
        for &oi in ofds {
            if let Some(&ci) = self.states[oi].membership.get(&(row as u32)) {
                if !self.states[oi].classes[ci as usize].counts.contains_key(&old) {
                    return Err(CoreError::StaleUpdate {
                        row,
                        attr: attr.index(),
                    });
                }
            }
        }
        let mut reverified = 0;
        for &oi in ofds {
            let st = &mut self.states[oi];
            let Some(&ci) = st.membership.get(&(row as u32)) else {
                continue; // singleton class: can never violate
            };
            let state = &mut st.classes[ci as usize];
            let old_count = state
                .counts
                .get_mut(&old)
                .expect("pre-checked in the stale pass");
            *old_count -= 1;
            if *old_count == 0 {
                state.counts.remove(&old);
            }
            *state.counts.entry(new).or_insert(0) += 1;
            let sat = self.scratch.covers(&state.counts, state.members.len() as u32, index);
            Self::record(&mut self.violated, oi, ci, sat);
            reverified += 1;
        }
        Ok(reverified)
    }

    /// Registers a freshly appended tuple. The caller must have already
    /// pushed `row` to `rel` (it must be the index of an existing row) and
    /// extended the sense index for any newly interned values.
    ///
    /// Returns the number of classes re-verified: 0 when the antecedent was
    /// unseen (the tuple becomes a stripped singleton), 1 per OFD whose
    /// partition gained or grew a class.
    pub fn apply_insert(
        &mut self,
        rel: &Relation,
        index: &SenseIndex,
        row: usize,
    ) -> Result<usize, CoreError> {
        if row >= rel.n_rows() {
            return Err(CoreError::RowOutOfBounds {
                row,
                rows: rel.n_rows(),
            });
        }
        let t = row as u32;
        let mut reverified = 0;
        for oi in 0..self.sigma.len() {
            let rhs = self.sigma[oi].rhs;
            let col = rel.column(rhs);
            let st = &mut self.states[oi];
            let key = st.key_of(rel, row);
            match st.groups.get(&key).copied() {
                None => {
                    st.groups.insert(key, Slot::Singleton(t));
                }
                Some(Slot::Singleton(s)) => {
                    // Promote: the group graduates from stripped singleton
                    // to a two-tuple class (recycling a demoted slot).
                    let ci = st.free.pop().unwrap_or_else(|| {
                        st.classes.push(ClassState::default());
                        (st.classes.len() - 1) as u32
                    });
                    let state = &mut st.classes[ci as usize];
                    debug_assert!(state.members.is_empty() && state.counts.is_empty());
                    state.members.push(s);
                    state.members.push(t);
                    *state.counts.entry(col[s as usize]).or_insert(0) += 1;
                    *state.counts.entry(col[t as usize]).or_insert(0) += 1;
                    st.membership.insert(s, ci);
                    st.membership.insert(t, ci);
                    st.groups.insert(key, Slot::Class(ci));
                    let sat = self.scratch.covers(&state.counts, state.members.len() as u32, index);
                    Self::record(&mut self.violated, oi, ci, sat);
                    reverified += 1;
                }
                Some(Slot::Class(ci)) => {
                    let state = &mut st.classes[ci as usize];
                    state.members.push(t);
                    *state.counts.entry(col[t as usize]).or_insert(0) += 1;
                    st.membership.insert(t, ci);
                    let sat = self.scratch.covers(&state.counts, state.members.len() as u32, index);
                    Self::record(&mut self.violated, oi, ci, sat);
                    reverified += 1;
                }
            }
        }
        Ok(reverified)
    }

    /// Removes tuple `row` from both the relation and the checker, keeping
    /// the two in sync through the relation's swap-remove: the last row is
    /// renamed to `row` in every membership map and group slot.
    ///
    /// Classes that shrink to one tuple are demoted back to stripped
    /// singletons and their slots recycled. On error nothing is removed.
    pub fn apply_retract(
        &mut self,
        rel: &mut Relation,
        index: &SenseIndex,
        row: usize,
    ) -> Result<RetractOutcome, CoreError> {
        if row >= rel.n_rows() {
            return Err(CoreError::RowOutOfBounds {
                row,
                rows: rel.n_rows(),
            });
        }
        let t = row as u32;
        // First pass: find the tuple in every OFD (its group's slot, its
        // place among its class's members and its tracked consequent value)
        // before any OFD lets go of it, so a stale call is atomic.
        let mut found = Vec::with_capacity(self.states.len());
        for (st, ofd) in self.states.iter().zip(&self.sigma) {
            let stale = CoreError::StaleUpdate {
                row,
                attr: ofd.rhs.index(),
            };
            let key = st.key_of(rel, row);
            let place = match st.groups.get(&key) {
                Some(&Slot::Singleton(s)) if s == t => None,
                Some(&Slot::Class(ci)) => {
                    let state = &st.classes[ci as usize];
                    if !state.counts.contains_key(&rel.value(row, ofd.rhs)) {
                        return Err(stale);
                    }
                    let pos = state.members.iter().position(|&m| m == t).ok_or(stale)?;
                    Some((ci, pos))
                }
                _ => return Err(stale),
            };
            found.push((key, place));
        }
        let mut reverified = 0;
        // Detach the tuple from every OFD's partition while the relation
        // still holds its values.
        for (oi, (key, place)) in found.into_iter().enumerate() {
            let value = rel.value(row, self.sigma[oi].rhs);
            let st = &mut self.states[oi];
            let Some((ci, pos)) = place else {
                st.groups.remove(&key); // the tuple's own singleton
                continue;
            };
            let state = &mut st.classes[ci as usize];
            state.members.swap_remove(pos);
            let count = state.counts.get_mut(&value).expect("pre-checked");
            *count -= 1;
            if *count == 0 {
                state.counts.remove(&value);
            }
            st.membership.remove(&t);
            if state.members.len() == 1 {
                // Demote: one tuple left, back to a stripped singleton; the
                // slot is recycled.
                let rem = state.members[0];
                state.members.clear();
                state.counts.clear();
                st.membership.remove(&rem);
                st.free.push(ci);
                st.groups.insert(key, Slot::Singleton(rem));
                self.violated.remove(&(oi, ci as usize));
            } else {
                let sat = self.scratch.covers(&state.counts, state.members.len() as u32, index);
                Self::record(&mut self.violated, oi, ci, sat);
                reverified += 1;
            }
        }
        let moved_from = rel.swap_remove_row(row)?;
        if let Some(from) = moved_from {
            self.rename(rel, from, row);
        }
        Ok(RetractOutcome {
            reverified,
            moved_from,
        })
    }

    /// Renames tuple id `from` to `to` after the relation swap-moved that
    /// row. Class membership is untouched — only the id changes.
    fn rename(&mut self, rel: &Relation, from: usize, to: usize) {
        let (from, to) = (from as u32, to as u32);
        for st in &mut self.states {
            if let Some(ci) = st.membership.remove(&from) {
                st.membership.insert(to, ci);
                let state = &mut st.classes[ci as usize];
                if let Some(m) = state.members.iter_mut().find(|m| **m == from) {
                    *m = to;
                }
            } else {
                // A stripped singleton: rewrite its slot in place. The key
                // reads the moved row's values at its new index.
                let key = st.key_of(rel, to as usize);
                if let Some(slot) = st.groups.get_mut(&key) {
                    if *slot == Slot::Singleton(from) {
                        *slot = Slot::Singleton(to);
                    }
                }
            }
        }
    }

    fn record(violated: &mut BTreeSet<(usize, usize)>, oi: usize, ci: u32, satisfied: bool) {
        if satisfied {
            violated.remove(&(oi, ci as usize));
        } else {
            violated.insert((oi, ci as usize));
        }
    }

    /// Whether every OFD currently holds.
    pub fn is_satisfied(&self) -> bool {
        self.violated.is_empty()
    }

    /// The violating `(OFD index, class index)` pairs, ascending.
    pub fn violations(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.violated.iter().copied()
    }

    /// Number of violating classes.
    pub fn violation_count(&self) -> usize {
        self.violated.len()
    }

    /// Violating class count per tracked OFD, in Σ order.
    pub fn per_ofd_violations(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.sigma.len()];
        for &(oi, _) in &self.violated {
            out[oi] += 1;
        }
        out
    }

    /// The maintained frontier: the tracked OFDs that currently hold (no
    /// violating class), in Σ order.
    pub fn satisfied_sigma(&self) -> Vec<Ofd> {
        let per = self.per_ofd_violations();
        self.sigma
            .iter()
            .zip(&per)
            .filter(|(_, &v)| v == 0)
            .map(|(o, _)| *o)
            .collect()
    }

    /// The Σ this checker tracks.
    pub fn sigma(&self) -> &[Ofd] {
        &self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{table1, table1_updated};
    use crate::validate::Validator;
    use ofd_ontology::samples;

    fn sigma_for(rel: &Relation) -> Vec<Ofd> {
        vec![
            Ofd::synonym_named(rel.schema(), &["CC"], "CTRY").unwrap(),
            Ofd::synonym_named(rel.schema(), &["SYMP", "DIAG"], "MED").unwrap(),
        ]
    }

    fn full_violations(rel: &Relation, onto: &ofd_ontology::Ontology, sigma: &[Ofd]) -> usize {
        let validator = Validator::new(rel, onto);
        sigma
            .iter()
            .map(|o| validator.check(o).violation_count())
            .sum()
    }

    #[test]
    fn initial_state_matches_full_validation() {
        let onto = samples::combined_paper_ontology();
        for rel in [table1(), table1_updated()] {
            let sigma = sigma_for(&rel);
            let index = SenseIndex::synonym(&rel, &onto);
            let checker = IncrementalChecker::new(&rel, &index, &sigma);
            let validator = Validator::new(&rel, &onto);
            let full: usize = sigma
                .iter()
                .map(|o| validator.check(o).violation_count())
                .sum();
            assert_eq!(checker.violation_count(), full);
            assert_eq!(
                checker.is_satisfied(),
                sigma.iter().all(|o| validator.check(o).satisfied())
            );
        }
    }

    #[test]
    fn updates_track_repairs_and_corruptions() {
        let onto = samples::combined_paper_ontology();
        let mut rel = table1_updated();
        let sigma = sigma_for(&rel);
        let mut index = SenseIndex::synonym(&rel, &onto);
        let mut checker = IncrementalChecker::new(&rel, &index, &sigma);
        assert!(!checker.is_satisfied(), "Example 1.2 is dirty");

        // Repair the two updated cells back to tiazac.
        let med = rel.schema().attr("MED").unwrap();
        for row in [8usize, 10] {
            let old = rel.value(row, med);
            let new = rel.set(row, med, "tiazac").unwrap();
            index.extend_synonym(&rel, &onto);
            checker.apply_update(&index, row, med, old, new).unwrap();
        }
        // MED class fixed; but the nausea class still violates the synonym
        // reading of F2, as in the paper (tylenol is-a analgesic).
        assert_eq!(checker.violation_count(), 1);

        // Fix the nausea class too.
        let old = rel.value(3, med);
        let new = rel.set(3, med, "tylenol").unwrap();
        index.extend_synonym(&rel, &onto);
        checker.apply_update(&index, 3, med, old, new).unwrap();
        assert!(checker.is_satisfied());

        // Corrupt a CTRY cell; the checker notices immediately.
        let ctry = rel.schema().attr("CTRY").unwrap();
        let old = rel.value(0, ctry);
        let new = rel.set(0, ctry, "Atlantis").unwrap();
        index.extend_synonym(&rel, &onto);
        checker.apply_update(&index, 0, ctry, old, new).unwrap();
        assert_eq!(checker.violation_count(), 1);
        assert_eq!(checker.violations().next(), Some((0, 0)));
    }

    #[test]
    fn random_update_sequences_agree_with_full_revalidation() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let onto = samples::combined_paper_ontology();
        let mut rel = table1();
        let sigma = sigma_for(&rel);
        let mut index = SenseIndex::synonym(&rel, &onto);
        let mut checker = IncrementalChecker::new(&rel, &index, &sigma);
        let med = rel.schema().attr("MED").unwrap();
        let ctry = rel.schema().attr("CTRY").unwrap();
        let vocab = [
            "tiazac", "cartia", "ASA", "ibuprofen", "bogus1", "USA", "America", "Bharat",
        ];
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..200 {
            let row = rng.random_range(0..rel.n_rows());
            let attr = if rng.random_bool(0.5) { med } else { ctry };
            let value = vocab[rng.random_range(0..vocab.len())];
            let old = rel.value(row, attr);
            let new = rel.set(row, attr, value).unwrap();
            index.extend_synonym(&rel, &onto);
            checker.apply_update(&index, row, attr, old, new).unwrap();

            let full = full_violations(&rel, &onto, &sigma);
            assert_eq!(checker.violation_count(), full, "diverged at step {step}");
        }
    }

    #[test]
    fn non_consequent_updates_are_ignored() {
        let onto = samples::combined_paper_ontology();
        let rel = table1();
        let sigma = sigma_for(&rel);
        let index = SenseIndex::synonym(&rel, &onto);
        let mut checker = IncrementalChecker::new(&rel, &index, &sigma);
        let before = checker.violation_count();
        let test_attr = rel.schema().attr("TEST").unwrap();
        // TEST is no OFD's consequent; the update is a no-op for tracking.
        checker
            .apply_update(
                &index,
                0,
                test_attr,
                ValueId::from_index(0),
                ValueId::from_index(1),
            )
            .unwrap();
        assert_eq!(checker.violation_count(), before);
    }

    #[test]
    fn stale_update_is_a_typed_error_and_leaves_state_intact() {
        let onto = samples::combined_paper_ontology();
        let mut rel = table1();
        let sigma = sigma_for(&rel);
        let mut index = SenseIndex::synonym(&rel, &onto);
        let mut checker = IncrementalChecker::new(&rel, &index, &sigma);
        let before = checker.violation_count();
        let med = rel.schema().attr("MED").unwrap();
        // Row 0's MED is ibuprofen; claim it was tiazac.
        let bogus_old = rel.pool().get("tiazac").unwrap();
        let new = rel.pool().get("cartia").unwrap();
        let err = checker
            .apply_update(&index, 0, med, bogus_old, new)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::StaleUpdate { row: 0, .. }),
            "expected StaleUpdate, got {err:?}"
        );
        assert_eq!(checker.violation_count(), before, "stale call mutated state");
        // The checker is still usable: a correct update applies cleanly and
        // agrees with from-scratch validation.
        let old = rel.value(0, med);
        let new = rel.set(0, med, "cartia").unwrap();
        index.extend_synonym(&rel, &onto);
        checker.apply_update(&index, 0, med, old, new).unwrap();
        assert_eq!(
            checker.violation_count(),
            full_violations(&rel, &onto, &sigma)
        );
    }

    #[test]
    fn inserts_promote_singletons_and_retracts_demote() {
        let onto = samples::combined_paper_ontology();
        let mut rel = table1();
        let sigma = sigma_for(&rel);
        let mut index = SenseIndex::synonym(&rel, &onto);
        let mut checker = IncrementalChecker::new(&rel, &index, &sigma);

        // CA/Canada is a stripped singleton of CC → CTRY. A second CA tuple
        // promotes it to a class; a conflicting CTRY value violates.
        let row = rel
            .push_row(["CA", "Atlantis", "fever", "CT", "flu", "tylenol"])
            .unwrap();
        index.extend_synonym(&rel, &onto);
        let before = checker.violation_count();
        checker.apply_insert(&rel, &index, row).unwrap();
        assert_eq!(checker.violation_count(), full_violations(&rel, &onto, &sigma));
        assert!(checker.violation_count() > before, "CA class now violates");

        // Retracting the new tuple demotes the class back to a singleton
        // and restores the original violation count.
        checker.apply_retract(&mut rel, &index, row).unwrap();
        assert_eq!(rel.n_rows(), 11);
        assert_eq!(checker.violation_count(), before);
        assert_eq!(checker.violation_count(), full_violations(&rel, &onto, &sigma));
    }

    #[test]
    fn retract_renames_the_swapped_row() {
        let onto = samples::combined_paper_ontology();
        let mut rel = table1_updated();
        let sigma = sigma_for(&rel);
        let index = SenseIndex::synonym(&rel, &onto);
        let mut checker = IncrementalChecker::new(&rel, &index, &sigma);
        // Remove row 0: the last row (10) moves into slot 0 and every
        // membership map must follow.
        let out = checker.apply_retract(&mut rel, &index, 0).unwrap();
        assert_eq!(out.moved_from, Some(10));
        assert_eq!(checker.violation_count(), full_violations(&rel, &onto, &sigma));
        // Updates addressed to the renamed row keep working.
        let med = rel.schema().attr("MED").unwrap();
        let old = rel.value(0, med);
        let new = rel.set(0, med, "tiazac").unwrap();
        checker.apply_update(&index, 0, med, old, new).unwrap();
        assert_eq!(checker.violation_count(), full_violations(&rel, &onto, &sigma));
    }

    #[test]
    fn failed_retract_leaves_the_checker_intact() {
        // t0[DIAG] changed behind the checker's back moves t0's key under
        // SYMP,DIAG → MED only. The retract must fail before CC → CTRY
        // lets go of t0, so it succeeds once the cell is restored.
        let onto = samples::combined_paper_ontology();
        let mut rel = table1();
        let sigma = sigma_for(&rel);
        let index = SenseIndex::synonym(&rel, &onto);
        let mut checker = IncrementalChecker::new(&rel, &index, &sigma);
        let diag = rel.schema().attr("DIAG").unwrap();
        let med = rel.schema().attr("MED").unwrap();
        let original = rel.pool().resolve(rel.value(0, diag)).to_owned();
        rel.set(0, diag, "desynced").unwrap();
        let err = checker.apply_retract(&mut rel, &index, 0).unwrap_err();
        assert!(
            matches!(err, CoreError::StaleUpdate { row: 0, attr } if attr == med.index()),
            "expected StaleUpdate on MED, got {err:?}"
        );
        assert_eq!(rel.n_rows(), 11, "nothing was removed");
        rel.set(0, diag, &original).unwrap();
        let out = checker.apply_retract(&mut rel, &index, 0).unwrap();
        let mut fresh_rel = table1();
        let mut fresh = IncrementalChecker::new(&fresh_rel, &index, &sigma);
        assert_eq!(fresh.apply_retract(&mut fresh_rel, &index, 0).unwrap(), out);
        assert_eq!(
            checker.violations().collect::<Vec<_>>(),
            fresh.violations().collect::<Vec<_>>()
        );
        assert_eq!(
            checker.violation_count(),
            full_violations(&rel, &onto, &sigma)
        );
    }

    #[test]
    fn retract_out_of_bounds_is_typed() {
        let onto = samples::combined_paper_ontology();
        let mut rel = table1();
        let sigma = sigma_for(&rel);
        let index = SenseIndex::synonym(&rel, &onto);
        let mut checker = IncrementalChecker::new(&rel, &index, &sigma);
        assert!(matches!(
            checker.apply_retract(&mut rel, &index, 99),
            Err(CoreError::RowOutOfBounds { .. })
        ));
        assert!(matches!(
            checker.apply_insert(&rel, &index, 99),
            Err(CoreError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn random_edit_interleavings_agree_with_full_revalidation() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let onto = samples::combined_paper_ontology();
        for seed in [7u64, 41, 1234] {
            let mut rel = table1();
            let sigma = sigma_for(&rel);
            let mut index = SenseIndex::synonym(&rel, &onto);
            let mut checker = IncrementalChecker::new(&rel, &index, &sigma);
            let med = rel.schema().attr("MED").unwrap();
            let ctry = rel.schema().attr("CTRY").unwrap();
            let cc = ["US", "IN", "CA", "MX"];
            let vocab = [
                "tiazac", "cartia", "ASA", "ibuprofen", "bogus1", "USA", "America", "Bharat",
                "Atlantis", "fresh-value",
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..300 {
                let dice = rng.random_range(0..10);
                if dice < 4 || rel.n_rows() < 3 {
                    // Insert a row reusing an existing CC so classes grow.
                    let row = rel
                        .push_row([
                            cc[rng.random_range(0..cc.len())],
                            vocab[rng.random_range(0..vocab.len())],
                            "headache",
                            "CT",
                            "hypertension",
                            vocab[rng.random_range(0..vocab.len())],
                        ])
                        .unwrap();
                    index.extend_synonym(&rel, &onto);
                    checker.apply_insert(&rel, &index, row).unwrap();
                } else if dice < 7 {
                    let row = rng.random_range(0..rel.n_rows());
                    checker.apply_retract(&mut rel, &index, row).unwrap();
                } else {
                    let row = rng.random_range(0..rel.n_rows());
                    let attr = if rng.random_bool(0.5) { med } else { ctry };
                    let value = vocab[rng.random_range(0..vocab.len())];
                    let old = rel.value(row, attr);
                    let new = rel.set(row, attr, value).unwrap();
                    index.extend_synonym(&rel, &onto);
                    checker.apply_update(&index, row, attr, old, new).unwrap();
                }
                let full = full_violations(&rel, &onto, &sigma);
                assert_eq!(
                    checker.violation_count(),
                    full,
                    "seed {seed} diverged at step {step}"
                );
                // The maintained frontier matches per-OFD validation.
                let validator = Validator::new(&rel, &onto);
                let frontier: Vec<String> = checker
                    .satisfied_sigma()
                    .iter()
                    .map(|o| o.display(rel.schema()))
                    .collect();
                let expected: Vec<String> = sigma
                    .iter()
                    .filter(|o| validator.check(o).satisfied())
                    .map(|o| o.display(rel.schema()))
                    .collect();
                assert_eq!(frontier, expected, "seed {seed} frontier at step {step}");
            }
        }
    }
}
