//! [`SenseIndex`]: constant-time `names(v)` lookups keyed by interned
//! [`ValueId`]s instead of strings, as assumed by the paper's complexity
//! analysis (§4.3).

use ofd_ontology::{Ontology, SenseId};

use crate::relation::Relation;
use crate::value::ValueId;

/// Maps every interned value of a relation to the sorted senses containing
/// it. Two construction modes:
///
/// * [`SenseIndex::synonym`] — `names(v)`, for synonym-OFD checking;
/// * [`SenseIndex::inheritance`] — `names(v)` expanded with every ancestor
///   within `theta` is-a steps, so an inheritance OFD holds exactly when the
///   expanded sets of a class intersect (a shared ancestor within `theta`).
#[derive(Debug, Clone)]
pub struct SenseIndex {
    per_value: Vec<Vec<SenseId>>,
}

impl SenseIndex {
    /// Builds the synonym-mode index for all values currently interned in
    /// `rel`'s pool.
    pub fn synonym(rel: &Relation, onto: &Ontology) -> SenseIndex {
        let mut idx = SenseIndex {
            per_value: Vec::new(),
        };
        idx.extend_synonym(rel, onto);
        idx
    }

    /// Builds the inheritance-mode index: each value maps to the ancestors
    /// (within `theta` steps, inclusive of the containing sense itself) of
    /// every sense containing it.
    pub fn inheritance(rel: &Relation, onto: &Ontology, theta: usize) -> SenseIndex {
        let n = rel.pool().len();
        let mut per_value = Vec::with_capacity(n);
        for (_, text) in rel.pool().iter() {
            let mut senses: Vec<SenseId> = Vec::new();
            for &s in onto.names(text) {
                for (anc, _) in onto
                    .ancestors_within(s, theta)
                    .expect("sense from names() exists")
                {
                    senses.push(anc);
                }
            }
            senses.sort_unstable();
            senses.dedup();
            per_value.push(senses);
        }
        SenseIndex { per_value }
    }

    /// Resolves values interned after this index was built (e.g. repair
    /// values) in synonym mode.
    pub fn extend_synonym(&mut self, rel: &Relation, onto: &Ontology) {
        for i in self.per_value.len()..rel.pool().len() {
            let text = rel.pool().resolve(ValueId::from_index(i));
            let mut senses = onto.names(text).to_vec();
            senses.sort_unstable();
            self.per_value.push(senses);
        }
    }

    /// Resolves values interned after this index was built in inheritance
    /// mode, expanding with ancestors within `theta` steps exactly as
    /// [`SenseIndex::inheritance`] does at construction. `theta` must match
    /// the construction-time value for the index to stay coherent.
    pub fn extend_inheritance(&mut self, rel: &Relation, onto: &Ontology, theta: usize) {
        for i in self.per_value.len()..rel.pool().len() {
            let text = rel.pool().resolve(ValueId::from_index(i));
            let mut senses: Vec<SenseId> = Vec::new();
            for &s in onto.names(text) {
                for (anc, _) in onto
                    .ancestors_within(s, theta)
                    .expect("sense from names() exists")
                {
                    senses.push(anc);
                }
            }
            senses.sort_unstable();
            senses.dedup();
            self.per_value.push(senses);
        }
    }

    /// The senses containing `value`, sorted ascending. Values unknown to
    /// the index (or the ontology) yield the empty slice.
    #[inline]
    pub fn senses(&self, value: ValueId) -> &[SenseId] {
        self.per_value
            .get(value.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `value` belongs to sense `sense`.
    #[inline]
    pub fn in_sense(&self, value: ValueId, sense: SenseId) -> bool {
        self.senses(value).binary_search(&sense).is_ok()
    }

    /// Manually records that `value` belongs to `sense`, overlaying a
    /// membership the ontology lacks without rebuilding it (a candidate
    /// ontology repair, or a sense id chosen to collide with another).
    pub fn add_sense(&mut self, value: ValueId, sense: SenseId) {
        if self.per_value.len() <= value.index() {
            self.per_value.resize_with(value.index() + 1, Vec::new);
        }
        let senses = &mut self.per_value[value.index()];
        if let Err(pos) = senses.binary_search(&sense) {
            senses.insert(pos, sense);
        }
    }

    /// Number of values indexed.
    pub fn len(&self) -> usize {
        self.per_value.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.per_value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{table1, table1_updated};
    use ofd_ontology::samples;

    #[test]
    fn synonym_index_matches_ontology_names() {
        let rel = table1();
        let onto = samples::medical_drug_ontology();
        let idx = SenseIndex::synonym(&rel, &onto);
        let cartia = rel.pool().get("cartia").unwrap();
        assert_eq!(idx.senses(cartia).len(), 2);
        let joint_pain = rel.pool().get("joint pain").unwrap();
        assert!(idx.senses(joint_pain).is_empty(), "SYMP values are not drugs");
    }

    #[test]
    fn inheritance_index_adds_ancestors() {
        let rel = table1();
        let onto = samples::medical_drug_ontology();
        let syn = SenseIndex::synonym(&rel, &onto);
        let inh0 = SenseIndex::inheritance(&rel, &onto, 0);
        let inh2 = SenseIndex::inheritance(&rel, &onto, 2);
        let tylenol = rel.pool().get("tylenol").unwrap();
        assert_eq!(syn.senses(tylenol), inh0.senses(tylenol));
        assert!(inh2.senses(tylenol).len() > syn.senses(tylenol).len());
        // tylenol(acetaminophen) and analgesic share the analgesic ancestor
        // within θ=1.
        let inh1 = SenseIndex::inheritance(&rel, &onto, 1);
        let analgesic = rel.pool().get("analgesic").unwrap();
        let common: Vec<_> = inh1
            .senses(tylenol)
            .iter()
            .filter(|s| inh1.senses(analgesic).contains(s))
            .collect();
        assert!(!common.is_empty());
    }

    #[test]
    fn extend_resolves_new_values() {
        let mut rel = table1();
        let onto = samples::medical_drug_ontology();
        let mut idx = SenseIndex::synonym(&rel, &onto);
        let before = idx.len();
        let med = rel.schema().attr("MED").unwrap();
        rel.set(0, med, "aspirin").unwrap();
        idx.extend_synonym(&rel, &onto);
        assert_eq!(idx.len(), before + 1);
        let aspirin = rel.pool().get("aspirin").unwrap();
        assert_eq!(idx.senses(aspirin).len(), 1, "aspirin is MoH-only");
    }

    #[test]
    fn extend_inheritance_matches_fresh_construction() {
        let mut rel = table1();
        let onto = samples::medical_drug_ontology();
        for theta in [0usize, 1, 2] {
            let mut idx = SenseIndex::inheritance(&rel, &onto, theta);
            let med = rel.schema().attr("MED").unwrap();
            rel.set(5, med, "aspirin").unwrap();
            rel.set(6, med, "no-such-drug").unwrap();
            idx.extend_inheritance(&rel, &onto, theta);
            let fresh = SenseIndex::inheritance(&rel, &onto, theta);
            assert_eq!(idx.len(), fresh.len(), "theta={theta}");
            for i in 0..idx.len() {
                let v = ValueId::from_index(i);
                assert_eq!(idx.senses(v), fresh.senses(v), "theta={theta} value {i}");
            }
        }
    }

    #[test]
    fn add_sense_overlays_candidate_repairs() {
        let rel = table1_updated();
        let onto = samples::medical_drug_ontology();
        let mut idx = SenseIndex::synonym(&rel, &onto);
        let adizem = rel.pool().get("adizem").unwrap();
        assert!(idx.senses(adizem).is_empty());
        let dilt = onto.names("tiazac")[0];
        idx.add_sense(adizem, dilt);
        assert!(idx.in_sense(adizem, dilt));
        // Idempotent.
        idx.add_sense(adizem, dilt);
        assert_eq!(idx.senses(adizem).len(), 1);
    }

    #[test]
    fn out_of_range_values_yield_empty() {
        let rel = table1();
        let onto = samples::medical_drug_ontology();
        let idx = SenseIndex::synonym(&rel, &onto);
        assert!(idx.senses(ValueId::from_index(10_000)).is_empty());
    }
}
