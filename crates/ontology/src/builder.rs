//! Builders for assembling ontologies programmatically.

use std::collections::HashMap;

use crate::concept::{Concept, InterpretationId, SenseId};
use crate::error::OntologyError;
use crate::ontology::Ontology;

/// Incrementally assembles an [`Ontology`].
///
/// Parents must be created before their children, which makes cycles
/// unrepresentable by construction (the forest shape the paper assumes).
#[derive(Debug, Default)]
pub struct OntologyBuilder {
    concepts: Vec<Concept>,
    interpretations: Vec<String>,
    interpretation_ids: HashMap<String, InterpretationId>,
    index: HashMap<String, Vec<SenseId>>,
}

impl OntologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) an interpretation label such as `"FDA"`.
    ///
    /// # Panics
    /// Panics on a new label once 65,536 are registered, the most a `u16`
    /// id can name; [`OntologyBuilder::try_interpretation`] returns `None`
    /// instead.
    pub fn interpretation(&mut self, label: impl AsRef<str>) -> InterpretationId {
        self.try_interpretation(label)
            .expect("at most 65,536 interpretation labels")
    }

    /// [`OntologyBuilder::interpretation`], or `None` when `label` is new
    /// and no `u16` id is left for it.
    pub fn try_interpretation(&mut self, label: impl AsRef<str>) -> Option<InterpretationId> {
        let label = label.as_ref();
        if let Some(&id) = self.interpretation_ids.get(label) {
            return Some(id);
        }
        let id = InterpretationId(u16::try_from(self.interpretations.len()).ok()?);
        self.interpretations.push(label.to_owned());
        self.interpretation_ids.insert(label.to_owned(), id);
        Some(id)
    }

    /// Starts a new concept with the given class label.
    pub fn concept(&mut self, label: impl Into<String>) -> ConceptBuilder<'_> {
        ConceptBuilder {
            owner: self,
            label: label.into(),
            parent: None,
            synonyms: Vec::new(),
            interpretations: Vec::new(),
        }
    }

    /// Number of concepts added so far.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether no concepts have been added yet.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    fn push_concept(
        &mut self,
        label: String,
        parent: Option<SenseId>,
        synonyms: Vec<String>,
        interpretations: Vec<InterpretationId>,
    ) -> Result<SenseId, OntologyError> {
        if label.is_empty() {
            return Err(OntologyError::EmptyLabel);
        }
        if let Some(p) = parent {
            if p.index() >= self.concepts.len() {
                return Err(OntologyError::UnknownParent(p));
            }
        }
        for i in &interpretations {
            if i.index() >= self.interpretations.len() {
                return Err(OntologyError::UnknownInterpretation(
                    u16::try_from(i.index()).unwrap_or(u16::MAX),
                ));
            }
        }
        let id = SenseId::from_index(self.concepts.len());
        // One pass over the synonyms, in line order: a value's index entry
        // ends in `id` exactly when this concept already listed it. On the
        // first bad value, the entries pushed so far are taken back.
        for (pos, v) in synonyms.iter().enumerate() {
            let error = if v.is_empty() {
                OntologyError::EmptyValue { sense: id }
            } else {
                let senses = self.index.entry(v.clone()).or_default();
                if senses.last() != Some(&id) {
                    senses.push(id);
                    continue;
                }
                OntologyError::DuplicateSynonym {
                    sense: id,
                    value: v.clone(),
                }
            };
            for earlier in &synonyms[..pos] {
                let senses = self.index.get_mut(earlier).expect("pushed above");
                senses.pop();
                if senses.is_empty() {
                    self.index.remove(earlier);
                }
            }
            return Err(error);
        }
        if let Some(p) = parent {
            self.concepts[p.index()].children.push(id);
        }
        self.concepts.push(Concept {
            id,
            label,
            parent,
            children: Vec::new(),
            synonyms,
            interpretations,
        });
        Ok(id)
    }

    /// Finalizes the ontology.
    pub fn finish(self) -> Result<Ontology, OntologyError> {
        let roots = self
            .concepts
            .iter()
            .filter(|c| c.parent.is_none())
            .map(|c| c.id)
            .collect();
        let mut index = self.index;
        for senses in index.values_mut() {
            senses.sort_unstable();
            senses.dedup();
        }
        Ok(Ontology {
            concepts: self.concepts,
            interpretations: self.interpretations,
            roots,
            index,
        })
    }
}

/// Fluent builder for a single concept; created via
/// [`OntologyBuilder::concept`], finalized with [`ConceptBuilder::build`].
#[derive(Debug)]
pub struct ConceptBuilder<'a> {
    owner: &'a mut OntologyBuilder,
    label: String,
    parent: Option<SenseId>,
    synonyms: Vec<String>,
    interpretations: Vec<InterpretationId>,
}

impl ConceptBuilder<'_> {
    /// Sets the is-a parent.
    pub fn parent(mut self, parent: SenseId) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Appends one synonym value.
    pub fn synonym(mut self, value: impl Into<String>) -> Self {
        self.synonyms.push(value.into());
        self
    }

    /// Appends several synonym values; the first value of the concept's
    /// overall synonym list becomes its canonical value.
    pub fn synonyms<I, V>(mut self, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<String>,
    {
        self.synonyms.extend(values.into_iter().map(Into::into));
        self
    }

    /// Tags the concept with interpretation labels.
    pub fn interpretations<I>(mut self, interps: I) -> Self
    where
        I: IntoIterator<Item = InterpretationId>,
    {
        self.interpretations.extend(interps);
        self
    }

    /// Validates and inserts the concept, returning its sense id.
    pub fn build(self) -> Result<SenseId, OntologyError> {
        self.owner
            .push_concept(self.label, self.parent, self.synonyms, self.interpretations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_forest_with_children_links() {
        let mut b = OntologyBuilder::new();
        let r1 = b.concept("animals").build().unwrap();
        let r2 = b.concept("vehicles").build().unwrap();
        let cat = b.concept("cat").parent(r1).synonym("felis catus").build().unwrap();
        let o = b.finish().unwrap();
        assert_eq!(o.roots(), &[r1, r2]);
        assert_eq!(o.concept(r1).unwrap().children(), &[cat]);
        assert_eq!(o.concept(cat).unwrap().parent(), Some(r1));
    }

    #[test]
    fn interpretation_labels_are_deduplicated() {
        let mut b = OntologyBuilder::new();
        let a = b.interpretation("FDA");
        let b2 = b.interpretation("MoH");
        let a2 = b.interpretation("FDA");
        assert_eq!(a, a2);
        assert_ne!(a, b2);
        let o = b.finish().unwrap();
        assert_eq!(o.interpretation_labels(), &["FDA".to_string(), "MoH".to_string()]);
        assert_eq!(o.interpretation_label(a).unwrap(), "FDA");
    }

    #[test]
    fn rejects_unknown_parent() {
        let mut b = OntologyBuilder::new();
        let err = b
            .concept("orphan")
            .parent(SenseId::from_index(7))
            .build()
            .unwrap_err();
        assert!(matches!(err, OntologyError::UnknownParent(_)));
    }

    #[test]
    fn rejects_empty_label_and_duplicate_synonyms() {
        let mut b = OntologyBuilder::new();
        assert!(matches!(
            b.concept("").build(),
            Err(OntologyError::EmptyLabel)
        ));
        let err = b
            .concept("c")
            .synonyms(["x", "y", "x"])
            .build()
            .unwrap_err();
        assert!(matches!(err, OntologyError::DuplicateSynonym { .. }));
        assert!(matches!(
            b.concept("c").synonym("").build(),
            Err(OntologyError::EmptyValue { .. })
        ));
    }

    #[test]
    fn a_rejected_concept_names_its_first_repeat_and_leaves_the_builder_unchanged() {
        let mut b = OntologyBuilder::new();
        let kept = b.concept("kept").synonyms(["a", "z"]).build().unwrap();
        // `b` is the first value, in line order, that repeats an earlier one.
        let err = b
            .concept("c")
            .synonyms(["a", "b", "c", "b", "a", "c"])
            .build()
            .unwrap_err();
        assert!(
            matches!(&err, OntologyError::DuplicateSynonym { value, .. } if value == "b"),
            "{err:?}"
        );
        // The same line as ontology text names the same value.
        let text = "ONTO v1\nC - -\tc\ta\tb\tc\tb\ta\tc\n";
        let err = crate::parse_ontology(text).unwrap_err().to_string();
        assert!(err.contains("duplicate synonym \"b\""), "{err}");
        let err = b.concept("c").synonyms(["q", "", "q"]).build().unwrap_err();
        assert!(matches!(err, OntologyError::EmptyValue { .. }), "{err:?}");
        // The rejected concepts left no trace: the next id is 1 and the
        // index names only `kept`.
        let next = b.concept("next").synonyms(["b", "q"]).build().unwrap();
        assert_eq!(next.index(), 1);
        let o = b.finish().unwrap();
        assert_eq!(o.names("a"), &[kept]);
        assert_eq!(o.names("b"), &[next]);
        assert_eq!(o.names("q"), &[next]);
        assert!(o.names("c").is_empty());
        assert_eq!(o.value_count(), 4);
    }

    #[test]
    fn rejects_unknown_interpretation() {
        let mut b = OntologyBuilder::new();
        let err = b
            .concept("c")
            .interpretations([InterpretationId::from_index(3)])
            .build()
            .unwrap_err();
        assert!(matches!(err, OntologyError::UnknownInterpretation(_)));
    }

    #[test]
    fn multi_sense_values_index_both_senses() {
        // "jaguar" as animal and as vehicle (the paper's running example).
        let mut b = OntologyBuilder::new();
        let animal = b
            .concept("panthera onca")
            .synonyms(["jaguar", "panthera onca"])
            .build()
            .unwrap();
        let vehicle = b
            .concept("jaguar land rover")
            .synonyms(["jaguar", "jaguar land rover"])
            .build()
            .unwrap();
        let o = b.finish().unwrap();
        assert_eq!(o.names("jaguar"), &[animal, vehicle]);
        assert_eq!(o.common_sense(["jaguar", "panthera onca"]), vec![animal]);
        assert_eq!(o.common_sense(["jaguar", "jaguar land rover"]), vec![vehicle]);
        assert!(o
            .common_sense(["panthera onca", "jaguar land rover"])
            .is_empty());
    }
}
