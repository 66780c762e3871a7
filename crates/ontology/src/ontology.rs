//! The [`Ontology`] container: a forest of concepts with a value index, plus
//! the [`OntologyRepair`] delta used by the cleaning algorithms.

use std::collections::HashMap;

use crate::concept::{Concept, InterpretationId, SenseId};
use crate::error::OntologyError;

/// A tree-shaped ontology `S`: a forest of [`Concept`] nodes with an index
/// from values to the senses containing them.
///
/// The paper assumes "values in the ontology are indexed and can be accessed
/// in constant time" (§4.3); [`Ontology::names`] provides exactly that.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    pub(crate) concepts: Vec<Concept>,
    pub(crate) interpretations: Vec<String>,
    pub(crate) roots: Vec<SenseId>,
    /// `names(v)`: for each value, the sorted list of senses whose synonym
    /// set contains it.
    pub(crate) index: HashMap<String, Vec<SenseId>>,
}

impl Ontology {
    /// An ontology with no concepts. Under an empty ontology every value has
    /// a single literal interpretation, so synonym OFDs degenerate to
    /// traditional FDs.
    pub fn empty() -> Self {
        Ontology::default()
    }

    /// Number of concepts (= senses).
    #[inline]
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the ontology has no concepts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// All concepts, in insertion (= dense id) order.
    #[inline]
    pub fn concepts(&self) -> impl ExactSizeIterator<Item = &Concept> {
        self.concepts.iter()
    }

    /// All sense ids, in dense order.
    pub fn sense_ids(&self) -> impl ExactSizeIterator<Item = SenseId> + '_ {
        (0..self.concepts.len()).map(SenseId::from_index)
    }

    /// Looks up one concept.
    pub fn concept(&self, id: SenseId) -> Result<&Concept, OntologyError> {
        self.concepts
            .get(id.index())
            .ok_or(OntologyError::UnknownSense(id))
    }

    /// Root concepts of the forest.
    #[inline]
    pub fn roots(&self) -> &[SenseId] {
        &self.roots
    }

    /// Interpretation labels registered in this ontology (e.g. `FDA`, `MoH`).
    #[inline]
    pub fn interpretation_labels(&self) -> &[String] {
        &self.interpretations
    }

    /// The label of one interpretation.
    pub fn interpretation_label(
        &self,
        id: InterpretationId,
    ) -> Result<&str, OntologyError> {
        self.interpretations
            .get(id.index())
            .map(String::as_str)
            .ok_or(OntologyError::UnknownInterpretation(id.0))
    }

    /// `names(v)`: the senses whose synonym set contains `value`, sorted by
    /// sense id. Returns an empty slice for values unknown to the ontology.
    #[inline]
    pub fn names(&self, value: &str) -> &[SenseId] {
        self.index.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the ontology knows `value` at all.
    #[inline]
    pub fn contains_value(&self, value: &str) -> bool {
        self.index.contains_key(value)
    }

    /// Total number of distinct values across all synonym sets.
    #[inline]
    pub fn value_count(&self) -> usize {
        self.index.len()
    }

    /// Iterates over every distinct value known to the ontology.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// `synonyms(E)`: the synonym set of sense `id`.
    pub fn synonyms(&self, id: SenseId) -> Result<&[String], OntologyError> {
        self.concept(id).map(|c| c.synonyms())
    }

    /// The canonical value of a sense: its first synonym, falling back to the
    /// concept label for synonym-less (purely structural) concepts.
    pub fn canonical(&self, id: SenseId) -> Result<&str, OntologyError> {
        self.concept(id)
            .map(|c| c.canonical().unwrap_or_else(|| c.label()))
    }

    /// The senses shared by *all* of `values` — the intersection
    /// `⋂ names(v)` from Definition 3.1. Empty input yields an empty result.
    pub fn common_sense<'a, I>(&self, values: I) -> Vec<SenseId>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut it = values.into_iter();
        let Some(first) = it.next() else {
            return Vec::new();
        };
        let mut acc: Vec<SenseId> = self.names(first).to_vec();
        for v in it {
            if acc.is_empty() {
                return acc;
            }
            let names = self.names(v);
            acc.retain(|s| names.binary_search(s).is_ok());
        }
        acc
    }

    /// All concepts in the subtree rooted at `id`, including `id` itself,
    /// in depth-first preorder.
    pub fn descendants(&self, id: SenseId) -> Result<Vec<SenseId>, OntologyError> {
        self.concept(id)?;
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            out.push(cur);
            let c = &self.concepts[cur.index()];
            // Reverse keeps preorder stable (children visited left-to-right).
            stack.extend(c.children.iter().rev().copied());
        }
        Ok(out)
    }

    /// `descendants(E)` from the paper: every synonym of `id` or of any
    /// concept below it.
    pub fn descendant_values(&self, id: SenseId) -> Result<Vec<&str>, OntologyError> {
        let mut out = Vec::new();
        for d in self.descendants(id)? {
            out.extend(self.concepts[d.index()].synonyms.iter().map(String::as_str));
        }
        Ok(out)
    }

    /// Ancestors of `id` within `theta` is-a steps, paired with their
    /// distance; distance 0 is `id` itself.
    pub fn ancestors_within(
        &self,
        id: SenseId,
        theta: usize,
    ) -> Result<Vec<(SenseId, usize)>, OntologyError> {
        self.concept(id)?;
        let mut out = vec![(id, 0)];
        let mut cur = id;
        for dist in 1..=theta {
            match self.concepts[cur.index()].parent {
                Some(p) => {
                    out.push((p, dist));
                    cur = p;
                }
                None => break,
            }
        }
        Ok(out)
    }

    /// Depth of a concept (0 for roots).
    pub fn depth(&self, id: SenseId) -> Result<usize, OntologyError> {
        self.concept(id)?;
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.concepts[cur.index()].parent {
            d += 1;
            cur = p;
        }
        Ok(d)
    }

    /// Adds a new synonym `value` to sense `id` — the paper's **ontology
    /// repair** primitive ("insertion of new value(s) to a node in S w.r.t. a
    /// sense λ", §5.1). The value index is kept sorted.
    pub fn add_synonym(
        &mut self,
        id: SenseId,
        value: impl Into<String>,
    ) -> Result<(), OntologyError> {
        let value = value.into();
        if value.is_empty() {
            return Err(OntologyError::EmptyValue { sense: id });
        }
        let idx = id.index();
        if idx >= self.concepts.len() {
            return Err(OntologyError::UnknownSense(id));
        }
        if self.concepts[idx].has_synonym(&value) {
            return Err(OntologyError::DuplicateSynonym { sense: id, value });
        }
        let senses = self.index.entry(value.clone()).or_default();
        match senses.binary_search(&id) {
            Ok(_) => unreachable!("index and synonym set out of sync"),
            Err(pos) => senses.insert(pos, id),
        }
        self.concepts[idx].synonyms.push(value);
        Ok(())
    }

    /// Applies a repair delta, returning the repaired ontology `S'` and
    /// leaving `self` untouched.
    pub fn with_repair(&self, repair: &OntologyRepair) -> Result<Ontology, OntologyError> {
        let mut s = self.clone();
        repair.apply(&mut s)?;
        Ok(s)
    }

    /// Diffs two *versions* of the same ontology (matched concept-by-concept
    /// — same count, labels and parents), returning the additions that turn
    /// `self` into `newer` as an [`OntologyRepair`], plus the values `self`
    /// has that `newer` dropped.
    ///
    /// This is the paper's §1 evolution story made operational: when a new
    /// standards release lands (e.g. the FDA's monthly drug approvals), the
    /// delta against the deployed ontology *is* an ontology repair.
    pub fn diff(
        &self,
        newer: &Ontology,
    ) -> Result<(OntologyRepair, Vec<(SenseId, String)>), OntologyError> {
        if self.concepts.len() != newer.concepts.len() {
            return Err(OntologyError::UnknownSense(SenseId::from_index(
                self.concepts.len().min(newer.concepts.len()),
            )));
        }
        let mut adds = OntologyRepair::new();
        let mut removed = Vec::new();
        for (old, new) in self.concepts.iter().zip(&newer.concepts) {
            if old.label != new.label || old.parent != new.parent {
                return Err(OntologyError::UnknownSense(old.id));
            }
            for v in &new.synonyms {
                if !old.has_synonym(v) {
                    adds.add(old.id, v.clone());
                }
            }
            for v in &old.synonyms {
                if !new.has_synonym(v) {
                    removed.push((old.id, v.clone()));
                }
            }
        }
        Ok((adds, removed))
    }

    /// The θ-expansion `S↑θ`: each concept's synonym set is widened to
    /// every value of its descendants within `theta` is-a steps (concept
    /// ids, parents and interpretations are preserved).
    ///
    /// An inheritance OFD over `S` with bound `theta` is equivalent to a
    /// *synonym* OFD over `S↑θ` — two values share an ancestor within θ
    /// exactly when some expanded concept contains both — which is how the
    /// cleaning pipeline supports inheritance semantics (the paper's stated
    /// future work) without new machinery.
    pub fn inheritance_expansion(&self, theta: usize) -> Ontology {
        let mut expanded = self.clone();
        // Collect per-concept expanded synonym lists (reading the original
        // structure) and the new index together. Concepts go in id order,
        // so a value's index entry ends in `c.id` exactly when `c`'s list
        // already holds it: first occurrences only, in one pass, and every
        // entry comes out sorted and distinct.
        let mut index: HashMap<String, Vec<SenseId>> = HashMap::new();
        let mut new_synonyms: Vec<Vec<String>> = Vec::with_capacity(self.concepts.len());
        for c in &self.concepts {
            let mut values: Vec<String> = Vec::new();
            // Descendants within theta steps of c.
            let mut stack: Vec<(SenseId, usize)> = vec![(c.id, 0)];
            while let Some((cur, depth)) = stack.pop() {
                let concept = &self.concepts[cur.index()];
                for v in &concept.synonyms {
                    let senses = index.entry(v.clone()).or_default();
                    if senses.last() != Some(&c.id) {
                        senses.push(c.id);
                        values.push(v.clone());
                    }
                }
                if depth < theta {
                    for &child in &concept.children {
                        stack.push((child, depth + 1));
                    }
                }
            }
            new_synonyms.push(values);
        }
        for (concept, values) in expanded.concepts.iter_mut().zip(new_synonyms) {
            concept.synonyms = values;
        }
        expanded.index = index;
        expanded
    }
}

/// A set of ontology repairs: values to insert under given senses.
///
/// `dist(S, S')` (Definition 5.2 of the repair section) is the number of new
/// values added, i.e. [`OntologyRepair::dist`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OntologyRepair {
    adds: Vec<(SenseId, String)>,
}

impl OntologyRepair {
    /// An empty repair (`S' = S`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules insertion of `value` under sense `sense`. Duplicate
    /// (sense, value) pairs are ignored so `dist` counts distinct additions.
    pub fn add(&mut self, sense: SenseId, value: impl Into<String>) -> &mut Self {
        let value = value.into();
        if !self.adds.iter().any(|(s, v)| *s == sense && *v == value) {
            self.adds.push((sense, value));
        }
        self
    }

    /// The scheduled additions.
    pub fn adds(&self) -> &[(SenseId, String)] {
        &self.adds
    }

    /// `dist(S, S')`: number of values this repair adds.
    pub fn dist(&self) -> usize {
        self.adds.len()
    }

    /// Whether the repair is empty.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty()
    }

    /// Applies the repair to `onto` in place.
    pub fn apply(&self, onto: &mut Ontology) -> Result<(), OntologyError> {
        for (sense, value) in &self.adds {
            onto.add_synonym(*sense, value.clone())?;
        }
        Ok(())
    }

    /// Merges another repair into this one (deduplicating).
    pub fn extend_from(&mut self, other: &OntologyRepair) {
        for (s, v) in &other.adds {
            self.add(*s, v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OntologyBuilder;

    fn small() -> (Ontology, SenseId, SenseId, SenseId) {
        let mut b = OntologyBuilder::new();
        let fda = b.interpretation("FDA");
        let root = b.concept("drug").build().unwrap();
        let nsaid = b
            .concept("NSAID")
            .parent(root)
            .synonyms(["ibuprofen", "naproxen", "NSAID"])
            .interpretations([fda])
            .build()
            .unwrap();
        let dilt = b
            .concept("diltiazem")
            .parent(root)
            .synonyms(["cartia", "tiazac"])
            .build()
            .unwrap();
        (b.finish().unwrap(), root, nsaid, dilt)
    }

    #[test]
    fn names_and_common_sense() {
        let (o, _, nsaid, dilt) = small();
        assert_eq!(o.names("ibuprofen"), &[nsaid]);
        assert_eq!(o.names("cartia"), &[dilt]);
        assert_eq!(o.names("unknown"), &[] as &[SenseId]);
        assert_eq!(o.common_sense(["ibuprofen", "naproxen"]), vec![nsaid]);
        assert!(o.common_sense(["ibuprofen", "cartia"]).is_empty());
        assert!(o.common_sense(std::iter::empty()).is_empty());
    }

    #[test]
    fn descendants_and_values() {
        let (o, root, nsaid, dilt) = small();
        let d = o.descendants(root).unwrap();
        assert_eq!(d, vec![root, nsaid, dilt]);
        let vals = o.descendant_values(root).unwrap();
        assert_eq!(vals, vec!["ibuprofen", "naproxen", "NSAID", "cartia", "tiazac"]);
    }

    #[test]
    fn ancestors_and_depth() {
        let (o, root, nsaid, _) = small();
        assert_eq!(o.depth(root).unwrap(), 0);
        assert_eq!(o.depth(nsaid).unwrap(), 1);
        let a = o.ancestors_within(nsaid, 5).unwrap();
        assert_eq!(a, vec![(nsaid, 0), (root, 1)]);
        let a0 = o.ancestors_within(nsaid, 0).unwrap();
        assert_eq!(a0, vec![(nsaid, 0)]);
    }

    #[test]
    fn canonical_falls_back_to_label() {
        let (o, root, nsaid, _) = small();
        assert_eq!(o.canonical(nsaid).unwrap(), "ibuprofen");
        assert_eq!(o.canonical(root).unwrap(), "drug");
    }

    #[test]
    fn add_synonym_updates_index() {
        let (mut o, _, _, dilt) = small();
        assert!(!o.contains_value("adizem"));
        o.add_synonym(dilt, "adizem").unwrap();
        assert_eq!(o.names("adizem"), &[dilt]);
        assert!(o.concept(dilt).unwrap().has_synonym("adizem"));
        // Duplicate within the same sense is rejected.
        let err = o.add_synonym(dilt, "adizem").unwrap_err();
        assert!(matches!(err, OntologyError::DuplicateSynonym { .. }));
        // Same value under a *different* sense is fine (multi-sense values).
        let nsaid = o.names("ibuprofen")[0];
        o.add_synonym(nsaid, "adizem").unwrap();
        assert_eq!(o.names("adizem").len(), 2);
    }

    #[test]
    fn add_synonym_rejects_bad_inputs() {
        let (mut o, _, _, dilt) = small();
        assert!(matches!(
            o.add_synonym(dilt, ""),
            Err(OntologyError::EmptyValue { .. })
        ));
        assert!(matches!(
            o.add_synonym(SenseId::from_index(999), "x"),
            Err(OntologyError::UnknownSense(_))
        ));
    }

    #[test]
    fn repair_delta_applies_without_mutating_base() {
        let (o, _, nsaid, dilt) = small();
        let mut r = OntologyRepair::new();
        r.add(dilt, "adizem").add(nsaid, "advil").add(dilt, "adizem");
        assert_eq!(r.dist(), 2);
        let s2 = o.with_repair(&r).unwrap();
        assert!(s2.contains_value("adizem"));
        assert!(s2.contains_value("advil"));
        assert!(!o.contains_value("adizem"));
    }

    #[test]
    fn repair_merge_dedups() {
        let (_, _, nsaid, dilt) = small();
        let mut a = OntologyRepair::new();
        a.add(dilt, "x");
        let mut b = OntologyRepair::new();
        b.add(dilt, "x").add(nsaid, "y");
        a.extend_from(&b);
        assert_eq!(a.dist(), 2);
    }

    #[test]
    fn empty_ontology_behaves_like_no_knowledge() {
        let o = Ontology::empty();
        assert!(o.is_empty());
        assert_eq!(o.names("anything"), &[] as &[SenseId]);
        assert!(o.common_sense(["a", "b"]).is_empty());
        assert_eq!(o.value_count(), 0);
    }

    #[test]
    fn diff_recovers_the_applied_repair() {
        let (base, _, nsaid, dilt) = small();
        let mut repair = OntologyRepair::new();
        repair.add(dilt, "adizem").add(nsaid, "advil");
        let newer = base.with_repair(&repair).unwrap();
        let (adds, removed) = base.diff(&newer).unwrap();
        let canon = |r: &OntologyRepair| {
            let mut v: Vec<_> = r.adds().to_vec();
            v.sort();
            v
        };
        assert_eq!(canon(&adds), canon(&repair), "diff must reproduce the repair delta");
        assert!(removed.is_empty());
        // Reverse direction: the additions show up as removals.
        let (rev_adds, rev_removed) = newer.diff(&base).unwrap();
        assert!(rev_adds.is_empty());
        assert_eq!(rev_removed.len(), 2);
        // Applying the diff reproduces the newer version.
        let rebuilt = base.with_repair(&adds).unwrap();
        for (a, b) in rebuilt.concepts().zip(newer.concepts()) {
            assert_eq!(a.synonyms(), b.synonyms());
        }
    }

    #[test]
    fn diff_rejects_structural_mismatch() {
        let (base, ..) = small();
        let other = crate::samples::country_ontology();
        assert!(base.diff(&other).is_err());
    }

    #[test]
    fn inheritance_expansion_widens_concepts() {
        let (o, root, nsaid, dilt) = small();
        let e0 = o.inheritance_expansion(0);
        // θ = 0: identical synonym sets.
        for (a, b) in o.concepts().zip(e0.concepts()) {
            assert_eq!(a.synonyms(), b.synonyms());
        }
        let e1 = o.inheritance_expansion(1);
        // θ = 1: the root absorbs its children's values.
        let root_syns = e1.concept(root).unwrap().synonyms();
        assert!(root_syns.iter().any(|s| s == "ibuprofen"));
        assert!(root_syns.iter().any(|s| s == "cartia"));
        // Leaves are unchanged.
        assert_eq!(e1.concept(nsaid).unwrap().synonyms().len(), 3);
        assert_eq!(e1.concept(dilt).unwrap().synonyms().len(), 2);
        // The index reflects the widened membership.
        assert!(e1.names("ibuprofen").contains(&root));
        assert!(e1.names("ibuprofen").contains(&nsaid));
        // Inheritance-as-synonym equivalence: ibuprofen and cartia share
        // the root ancestor within θ = 1.
        assert!(!e1.common_sense(["ibuprofen", "cartia"]).is_empty());
        assert!(o.common_sense(["ibuprofen", "cartia"]).is_empty());
    }

    /// A 100 000-synonym concept parses, and its θ-expansion equals a
    /// set-based reference, synonym lists and index alike.
    #[test]
    fn wide_concepts_parse_and_expand_in_linear_time() {
        use std::collections::HashSet;
        let wide: Vec<String> = (0..100_000).map(|i| format!("v{i}")).collect();
        let mut text = String::from("ONTO v1\nC - -\troot\tshared\tv7\n");
        text.push_str(&format!("C 0 -\twide\t{}\n", wide.join("\t")));
        text.push_str("C 1 -\tleaf\tv3\tshared\tleaf-only\n");
        let o = crate::parse_ontology(&text).expect("a wide concept parses");
        assert_eq!(
            o.synonyms(SenseId::from_index(1)).unwrap().len(),
            wide.len()
        );
        for theta in 0..3 {
            let expanded = o.inheritance_expansion(theta);
            let mut index: HashMap<&str, Vec<SenseId>> = HashMap::new();
            for c in o.concepts() {
                let (mut seen, mut values) = (HashSet::new(), Vec::new());
                let mut stack = vec![(c.id, 0)];
                while let Some((cur, depth)) = stack.pop() {
                    let concept = o.concept(cur).unwrap();
                    for v in concept.synonyms() {
                        if seen.insert(v.as_str()) {
                            values.push(v.as_str());
                            index.entry(v.as_str()).or_default().push(c.id);
                        }
                    }
                    if depth < theta {
                        stack.extend(concept.children().iter().map(|&k| (k, depth + 1)));
                    }
                }
                assert_eq!(
                    expanded.synonyms(c.id).unwrap(),
                    values.as_slice(),
                    "θ = {theta}"
                );
            }
            assert_eq!(expanded.value_count(), index.len());
            for (v, senses) in &index {
                assert_eq!(expanded.names(v), senses.as_slice(), "θ = {theta}, {v}");
            }
        }
    }

    #[test]
    fn sense_ids_are_dense() {
        let (o, ..) = small();
        let ids: Vec<_> = o.sense_ids().collect();
        assert_eq!(ids.len(), o.len());
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }
}
