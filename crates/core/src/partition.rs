//! Partitions Π_X and stripped partitions Π*_X (§2, §3.2).
//!
//! A partition groups tuple ids by their values over an attribute set `X`;
//! the *stripped* partition drops singleton classes, which can never violate
//! an OFD (Lemma 3.10). Products of stripped partitions are computed in
//! linear time with the classic TANE probe-table scheme, which is what makes
//! level-wise lattice discovery linear in the number of tuples.
//!
//! ## Memory layout
//!
//! Both partition types use a flat CSR (compressed sparse row) layout:
//! one `tuples` array holding every member, and an `offsets` array of
//! `class_count + 1` entries delimiting classes — class `i` is
//! `tuples[offsets[i]..offsets[i+1]]`. Two allocations per partition
//! regardless of class count, cache-linear iteration, and byte accounting
//! ([`StrippedPartition::approx_bytes`]) in O(1).
//!
//! The layout is **canonical by construction**: members ascend within a
//! class and classes are ordered by representative (smallest member), so
//! `==` on the flat arrays is semantic partition equality. Group ids are
//! assigned in first-occurrence order during refinement, which already
//! orders groups by representative — a counting-sort scatter in row order
//! therefore emits canonical CSR without any final sort.

use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::schema::{AttrId, AttrSet};
use crate::value::ValueId;

/// Iterator over the classes of a CSR partition, yielding `&[u32]` slices.
#[derive(Debug, Clone)]
pub struct Classes<'a> {
    tuples: &'a [u32],
    offsets: &'a [u32],
}

impl<'a> Iterator for Classes<'a> {
    type Item = &'a [u32];

    #[inline]
    fn next(&mut self) -> Option<&'a [u32]> {
        match self.offsets {
            [start, rest @ ..] if !rest.is_empty() => {
                self.offsets = rest;
                Some(&self.tuples[*start as usize..rest[0] as usize])
            }
            _ => None,
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.offsets.len().saturating_sub(1);
        (n, Some(n))
    }
}

impl ExactSizeIterator for Classes<'_> {}

/// Builds canonical CSR arrays from per-row group ids, where group ids were
/// assigned in first-occurrence order (id 0 appears before id 1, …). A
/// counting-sort scatter in row order then yields members ascending within
/// each class and classes ordered by representative — no sort needed.
fn csr_from_group_ids(group_of: &[u32], n_groups: usize) -> (Vec<u32>, Vec<u32>) {
    let mut offsets = vec![0u32; n_groups + 1];
    for &g in group_of {
        offsets[g as usize + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor: Vec<u32> = offsets[..n_groups].to_vec();
    let mut tuples = vec![0u32; group_of.len()];
    for (t, &g) in group_of.iter().enumerate() {
        let c = &mut cursor[g as usize];
        tuples[*c as usize] = t as u32;
        *c += 1;
    }
    (tuples, offsets)
}

/// A full partition Π_X: every equivalence class, including singletons.
///
/// Classes and their members are sorted ascending, and classes are ordered by
/// representative (smallest member), so partitions compare deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    tuples: Vec<u32>,
    offsets: Vec<u32>,
    n_rows: usize,
}

impl Partition {
    /// Computes Π_X for `attrs` over `rel`.
    pub fn of(rel: &Relation, attrs: AttrSet) -> Partition {
        let n = rel.n_rows();
        let attr_list: Vec<AttrId> = attrs.iter().collect();
        let (tuples, offsets) = match attr_list.as_slice() {
            [] => {
                if n == 0 {
                    (Vec::new(), vec![0])
                } else {
                    ((0..n as u32).collect(), vec![0, n as u32])
                }
            }
            many => {
                // Two-pass refinement instead of Vec-keyed hashing: group
                // by the first attribute through an array over the column's
                // value-id range, then refine group ids attribute by
                // attribute — one (u32, ValueId) key per row per attribute,
                // no per-row Vec allocation. Group ids are assigned densely
                // in first-occurrence order.
                let (mut group_of, mut n_groups) = {
                    let col = rel.column(many[0]);
                    let lo = col.iter().map(|v| v.index()).min().unwrap_or(0);
                    let hi = col.iter().map(|v| v.index()).max().unwrap_or(0);
                    let mut ids = vec![UNASSIGNED; hi - lo + 1];
                    let mut next = 0u32;
                    let out: Vec<u32> = col
                        .iter()
                        .map(|v| {
                            let id = &mut ids[v.index() - lo];
                            if *id == UNASSIGNED {
                                *id = next;
                                next += 1;
                            }
                            *id
                        })
                        .collect();
                    (out, next as usize)
                };
                for a in &many[1..] {
                    let col = rel.column(*a);
                    let mut ids: FxHashMap<(u32, ValueId), u32> = FxHashMap::default();
                    for t in 0..n {
                        let next = ids.len() as u32;
                        group_of[t] = *ids.entry((group_of[t], col[t])).or_insert(next);
                    }
                    n_groups = ids.len();
                }
                csr_from_group_ids(&group_of, n_groups)
            }
        };
        Partition {
            tuples,
            offsets,
            n_rows: n,
        }
    }

    /// Iterates the equivalence classes as slices, in canonical order.
    #[inline]
    pub fn classes(&self) -> Classes<'_> {
        Classes {
            tuples: &self.tuples,
            offsets: &self.offsets,
        }
    }

    /// The `i`-th equivalence class in canonical order.
    #[inline]
    pub fn class(&self, i: usize) -> &[u32] {
        &self.tuples[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of classes (including singletons).
    #[inline]
    pub fn class_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of tuples partitioned.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Drops singleton classes, yielding Π*_X (copying; prefer
    /// [`Partition::into_stripped`] when the full partition is no longer
    /// needed).
    pub fn strip(&self) -> StrippedPartition {
        self.clone().into_stripped()
    }

    /// Drops singleton classes in place, yielding Π*_X. Both arrays are
    /// shrunk to the retained tuples and classes, so
    /// [`StrippedPartition::approx_bytes`] charges what Π*_X holds, not the
    /// `n` slots of Π_X (a superkey's Π* holds nothing).
    pub fn into_stripped(self) -> StrippedPartition {
        let Partition {
            mut tuples,
            offsets,
            n_rows,
        } = self;
        let mut kept = vec![0u32];
        let mut w = 0usize;
        for i in 0..offsets.len() - 1 {
            let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
            if e - s >= 2 {
                tuples.copy_within(s..e, w);
                w += e - s;
                kept.push(w as u32);
            }
        }
        tuples.truncate(w);
        tuples.shrink_to_fit();
        kept.shrink_to_fit();
        StrippedPartition {
            tuples,
            offsets: kept,
            n_rows,
        }
    }
}

/// A stripped partition Π*_X: only classes with at least two tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    tuples: Vec<u32>,
    offsets: Vec<u32>,
    n_rows: usize,
}

/// Reusable scratch buffers for [`StrippedPartition::product_with_scratch`]
/// and [`StrippedPartition::refine_with_scratch`], so repeated products
/// during lattice traversal do not reallocate.
///
/// Invariant between calls: every `probe` and `slot` entry is `UNASSIGNED`
/// and every `counts` entry is zero — each call resets exactly the entries
/// it touched (O(‖Π*‖), not O(n)) before returning.
#[derive(Debug, Default)]
pub struct ProductScratch {
    probe: Vec<u32>,
    counts: Vec<u32>,
    cursor: Vec<u32>,
    touched: Vec<u32>,
    out_tuples: Vec<u32>,
    metas: Vec<ClassMeta>,
    /// Value id → its group within the class being refined.
    slot: Vec<u32>,
    /// Per group of that class: its size, then its staging cursor.
    sizes: Vec<u32>,
}

/// Per-output-class bookkeeping during a product: representative (smallest
/// member) plus the class's region in the staging buffer.
#[derive(Debug, Clone, Copy)]
struct ClassMeta {
    first: u32,
    start: u32,
    len: u32,
}

const UNASSIGNED: u32 = u32::MAX;
const SKIP: u32 = u32::MAX;

impl StrippedPartition {
    /// Computes Π*_X directly.
    pub fn of(rel: &Relation, attrs: AttrSet) -> StrippedPartition {
        Partition::of(rel, attrs).into_stripped()
    }

    /// The empty stripped partition over `n_rows` tuples — the partition of
    /// any superkey. Used by Opt-3 to skip partition products below keys.
    pub fn empty(n_rows: usize) -> StrippedPartition {
        StrippedPartition {
            tuples: Vec::new(),
            offsets: vec![0],
            n_rows,
        }
    }

    /// Computes the single-attribute stripped partition — the level-1 inputs
    /// of the discovery lattice.
    pub fn of_attr(rel: &Relation, attr: AttrId) -> StrippedPartition {
        StrippedPartition::of(rel, AttrSet::single(attr))
    }

    /// Builds Π* from explicit classes (used by lhs-synonym merging, which
    /// coarsens a partition outside any attribute set). Classes are
    /// canonicalized: members sorted ascending, singletons dropped, classes
    /// ordered by representative. Members must be distinct and `< n_rows`.
    pub fn from_classes(
        n_rows: usize,
        classes: impl IntoIterator<Item = Vec<u32>>,
    ) -> StrippedPartition {
        let mut sorted: Vec<Vec<u32>> = classes
            .into_iter()
            .filter(|c| c.len() >= 2)
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        sorted.sort_unstable_by_key(|c| c[0]);
        let mut tuples = Vec::with_capacity(sorted.iter().map(Vec::len).sum());
        let mut offsets = Vec::with_capacity(sorted.len() + 1);
        offsets.push(0u32);
        for c in &sorted {
            debug_assert!(c.iter().all(|&t| (t as usize) < n_rows));
            tuples.extend_from_slice(c);
            offsets.push(tuples.len() as u32);
        }
        StrippedPartition {
            tuples,
            offsets,
            n_rows,
        }
    }

    /// Iterates the equivalence classes (each of size ≥ 2) as slices, in
    /// canonical order.
    #[inline]
    pub fn classes(&self) -> Classes<'_> {
        Classes {
            tuples: &self.tuples,
            offsets: &self.offsets,
        }
    }

    /// The `i`-th equivalence class in canonical order.
    #[inline]
    pub fn class(&self, i: usize) -> &[u32] {
        &self.tuples[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of non-singleton classes.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of tuples in the underlying relation.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Total tuples across all retained classes (`||Π*||`).
    #[inline]
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// Approximate heap + inline footprint in bytes, used for cache byte
    /// accounting. Exact for the CSR arrays (4 bytes per entry); allocator
    /// overhead is not modelled.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<StrippedPartition>()
            + (self.tuples.capacity() + self.offsets.capacity()) * std::mem::size_of::<u32>()
    }

    /// TANE's error measure `e(X) = (||Π*|| − |Π*|) / n`: the fraction of
    /// tuples that must be removed for `X` to become a key.
    pub fn error(&self) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        (self.tuple_count() - self.class_count()) as f64 / self.n_rows as f64
    }

    /// Whether `X` is a superkey: the stripped partition is empty
    /// (Optimization 3 / Lemma "Keys").
    #[inline]
    pub fn is_superkey(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Linear-time product Π*_X · Π*_Y = Π*_{X ∪ Y}.
    pub fn product(&self, other: &StrippedPartition) -> StrippedPartition {
        let mut scratch = ProductScratch::default();
        self.product_with_scratch(other, &mut scratch)
    }

    /// Product reusing caller-provided scratch buffers. The hot path does
    /// not allocate per class: intersections are counted, staged into one
    /// flat buffer, and emitted as CSR; only the two output arrays are
    /// freshly allocated.
    pub fn product_with_scratch(
        &self,
        other: &StrippedPartition,
        scratch: &mut ProductScratch,
    ) -> StrippedPartition {
        debug_assert_eq!(self.n_rows, other.n_rows);
        // Probe table: tuple -> class index in `self` (or UNASSIGNED). Grown
        // lazily; entries outside a call are UNASSIGNED by invariant, so
        // only `self`'s tuples need resetting afterwards.
        if scratch.probe.len() < self.n_rows {
            scratch.probe.resize(self.n_rows, UNASSIGNED);
        }
        let nc = self.class_count();
        if scratch.counts.len() < nc {
            scratch.counts.resize(nc, 0);
            scratch.cursor.resize(nc, 0);
        }
        for (i, class) in self.classes().enumerate() {
            for &t in class {
                scratch.probe[t as usize] = i as u32;
            }
        }
        scratch.out_tuples.clear();
        scratch.metas.clear();
        for class in other.classes() {
            // Count pass: size of each intersection with `self`'s classes.
            scratch.touched.clear();
            for &t in class {
                let p = scratch.probe[t as usize];
                if p != UNASSIGNED {
                    if scratch.counts[p as usize] == 0 {
                        scratch.touched.push(p);
                    }
                    scratch.counts[p as usize] += 1;
                }
            }
            // Reserve a staging region per intersection of size ≥ 2.
            for &p in &scratch.touched {
                let c = scratch.counts[p as usize];
                scratch.cursor[p as usize] = if c >= 2 {
                    let start = scratch.out_tuples.len() as u32;
                    scratch.metas.push(ClassMeta {
                        first: 0,
                        start,
                        len: c,
                    });
                    scratch
                        .out_tuples
                        .resize(scratch.out_tuples.len() + c as usize, 0);
                    start
                } else {
                    SKIP
                };
            }
            // Scatter pass: members arrive in ascending order because the
            // source class is ascending.
            for &t in class {
                let p = scratch.probe[t as usize];
                if p != UNASSIGNED {
                    let cur = scratch.cursor[p as usize];
                    if cur != SKIP {
                        scratch.out_tuples[cur as usize] = t;
                        scratch.cursor[p as usize] = cur + 1;
                    }
                }
            }
            for &p in &scratch.touched {
                scratch.counts[p as usize] = 0;
            }
        }
        // Restore the probe invariant in O(||self||).
        for &t in &self.tuples {
            scratch.probe[t as usize] = UNASSIGNED;
        }
        self.emit_staged(scratch)
    }

    /// Π*_{X ∪ {a}} from this Π*_X and `attr`'s column of `rel`: every
    /// class splits by its members' values. Equal to the product with
    /// Π*_a, but reads only this partition's tuples, so it costs
    /// O(‖Π*_X‖) however large Π*_a is.
    pub fn refine_with_scratch(
        &self,
        rel: &Relation,
        attr: AttrId,
        scratch: &mut ProductScratch,
    ) -> StrippedPartition {
        debug_assert_eq!(self.n_rows, rel.n_rows());
        let column = rel.column(attr);
        if scratch.slot.len() < rel.pool().len() {
            scratch.slot.resize(rel.pool().len(), UNASSIGNED);
        }
        scratch.out_tuples.clear();
        scratch.metas.clear();
        for class in self.classes() {
            // Count pass: one group per distinct value, numbered in
            // first-occurrence order.
            scratch.touched.clear();
            scratch.sizes.clear();
            for &t in class {
                let v = column[t as usize].index();
                let group = &mut scratch.slot[v];
                if *group == UNASSIGNED {
                    *group = scratch.sizes.len() as u32;
                    scratch.touched.push(v as u32);
                    scratch.sizes.push(0);
                }
                scratch.sizes[*group as usize] += 1;
            }
            // Reserve a staging region per group of size ≥ 2.
            for size in &mut scratch.sizes {
                *size = if *size >= 2 {
                    let start = scratch.out_tuples.len() as u32;
                    scratch.metas.push(ClassMeta {
                        first: 0,
                        start,
                        len: *size,
                    });
                    scratch
                        .out_tuples
                        .resize(scratch.out_tuples.len() + *size as usize, 0);
                    start
                } else {
                    SKIP
                };
            }
            // Scatter pass: members arrive in ascending order because the
            // class is ascending.
            for &t in class {
                let group = scratch.slot[column[t as usize].index()] as usize;
                let cur = scratch.sizes[group];
                if cur != SKIP {
                    scratch.out_tuples[cur as usize] = t;
                    scratch.sizes[group] = cur + 1;
                }
            }
            for &v in &scratch.touched {
                scratch.slot[v as usize] = UNASSIGNED;
            }
        }
        self.emit_staged(scratch)
    }

    /// The partition of the classes staged in `scratch`, in canonical
    /// order: members already ascend within each class, so the classes
    /// are sorted by representative (distinct keys).
    fn emit_staged(&self, scratch: &mut ProductScratch) -> StrippedPartition {
        for m in &mut scratch.metas {
            m.first = scratch.out_tuples[m.start as usize];
        }
        scratch.metas.sort_unstable_by_key(|m| m.first);
        let mut tuples = Vec::with_capacity(scratch.out_tuples.len());
        let mut offsets = Vec::with_capacity(scratch.metas.len() + 1);
        offsets.push(0u32);
        for m in &scratch.metas {
            tuples.extend_from_slice(
                &scratch.out_tuples[m.start as usize..(m.start + m.len) as usize],
            );
            offsets.push(tuples.len() as u32);
        }
        StrippedPartition {
            tuples,
            offsets,
            n_rows: self.n_rows,
        }
    }

    /// Whether this partition refines `other`: every class here is contained
    /// in a single class of `other` (treating stripped-away tuples as
    /// singletons). Π*_{X∪Y} always refines Π*_X.
    pub fn refines(&self, other: &StrippedPartition) -> bool {
        let mut probe = vec![UNASSIGNED; self.n_rows];
        for (i, class) in other.classes().enumerate() {
            for &t in class {
                probe[t as usize] = i as u32;
            }
        }
        self.classes().all(|class| {
            let first = probe[class[0] as usize];
            first != UNASSIGNED && class.iter().all(|&t| probe[t as usize] == first)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::table1;

    fn cc_partition() -> (Relation, StrippedPartition) {
        let rel = table1();
        let cc = rel.schema().attr("CC").unwrap();
        let p = StrippedPartition::of_attr(&rel, cc);
        (rel, p)
    }

    #[test]
    fn paper_example_pi_cc() {
        // §2: Π_CC = {{t1,t5,t6,t8..t11},{t2,t4,t7},{t3}} (1-indexed in the
        // paper; the extended Table 1 has 11 tuples so the US class grows).
        let rel = table1();
        let cc = rel.schema().attr("CC").unwrap();
        let p = Partition::of(&rel, AttrSet::single(cc));
        assert_eq!(p.class_count(), 3);
        assert_eq!(p.class(0), &[0, 4, 5, 7, 8, 9, 10]); // US
        assert_eq!(p.class(1), &[1, 3, 6]); // IN
        assert_eq!(p.class(2), &[2]); // CA
    }

    #[test]
    fn strip_drops_singletons() {
        let (_, p) = cc_partition();
        assert_eq!(p.class_count(), 2, "the CA singleton is stripped");
        assert_eq!(p.tuple_count(), 10);
        assert!(!p.is_superkey());
    }

    #[test]
    fn into_stripped_matches_strip() {
        let rel = table1();
        for name in ["CC", "SYMP", "DIAG", "TEST"] {
            let set = rel.schema().set([name]).unwrap();
            let full = Partition::of(&rel, set);
            assert_eq!(full.strip(), full.clone().into_stripped(), "{name}");
        }
    }

    #[test]
    fn empty_attrset_partition_is_one_class() {
        let rel = table1();
        let p = Partition::of(&rel, AttrSet::empty());
        assert_eq!(p.class_count(), 1);
        assert_eq!(p.class(0).len(), 11);
    }

    #[test]
    fn multi_attribute_partition_groups_by_tuple() {
        let rel = table1();
        let set = rel.schema().set(["SYMP", "DIAG"]).unwrap();
        let p = Partition::of(&rel, set);
        // joint pain/osteo ×3, nausea/migrane ×3, chest pain/hyp ×1, headache/hyp ×4
        assert_eq!(p.class_count(), 4);
        let sizes: Vec<usize> = p.classes().map(<[u32]>::len).collect();
        assert_eq!(sizes, vec![3, 3, 1, 4]);
    }

    #[test]
    fn product_equals_direct_computation() {
        let rel = table1();
        let schema = rel.schema();
        for (a, b) in [("CC", "SYMP"), ("SYMP", "DIAG"), ("TEST", "DIAG"), ("CC", "TEST")] {
            let pa = StrippedPartition::of(&rel, schema.set([a]).unwrap());
            let pb = StrippedPartition::of(&rel, schema.set([b]).unwrap());
            let direct = StrippedPartition::of(&rel, schema.set([a, b]).unwrap());
            assert_eq!(pa.product(&pb), direct, "{a}·{b}");
            assert_eq!(pb.product(&pa), direct, "{b}·{a} (commutativity)");
        }
    }

    #[test]
    fn product_of_key_is_empty() {
        let rel = table1();
        // (CC, CTRY, SYMP, TEST, DIAG, MED) all together: is it a key?
        let all = rel.schema().all();
        let p = StrippedPartition::of(&rel, all);
        // t9 (idx 8) and t11 (idx 10)? rows 8 and 10 differ in TEST. Full
        // tuples in table1: rows 8,9 differ in CTRY; all rows distinct.
        assert!(p.is_superkey());
        assert_eq!(p.error(), 0.0);
    }

    #[test]
    fn error_measures_key_violations() {
        let (_, p) = cc_partition();
        // ||Π*|| = 10, |Π*| = 2, n = 11.
        assert!((p.error() - 8.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn product_refines_both_factors() {
        let rel = table1();
        let schema = rel.schema();
        let pa = StrippedPartition::of(&rel, schema.set(["CC"]).unwrap());
        let pb = StrippedPartition::of(&rel, schema.set(["DIAG"]).unwrap());
        let prod = pa.product(&pb);
        assert!(prod.refines(&pa));
        assert!(prod.refines(&pb));
        assert!(!pa.refines(&prod) || pa == prod);
    }

    #[test]
    fn scratch_reuse_matches_fresh_product() {
        let rel = table1();
        let schema = rel.schema();
        let pa = StrippedPartition::of(&rel, schema.set(["CC"]).unwrap());
        let pb = StrippedPartition::of(&rel, schema.set(["SYMP"]).unwrap());
        let pc = StrippedPartition::of(&rel, schema.set(["DIAG"]).unwrap());
        let mut scratch = ProductScratch::default();
        let r1 = pa.product_with_scratch(&pb, &mut scratch);
        let r2 = pa.product_with_scratch(&pc, &mut scratch);
        assert_eq!(r1, pa.product(&pb));
        assert_eq!(r2, pa.product(&pc));
    }

    #[test]
    fn from_classes_canonicalizes() {
        // Unsorted members, unordered classes, and a singleton to drop.
        let sp = StrippedPartition::from_classes(
            8,
            vec![vec![5, 3], vec![7], vec![2, 0, 4]],
        );
        assert_eq!(sp.class_count(), 2);
        assert_eq!(sp.class(0), &[0, 2, 4]);
        assert_eq!(sp.class(1), &[3, 5]);
        assert_eq!(sp.n_rows(), 8);
    }

    #[test]
    fn approx_bytes_tracks_csr_arrays() {
        // Exact both ways: the arrays hold the retained tuples and offsets
        // and nothing more, so a stripped singleton (CA) or a superkey's
        // n stripped rows cost no bytes.
        let rel = table1();
        let base = std::mem::size_of::<StrippedPartition>();
        let csr_bytes = |p: &StrippedPartition| base + (p.tuple_count() + p.class_count() + 1) * 4;
        let (_, cc) = cc_partition();
        let key = StrippedPartition::of(&rel, rel.schema().all());
        assert!(key.is_superkey());
        let cc_symp = StrippedPartition::of(&rel, rel.schema().set(["CC", "SYMP"]).unwrap());
        for p in [cc, key, cc_symp, StrippedPartition::empty(100)] {
            assert_eq!(p.approx_bytes(), csr_bytes(&p), "{p:?}");
        }
    }

    mod properties {
        use super::*;
        use crate::schema::Schema;
        use proptest::prelude::*;

        fn arb_relation() -> impl Strategy<Value = Relation> {
            prop::collection::vec(prop::collection::vec(0u8..4, 4), 1..24).prop_map(|rows| {
                let mut b = Relation::builder(
                    Schema::new(["A", "B", "C", "D"]).expect("schema"),
                );
                for row in &rows {
                    let cells: Vec<String> = row.iter().map(|v| format!("v{v}")).collect();
                    b.push_row(cells.iter().map(String::as_str)).expect("row");
                }
                b.finish()
            })
        }

        /// The pre-CSR nested product, kept as a differential reference: the
        /// classic probe-table scheme building `Vec<Vec<u32>>` bins.
        fn nested_reference_product(
            a: &StrippedPartition,
            b: &StrippedPartition,
        ) -> Vec<Vec<u32>> {
            const FREE: usize = usize::MAX;
            let mut probe = vec![FREE; a.n_rows()];
            for (i, class) in a.classes().enumerate() {
                for &t in class {
                    probe[t as usize] = i;
                }
            }
            let mut bins: Vec<Vec<u32>> = vec![Vec::new(); a.class_count()];
            let mut out: Vec<Vec<u32>> = Vec::new();
            for class in b.classes() {
                let mut touched = Vec::new();
                for &t in class {
                    let p = probe[t as usize];
                    if p != FREE {
                        if bins[p].is_empty() {
                            touched.push(p);
                        }
                        bins[p].push(t);
                    }
                }
                for p in touched {
                    if bins[p].len() >= 2 {
                        out.push(std::mem::take(&mut bins[p]));
                    } else {
                        bins[p].clear();
                    }
                }
            }
            out.sort_unstable_by_key(|c| c[0]);
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Product equals direct computation for random attribute pairs.
            #[test]
            fn product_equals_direct(rel in arb_relation(), a in 0usize..4, b in 0usize..4) {
                let pa = StrippedPartition::of(&rel, AttrSet::single(AttrId::from_index(a)));
                let pb = StrippedPartition::of(&rel, AttrSet::single(AttrId::from_index(b)));
                let direct = StrippedPartition::of(
                    &rel,
                    AttrSet::single(AttrId::from_index(a)).with(AttrId::from_index(b)),
                );
                prop_assert_eq!(pa.product(&pb), direct);
            }

            /// Differential test: the CSR product agrees class-for-class
            /// with the legacy nested-Vec probe-table product, including
            /// over multi-attribute operands.
            #[test]
            fn csr_product_matches_nested_reference(
                rel in arb_relation(),
                a in 0usize..4,
                b in 0usize..4,
                c in 0usize..4,
            ) {
                let pa = StrippedPartition::of(
                    &rel,
                    AttrSet::single(AttrId::from_index(a)).with(AttrId::from_index(c)),
                );
                let pb = StrippedPartition::of(&rel, AttrSet::single(AttrId::from_index(b)));
                let csr = pa.product(&pb);
                let reference = nested_reference_product(&pa, &pb);
                let got: Vec<Vec<u32>> = csr.classes().map(<[u32]>::to_vec).collect();
                prop_assert_eq!(got, reference);
            }

            /// Refining Π*_X by a column equals the direct Π*_{X ∪ {a}} and
            /// the product with Π*_a, with one scratch reused throughout.
            #[test]
            fn refine_equals_direct_and_product(
                rel in arb_relation(),
                x in 0u64..16,
                a in 0usize..4,
                b in 0usize..4,
            ) {
                let mut scratch = ProductScratch::default();
                let px = StrippedPartition::of(&rel, AttrSet::from_bits(x));
                let (a, b) = (AttrId::from_index(a), AttrId::from_index(b));
                for attr in [a, b, a] {
                    let got = px.refine_with_scratch(&rel, attr, &mut scratch);
                    let direct = StrippedPartition::of(&rel, AttrSet::from_bits(x).with(attr));
                    prop_assert_eq!(&got, &direct);
                    prop_assert_eq!(&got, &px.product(&StrippedPartition::of_attr(&rel, attr)));
                }
            }

            /// Product is commutative and associative.
            #[test]
            fn product_is_commutative_and_associative(rel in arb_relation()) {
                let ps: Vec<StrippedPartition> = (0..3)
                    .map(|i| StrippedPartition::of(&rel, AttrSet::single(AttrId::from_index(i))))
                    .collect();
                prop_assert_eq!(ps[0].product(&ps[1]), ps[1].product(&ps[0]));
                let left = ps[0].product(&ps[1]).product(&ps[2]);
                let right = ps[0].product(&ps[1].product(&ps[2]));
                prop_assert_eq!(left, right);
            }

            /// A product refines both factors, and the error measure never
            /// increases under refinement.
            #[test]
            fn product_refines_and_error_shrinks(rel in arb_relation()) {
                let pa = StrippedPartition::of(&rel, AttrSet::single(AttrId::from_index(0)));
                let pb = StrippedPartition::of(&rel, AttrSet::single(AttrId::from_index(1)));
                let prod = pa.product(&pb);
                prop_assert!(prod.refines(&pa));
                prop_assert!(prod.refines(&pb));
                prop_assert!(prod.error() <= pa.error() + 1e-12);
                prop_assert!(prod.error() <= pb.error() + 1e-12);
            }

            /// into_stripped is strip without the copy.
            #[test]
            fn into_stripped_equals_strip(rel in arb_relation(), a in 0usize..4, b in 0usize..4) {
                let set = AttrSet::single(AttrId::from_index(a)).with(AttrId::from_index(b));
                let full = Partition::of(&rel, set);
                prop_assert_eq!(full.strip(), full.into_stripped());
            }
        }
    }

    #[test]
    fn classes_are_sorted_canonically() {
        let (_, p) = cc_partition();
        for c in p.classes() {
            assert!(c.windows(2).all(|w| w[0] < w[1]), "members ascending");
        }
        let reps: Vec<u32> = p.classes().map(|c| c[0]).collect();
        assert!(
            reps.windows(2).all(|w| w[0] < w[1]),
            "classes ordered by representative"
        );
    }
}
