//! Memory-budgeted cache of stripped partitions Π*_X.
//!
//! It has two users. It is FastOFD's one source of partitions, and the
//! service layer keeps one per catalog version, so a served validate
//! against an immutable `name@version` reuses the antecedent partitions
//! earlier validates made (there nothing is pinned, and the budget is the
//! version's own column bytes). Lattice nodes own no partitions: each
//! antecedent Π*_X that a data decision reads is produced through
//! [`PartitionCache::produce`] when it is first read, which reuses a
//! resident copy when one exists and otherwise computes the partition by
//! one **product**: the cached parent with the smallest `‖Π*‖`, refined by
//! its missing attribute's column, or (when no parent is resident) a chain
//! of them from the pinned level-1 partitions of X. Because partitions are
//! canonical by construction, every route yields byte-identical CSR arrays,
//! so the budget can never change Σ.
//!
//! Exact discovery does not ask for Π*_X up front. It looks X up
//! ([`PartitionCache::lookup`]), and on a miss it scans Π*_X from the
//! cheapest resident ancestor ([`PartitionCache::scan_source`]) while it
//! decides X's candidates; a scan that reaches the end hands its
//! partition back ([`PartitionCache::complete_scan`]), one that stops once
//! every candidate has failed is only counted
//! ([`PartitionCache::abandon_scan`]).
//!
//! Byte accounting uses [`StrippedPartition::approx_bytes`] (exact for the
//! CSR arrays). An insertion first evicts least-recently-used unpinned
//! entries until the new partition fits the budget, so unpinned entries
//! never take the resident total past it; level-0/1 partitions are pinned —
//! they are the universal fallback operands and together cost at most one
//! `u32` per cell of the relation. A budget of 0 keeps only the pinned
//! partitions. Outstanding [`Arc`] references keep evicted partitions
//! alive until their borrowers finish, so eviction is always safe
//! mid-level.

use std::sync::Arc;

use ofd_core::{AttrId, AttrSet, FxHashMap, Obs, ProductScratch, Relation, StrippedPartition};

/// Cache counters, exposed on [`crate::DiscoveryStats`] and as
/// `discovery.partition.cache.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident partition.
    pub hits: u64,
    /// Lookups that had to compute the partition.
    pub misses: u64,
    /// Total bytes released by LRU eviction.
    pub evicted_bytes: u64,
    /// Bytes resident at the end of the run.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: u64,
    /// Every partition product the cache computed, emitted as
    /// `discovery.partition.products`: one per miss built from a resident
    /// parent, each product of a chain over the level-1 partitions (built
    /// when no parent was resident), and one per completed scan. Misses
    /// for `|X| < 2`, or whose level-1 operands are not resident, are
    /// direct scans and count none.
    pub products: u64,
    /// Scans that stopped before Π*_X was complete, because every
    /// candidate they decided had failed, emitted as
    /// `discovery.partition.abandoned`.
    pub abandoned: u64,
}

#[derive(Debug)]
struct Entry {
    part: Arc<StrippedPartition>,
    bytes: u64,
    last_used: u64,
    pinned: bool,
}

/// LRU partition cache keyed by antecedent attribute-set bits.
#[derive(Debug)]
pub struct PartitionCache {
    entries: FxHashMap<u64, Entry>,
    budget_bytes: u64,
    resident_bytes: u64,
    clock: u64,
    stats: CacheStats,
    obs: Obs,
}

impl PartitionCache {
    /// A cache holding at most `budget_mib` MiB of unpinned partitions
    /// (a budget past `u64::MAX` bytes saturates), recording into `obs`.
    pub(crate) fn new(budget_mib: usize, obs: Obs) -> PartitionCache {
        PartitionCache::with_budget_bytes((budget_mib as u64).saturating_mul(1 << 20), obs)
    }

    /// A cache holding at most `budget_bytes` of unpinned partitions,
    /// recording into `obs`. With nothing pinned, the resident bytes never
    /// exceed the budget.
    pub fn with_budget_bytes(budget_bytes: u64, obs: Obs) -> PartitionCache {
        PartitionCache {
            entries: FxHashMap::default(),
            budget_bytes,
            resident_bytes: 0,
            clock: 0,
            stats: CacheStats::default(),
            obs,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Non-counting peek used during operand search (operand availability is
    /// an implementation detail, not a logical lookup).
    fn peek(&self, bits: u64) -> Option<&Arc<StrippedPartition>> {
        self.entries.get(&bits).map(|e| &e.part)
    }

    /// Inserts a computed partition, first evicting LRU unpinned entries
    /// until it fits the budget, so unpinned entries never take the
    /// resident total past it. Pinned entries are never evicted and always
    /// inserted; an unpinned partition that the pinned ones leave no room
    /// for (one larger than the whole budget, in particular) is not
    /// retained at all.
    pub(crate) fn insert(
        &mut self,
        bits: u64,
        part: Arc<StrippedPartition>,
        pinned: bool,
    ) {
        let bytes = part.approx_bytes() as u64;
        if !pinned && bytes > self.budget_bytes {
            return;
        }
        if let Some(old) = self.entries.remove(&bits) {
            self.resident_bytes -= old.bytes;
        }
        self.evict_to(self.budget_bytes.saturating_sub(bytes));
        if !pinned && self.resident_bytes + bytes > self.budget_bytes {
            return;
        }
        let now = self.tick();
        self.entries.insert(
            bits,
            Entry {
                part,
                bytes,
                last_used: now,
                pinned,
            },
        );
        self.resident_bytes += bytes;
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(self.resident_bytes);
    }

    /// Evicts LRU unpinned entries until at most `limit` bytes are resident
    /// or only pinned entries are left.
    fn evict_to(&mut self, limit: u64) {
        while self.resident_bytes > limit {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| !e.pinned)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&bits, _)| bits);
            let Some(bits) = victim else {
                break; // only pinned entries left
            };
            let e = self.entries.remove(&bits).expect("victim resident");
            self.resident_bytes -= e.bytes;
            self.stats.evicted_bytes += e.bytes;
        }
    }

    /// Produces Π*_X, preferring (in order): the resident copy, the
    /// cheapest resident parent refined by one column, a chain from the
    /// pinned level-1 partitions, a direct computation. The result
    /// is (re-)inserted unpinned unless already resident. Every route yields
    /// the canonical `StrippedPartition::of(rel, attrs)`; `rel` must be the
    /// relation every resident partition was made from.
    pub fn produce(
        &mut self,
        rel: &Relation,
        attrs: AttrSet,
        scratch: &mut ProductScratch,
    ) -> Arc<StrippedPartition> {
        if let Some(resident) = self.lookup(attrs) {
            return resident;
        }
        let part = Arc::new(self.compute(rel, attrs, scratch));
        self.admit(attrs, Arc::clone(&part));
        part
    }

    /// Records a computed Π*_X in the class-count histogram and inserts it
    /// unpinned.
    fn admit(&mut self, attrs: AttrSet, part: Arc<StrippedPartition>) {
        self.obs.observe(
            "discovery.partition.class_count",
            CLASS_COUNT_BOUNDS,
            part.class_count() as f64,
        );
        self.insert(attrs.bits(), part, false);
    }

    /// Looks Π*_X up: a resident copy is a counted hit; otherwise the miss
    /// is counted and nothing is computed, for a caller that scans Π*_X
    /// itself (see [`PartitionCache::scan_source`]).
    pub(crate) fn lookup(&mut self, attrs: AttrSet) -> Option<Arc<StrippedPartition>> {
        let Some(e) = self.entries.get_mut(&attrs.bits()) else {
            self.stats.misses += 1;
            return None;
        };
        self.clock += 1;
        e.last_used = self.clock;
        self.stats.hits += 1;
        Some(Arc::clone(&e.part))
    }

    /// Where a scan of Π*_X starts: the resident parent with the smallest
    /// `‖Π*‖` and X's one missing attribute, or failing that X's smallest
    /// resident level-1 partition and X's other attributes. With neither
    /// resident (never in FastOFD, which pins level 1), Π*_∅ and all of X.
    pub(crate) fn scan_source(
        &self,
        rel: &Relation,
        attrs: AttrSet,
    ) -> (Arc<StrippedPartition>, Vec<AttrId>) {
        let cheapest = |sources: &mut dyn Iterator<Item = AttrSet>| {
            sources
                .filter_map(|set| Some((set, self.peek(set.bits())?)))
                .min_by_key(|(_, sp)| sp.tuple_count())
                .map(|(set, sp)| (Arc::clone(sp), attrs.minus(set).iter().collect()))
        };
        cheapest(&mut attrs.parents().map(|(_, parent)| parent))
            .or_else(|| cheapest(&mut attrs.iter().map(AttrSet::single)))
            .unwrap_or_else(|| {
                let all = StrippedPartition::of(rel, AttrSet::empty());
                (Arc::new(all), attrs.iter().collect())
            })
    }

    /// Takes a completed scan's Π*_X as a miss's product, inserted as a
    /// computed miss would be.
    pub(crate) fn complete_scan(&mut self, attrs: AttrSet, part: Arc<StrippedPartition>) {
        self.stats.products += 1;
        self.admit(attrs, part);
    }

    /// Counts a scan that stopped before Π*_X was complete.
    pub(crate) fn abandon_scan(&mut self) {
        self.stats.abandoned += 1;
    }

    /// Computes Π*_X by refining the resident parent with the smallest
    /// `‖Π*‖` by its missing attribute's column, which costs only that
    /// parent's tuples. Falls back to [`PartitionCache::pinned_chain`] when
    /// no parent is resident, and to a direct relation scan when `|X| < 2`.
    fn compute(
        &mut self,
        rel: &Relation,
        attrs: AttrSet,
        scratch: &mut ProductScratch,
    ) -> StrippedPartition {
        if attrs.len() < 2 {
            return StrippedPartition::of(rel, attrs);
        }
        let cheapest = attrs
            .parents()
            .filter_map(|(a, p)| self.peek(p.bits()).map(|sp| (a, Arc::clone(sp))))
            .min_by_key(|(_, sp)| sp.tuple_count());
        let Some((missing, parent)) = cheapest else {
            return self.pinned_chain(rel, attrs, scratch);
        };
        self.stats.products += 1;
        parent.refine_with_scratch(rel, missing, scratch)
    }

    /// Builds Π*_X (`|X| ≥ 2`) from the level-1 partitions alone: the
    /// smallest one, refined by X's other attributes in ascending `‖Π*‖`
    /// order, stopping at the first empty partition (X is then a superkey,
    /// and the empty partition is its Π*). Falls back to a direct relation
    /// scan if an attribute partition is not resident.
    ///
    /// The chain's first product is the canonical Π* of X's two smallest
    /// attributes. For `|X| ≥ 3` it is kept as an ordinary unpinned entry,
    /// so a later chain over the same pair, or a later X′ with that pair as
    /// a parent, starts from it instead of computing the pair again.
    /// Keeping it is no lookup: hits and misses count only
    /// [`PartitionCache::produce`]'s calls.
    fn pinned_chain(
        &mut self,
        rel: &Relation,
        attrs: AttrSet,
        scratch: &mut ProductScratch,
    ) -> StrippedPartition {
        let Some(mut operands) = attrs
            .iter()
            .map(|a| {
                self.peek(AttrSet::single(a).bits())
                    .map(|p| (a, Arc::clone(p)))
            })
            .collect::<Option<Vec<(AttrId, Arc<StrippedPartition>)>>>()
        else {
            return StrippedPartition::of(rel, attrs);
        };
        operands.sort_by_key(|(_, p)| p.tuple_count());
        let [(a, first), (b, _), rest @ ..] = operands.as_slice() else {
            unreachable!("a chain runs for |X| ≥ 2");
        };
        let pair = AttrSet::single(*a).with(*b).bits();
        let mut acc = match self.peek(pair) {
            Some(stored) => Arc::clone(stored),
            None => {
                self.stats.products += 1;
                let part = Arc::new(first.refine_with_scratch(rel, *b, scratch));
                if !rest.is_empty() {
                    self.insert(pair, Arc::clone(&part), false);
                }
                part
            }
        };
        for &(next, _) in rest {
            if acc.is_superkey() {
                break;
            }
            self.stats.products += 1;
            acc = Arc::new(acc.refine_with_scratch(rel, next, scratch));
        }
        Arc::unwrap_or_clone(acc)
    }

    /// Hits, misses, products and bytes so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            resident_bytes: self.resident_bytes,
            ..self.stats
        }
    }

    /// Emits `discovery.partition.products` ([`CacheStats::products`]),
    /// `discovery.partition.abandoned` ([`CacheStats::abandoned`]) and the
    /// counters/gauges under `discovery.partition.cache.*`.
    pub(crate) fn flush_obs(&self) {
        let obs = &self.obs;
        if !obs.is_enabled() {
            return;
        }
        let s = self.stats();
        // Touch first: the counters are schema-pinned, so they must appear
        // in snapshots even when a total is zero (`Obs::add` drops zeros).
        for name in [
            "discovery.partition.products",
            "discovery.partition.abandoned",
            "discovery.partition.cache.hits",
            "discovery.partition.cache.misses",
            "discovery.partition.cache.evicted_bytes",
        ] {
            obs.touch_counter(name);
        }
        obs.add("discovery.partition.products", s.products);
        obs.add("discovery.partition.abandoned", s.abandoned);
        obs.add("discovery.partition.cache.hits", s.hits);
        obs.add("discovery.partition.cache.misses", s.misses);
        obs.add("discovery.partition.cache.evicted_bytes", s.evicted_bytes);
        obs.set_gauge(
            "discovery.partition.cache.resident_bytes",
            s.resident_bytes as f64,
        );
        obs.set_gauge(
            "discovery.partition.cache.peak_resident_bytes",
            s.peak_resident_bytes as f64,
        );
    }
}

/// Bucket boundaries for the class-count histogram of computed partitions
/// (`discovery.partition.class_count`).
const CLASS_COUNT_BOUNDS: &[f64] = &[
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0, 16384.0,
];

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::{table1, AttrId};

    fn attr_set(rel: &Relation, names: &[&str]) -> AttrSet {
        rel.schema().set(names.iter().copied()).unwrap()
    }

    fn seed_level1(cache: &mut PartitionCache, rel: &Relation) {
        for a in rel.schema().attrs() {
            let sp = Arc::new(StrippedPartition::of_attr(rel, a));
            cache.insert(AttrSet::single(a).bits(), sp, true);
        }
    }

    #[test]
    fn produce_hits_after_insert_and_matches_direct() {
        let rel = table1();
        let mut cache = PartitionCache::new(64, Obs::disabled());
        let mut scratch = ProductScratch::default();
        seed_level1(&mut cache, &rel);
        let x = attr_set(&rel, &["CC", "SYMP"]);
        let first = cache.produce(&rel, x, &mut scratch);
        assert_eq!(*first, StrippedPartition::of(&rel, x));
        let before = cache.stats();
        let second = cache.produce(&rel, x, &mut scratch);
        assert_eq!(first, second);
        assert_eq!(cache.stats().hits, before.hits + 1);
    }

    #[test]
    fn cheapest_pair_routes_equal_direct_everywhere() {
        // Whatever operands the cache picks, canonical CSR makes the result
        // equal the direct computation — over all 2- and 3-subsets.
        let rel = table1();
        let mut cache = PartitionCache::new(64, Obs::disabled());
        let mut scratch = ProductScratch::default();
        seed_level1(&mut cache, &rel);
        let attrs: Vec<AttrId> = rel.schema().attrs().collect();
        let mut sets: Vec<AttrSet> = Vec::new();
        for i in 0..attrs.len() {
            for j in (i + 1)..attrs.len() {
                sets.push(AttrSet::single(attrs[i]).with(attrs[j]));
                for k in (j + 1)..attrs.len() {
                    sets.push(AttrSet::single(attrs[i]).with(attrs[j]).with(attrs[k]));
                }
            }
        }
        sets.sort_by_key(|s| s.len()); // parents first, like the lattice
        for x in sets {
            let got = cache.produce(&rel, x, &mut scratch);
            assert_eq!(*got, StrippedPartition::of(&rel, x), "{:?}", x);
        }
    }

    /// X's attributes in the chain's order: ascending level-1 `‖Π*‖`,
    /// ties by attribute.
    fn chain_order(rel: &Relation, x: AttrSet) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> = x.iter().collect();
        attrs.sort_by_key(|&a| StrippedPartition::of_attr(rel, a).tuple_count());
        attrs
    }

    /// The products a chain over `attrs` makes from `skip` operands on: one
    /// per operand joined before the first superkey prefix.
    fn chain_products(rel: &Relation, attrs: &[AttrId], skip: usize) -> u64 {
        let prefix = |k: usize| attrs[..k].iter().fold(AttrSet::empty(), |s, &a| s.with(a));
        let stop = (2..attrs.len())
            .find(|&k| StrippedPartition::of(rel, prefix(k)).is_superkey())
            .unwrap_or(attrs.len());
        (stop - skip) as u64
    }

    #[test]
    fn pinned_chain_equals_direct_without_resident_parents() {
        // Discovery may ask for Π*_X with no parent resident: the chain
        // over pinned level-1 partitions must reproduce the direct
        // partition (superkeys included), count one miss and each of its
        // products, and keep Π*_X and its first product, the canonical
        // Π* of X's two smallest attributes.
        let rel = table1();
        let n = rel.n_attrs();
        for bits in 0..(1u64 << n) {
            let x = AttrSet::from_bits(bits);
            if x.len() < 3 {
                continue;
            }
            let mut cache = PartitionCache::new(64, Obs::disabled());
            let mut scratch = ProductScratch::default();
            seed_level1(&mut cache, &rel);
            let got = cache.produce(&rel, x, &mut scratch);
            assert_eq!(*got, StrippedPartition::of(&rel, x), "{x:?}");
            let order = chain_order(&rel, x);
            let s = cache.stats();
            let products = chain_products(&rel, &order, 1);
            assert_eq!((s.hits, s.misses, s.products), (0, 1, products), "{x:?}");
            assert_eq!(cache.entries.len(), n + 2, "{x:?}");
            let pair = AttrSet::single(order[0]).with(order[1]);
            let kept = cache.peek(pair.bits()).expect("first product kept");
            assert_eq!(**kept, StrippedPartition::of(&rel, pair), "{x:?}");
            assert!(!cache.entries[&pair.bits()].pinned, "{x:?}");
        }
    }

    #[test]
    fn a_second_chain_starts_from_the_kept_pair() {
        // X = {a, b, c} and X′ = {a, b, d, e} share their two smallest
        // attributes and no parent: X′'s chain starts from X's first
        // product, so it makes one product fewer than a fresh chain, and
        // both equal the direct partition.
        let rel = table1();
        let order = chain_order(&rel, rel.schema().all());
        let set = |attrs: &[AttrId]| attrs.iter().fold(AttrSet::empty(), |s, &a| s.with(a));
        let x = set(&order[..3]);
        let x2 = set(&[order[0], order[1], order[3], order[4]]);
        let mut cache = PartitionCache::new(64, Obs::disabled());
        let mut scratch = ProductScratch::default();
        seed_level1(&mut cache, &rel);
        assert_eq!(
            *cache.produce(&rel, x, &mut scratch),
            StrippedPartition::of(&rel, x)
        );
        let before = cache.stats();
        let got = cache.produce(&rel, x2, &mut scratch);
        assert_eq!(*got, StrippedPartition::of(&rel, x2));
        let s = cache.stats();
        let from_pair = chain_products(&rel, &chain_order(&rel, x2), 2);
        assert!(from_pair > 0, "the pair is no superkey on Table 1");
        assert_eq!(s.products - before.products, from_pair);
        let mut fresh = PartitionCache::new(64, Obs::disabled());
        seed_level1(&mut fresh, &rel);
        assert_eq!(*fresh.produce(&rel, x2, &mut scratch), *got);
        assert_eq!(fresh.stats().products, from_pair + 1);
        assert_eq!((s.hits, s.misses), (0, 2), "keeping the pair is no lookup");
        // Π*_X, Π*_X′ and one kept pair beside the pinned ones.
        assert_eq!(cache.entries.len(), rel.n_attrs() + 3);
    }

    #[test]
    fn a_scan_starts_from_the_cheapest_resident_ancestor() {
        // With level 1 pinned and nothing else resident, X = {a, b, c}
        // scans from its smallest attribute's partition by the other two;
        // once a parent is resident it scans from that parent by the one
        // attribute it lacks. Lookups count, choosing a source does not,
        // and a completed scan is a product inserted like any miss.
        let rel = table1();
        let mut cache = PartitionCache::new(64, Obs::disabled());
        seed_level1(&mut cache, &rel);
        let order = chain_order(&rel, rel.schema().all());
        let x = AttrSet::single(order[0]).with(order[1]).with(order[2]);
        assert!(cache.lookup(x).is_none());
        let (from, by) = cache.scan_source(&rel, x);
        assert_eq!(*from, StrippedPartition::of_attr(&rel, order[0]));
        assert_eq!(by, x.without(order[0]).iter().collect::<Vec<_>>());
        let parent = x.without(order[0]);
        cache.complete_scan(parent, Arc::new(StrippedPartition::of(&rel, parent)));
        let (from, by) = cache.scan_source(&rel, x);
        assert_eq!(*from, StrippedPartition::of(&rel, parent));
        assert_eq!(by, [order[0]]);
        cache.abandon_scan();
        assert!(cache.lookup(parent).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.products, s.abandoned), (1, 1, 1, 1));
    }

    #[test]
    fn eviction_respects_budget_and_pins() {
        let rel = table1();
        // A zero-MiB budget: nothing unpinned survives, pins stay.
        let mut cache = PartitionCache::new(0, Obs::disabled());
        let mut scratch = ProductScratch::default();
        seed_level1(&mut cache, &rel);
        let pinned_bytes = cache.stats().resident_bytes;
        assert!(pinned_bytes > 0, "pinned entries exceed the zero budget");
        let x = attr_set(&rel, &["CC", "SYMP"]);
        let p1 = cache.produce(&rel, x, &mut scratch);
        // The unpinned product cannot be retained.
        assert_eq!(cache.stats().resident_bytes, pinned_bytes);
        let p2 = cache.produce(&rel, x, &mut scratch);
        assert_eq!(p1, p2, "recompute reproduces the canonical partition");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let rel = table1();
        let mut cache = PartitionCache::new(64, Obs::disabled());
        let mut scratch = ProductScratch::default();
        seed_level1(&mut cache, &rel);
        let x = attr_set(&rel, &["CC", "SYMP"]);
        let y = attr_set(&rel, &["CC", "DIAG"]);
        let _ = cache.produce(&rel, x, &mut scratch);
        let _ = cache.produce(&rel, y, &mut scratch);
        let _ = cache.produce(&rel, x, &mut scratch); // x newer than y
        // Shrink the budget to force eviction of exactly the colder entry.
        cache.budget_bytes = cache.resident_bytes - 1;
        cache.evict_to(cache.budget_bytes);
        assert!(cache.peek(x.bits()).is_some(), "recently used survives");
        assert!(cache.peek(y.bits()).is_none(), "LRU entry evicted");
        assert!(cache.stats().evicted_bytes > 0);
    }

    #[test]
    fn an_unpinned_cache_never_holds_more_than_its_budget() {
        // Nothing pinned, as a catalog version keeps it: the resident bytes
        // stay within the budget at their peak, not only after eviction.
        let rel = table1();
        let cc = StrippedPartition::of(&rel, attr_set(&rel, &["CC"]));
        let budget = 2 * cc.approx_bytes() as u64;
        let mut cache = PartitionCache::with_budget_bytes(budget, Obs::disabled());
        let mut scratch = ProductScratch::default();
        for names in [
            &["CC"][..],
            &["SYMP"],
            &["CC", "SYMP"],
            &["DIAG"],
            &["CC"],
            &["CC", "DIAG"],
        ] {
            let x = attr_set(&rel, names);
            assert_eq!(*cache.produce(&rel, x, &mut scratch), StrippedPartition::of(&rel, x));
            assert!(cache.stats().resident_bytes <= budget);
        }
        let s = cache.stats();
        assert!(s.evicted_bytes > 0, "{s:?}");
        assert!(s.peak_resident_bytes <= budget, "{s:?}");
    }

    #[test]
    fn huge_budget_saturates_instead_of_wrapping() {
        // 2^44 MiB is 2^64 bytes: a plain shift wraps it to a 0-byte budget.
        let budget = |mib: usize| PartitionCache::new(mib, Obs::disabled()).budget_bytes;
        assert_eq!(budget(1 << 44), u64::MAX);
        assert_eq!(budget(usize::MAX), u64::MAX);
        assert_eq!(budget(1), 1 << 20);
        assert_eq!(budget(0), 0);
        // And the huge budget retains what it computes.
        let rel = table1();
        let mut cache = PartitionCache::new(1 << 44, Obs::disabled());
        let mut scratch = ProductScratch::default();
        seed_level1(&mut cache, &rel);
        let x = attr_set(&rel, &["CC", "SYMP"]);
        let _ = cache.produce(&rel, x, &mut scratch);
        let _ = cache.produce(&rel, x, &mut scratch);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    }

    #[test]
    fn flush_reports_products_and_one_class_count_per_computed_partition() {
        let rel = table1();
        let obs = Obs::enabled();
        let mut cache = PartitionCache::new(64, obs.clone());
        let mut scratch = ProductScratch::default();
        seed_level1(&mut cache, &rel);
        let x = attr_set(&rel, &["CC", "SYMP"]);
        let xy = attr_set(&rel, &["CC", "SYMP", "DIAG"]);
        for set in [x, x, xy] {
            let _ = cache.produce(&rel, set, &mut scratch);
        }
        cache.flush_obs();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.products), (1, 2, 2));
        let m = obs.snapshot();
        assert_eq!(m.counter("discovery.partition.products"), Some(2));
        assert_eq!(m.counter("discovery.partition.cache.misses"), Some(2));
        let (_, h) = m
            .histograms
            .iter()
            .find(|(name, _)| name == "discovery.partition.class_count")
            .expect("class-count histogram");
        assert_eq!(h.count, s.misses);
    }
}
