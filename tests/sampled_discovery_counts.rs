//! Exact discovery's sampled path, pinned by its counts on one generated
//! instance. The sampler and the partition cache may change how they reach
//! their answers, never the answers: Σ, the sample counters, the cache's
//! products, hits and misses and the per-level `verified` counts stay these
//! literals.

use fastofd::core::Obs;
use fastofd::datagen::{clinical, PresetConfig};
use fastofd::discovery::{DiscoveryOptions, FastOfd};

#[test]
fn clinical_2k_sampled_discovery_counts_are_pinned() {
    let ds = clinical(&PresetConfig {
        n_rows: 2_000,
        n_attrs: 15,
        seed: 1,
        ..PresetConfig::default()
    });
    let obs = Obs::enabled();
    let result = FastOfd::new(&ds.relation, &ds.ontology)
        .options(DiscoveryOptions::new().max_level(4).obs(obs.clone()))
        .run();
    assert!(result.complete);
    let m = obs.snapshot();
    let counter = |name: &str| m.counter(name).unwrap_or_else(|| panic!("{name} missing"));
    let verified: Vec<usize> = result.stats.levels.iter().map(|l| l.verified).collect();
    assert_eq!(result.len(), 180, "|Σ|");
    assert_eq!(counter("discovery.sample.evidence_pairs"), 59_955);
    assert_eq!(counter("discovery.sample.candidates_pruned"), 5_254);
    assert_eq!(counter("discovery.partition.products"), 17);
    assert_eq!(counter("discovery.partition.cache.hits"), 17);
    assert_eq!(counter("discovery.partition.cache.misses"), 78);
    assert_eq!(verified, [15, 196, 1159, 4120]);
}
