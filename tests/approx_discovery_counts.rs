//! Approximate discovery (κ < 1), pinned by its counts on one generated
//! instance. The support kernel may change how it reaches a verdict, never
//! the verdicts: Σ, every emitted support, the per-level stats and the
//! partition counters stay these literals at any thread count.

use fastofd::core::Obs;
use fastofd::datagen::{clinical, PresetConfig};
use fastofd::discovery::{DiscoveryOptions, FastOfd};

#[test]
fn clinical_2k_approximate_discovery_counts_are_pinned() {
    let ds = clinical(&PresetConfig {
        n_rows: 2_000,
        n_attrs: 15,
        seed: 1,
        ..PresetConfig::default()
    });
    for threads in [1usize, 3] {
        let obs = Obs::enabled();
        let result = FastOfd::new(&ds.relation, &ds.ontology)
            .options(
                DiscoveryOptions::new()
                    .min_support(0.95)
                    .max_level(4)
                    .threads(threads)
                    .obs(obs.clone()),
            )
            .run();
        assert!(result.complete, "threads={threads}");
        let m = obs.snapshot();
        let counter = |name: &str| m.counter(name).unwrap_or_else(|| panic!("{name} missing"));
        let covered: u64 = result
            .ofds
            .iter()
            .map(|d| (d.support * 2_000.0).round() as u64)
            .sum();
        let verified: Vec<usize> = result.stats.levels.iter().map(|l| l.verified).collect();
        let found: Vec<usize> = result.stats.levels.iter().map(|l| l.found).collect();
        assert_eq!(result.len(), 1_160, "|Σ| at threads={threads}");
        assert_eq!(covered, 2_270_282, "covered tuples at threads={threads}");
        assert_eq!(verified, [15, 196, 1159, 2869], "threads={threads}");
        assert_eq!(found, [0, 16, 162, 982], "threads={threads}");
        assert_eq!(counter("discovery.candidates"), 4_253);
        assert_eq!(counter("discovery.partition.products"), 360);
        assert_eq!(counter("discovery.partition.cache.hits"), 30);
        assert_eq!(counter("discovery.partition.cache.misses"), 360);
    }
}
