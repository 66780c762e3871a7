//! Exact discovery's sampled path, pinned by its counts on one generated
//! instance. The sampler and the partition cache may change how they reach
//! their answers, never the answers: Σ, the sample counters, the cache's
//! products, hits and misses and the per-level `verified` counts stay these
//! literals, at one and at four threads. A cache budget of 0 keeps only the
//! pinned partitions, so it recomputes more, but Σ, the per-level stats and
//! the sample counters stay the same as at the default budget.

use fastofd::core::Obs;
use fastofd::datagen::{clinical, PresetConfig};
use fastofd::discovery::{DiscoveryOptions, FastOfd, DEFAULT_PARTITION_CACHE_MIB};

#[test]
fn clinical_2k_sampled_discovery_counts_are_pinned() {
    let ds = clinical(&PresetConfig {
        n_rows: 2_000,
        n_attrs: 15,
        seed: 1,
        ..PresetConfig::default()
    });
    let mut reference = None;
    for (mib, cache_counts) in [
        (DEFAULT_PARTITION_CACHE_MIB, [104, 17, 78]),
        (0, [151, 17, 78]),
    ] {
        for threads in [1usize, 4] {
            let tag = format!("cache={mib}MiB threads={threads}");
            let obs = Obs::enabled();
            let result = FastOfd::new(&ds.relation, &ds.ontology)
                .options(
                    DiscoveryOptions::new()
                        .max_level(4)
                        .partition_cache_mib(mib)
                        .threads(threads)
                        .obs(obs.clone()),
                )
                .run();
            assert!(result.complete, "{tag}");
            let m = obs.snapshot();
            let counter = |name: &str| m.counter(name).unwrap_or_else(|| panic!("{name} missing"));
            let verified: Vec<usize> = result.stats.levels.iter().map(|l| l.verified).collect();
            assert_eq!(result.len(), 180, "|Σ| at {tag}");
            assert_eq!(counter("discovery.sample.evidence_pairs"), 59_955, "{tag}");
            assert_eq!(
                counter("discovery.sample.candidates_pruned"),
                5_254,
                "{tag}"
            );
            assert_eq!(
                [
                    counter("discovery.partition.products"),
                    counter("discovery.partition.cache.hits"),
                    counter("discovery.partition.cache.misses"),
                ],
                cache_counts,
                "{tag}"
            );
            assert_eq!(verified, [15, 196, 1159, 4120], "{tag}");
            let sigma: Vec<_> = result
                .ofds
                .iter()
                .map(|d| (d.ofd, d.support.to_bits(), d.level))
                .collect();
            let levels: Vec<_> = result
                .stats
                .levels
                .iter()
                .map(|l| {
                    (
                        l.nodes,
                        l.candidates,
                        l.verified,
                        l.key_shortcuts,
                        l.fd_shortcuts,
                        l.found,
                        l.pruned_nodes,
                    )
                })
                .collect();
            let reference = reference.get_or_insert_with(|| (sigma.clone(), levels.clone()));
            assert_eq!((&sigma, &levels), (&reference.0, &reference.1), "{tag}");
        }
    }
}
