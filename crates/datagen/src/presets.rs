//! Dataset presets standing in for the paper's two real datasets (see
//! DESIGN.md, substitution 1): a Clinical (LinkedCT-style) schema and a
//! Kiva-loans-style schema, both 15 attributes wide with planted OFDs.

use crate::synth::{generate, AttrRole, Dataset, SynthSpec};

/// Shared generator knobs, mirroring Table 5's parameters.
#[derive(Debug, Clone, Copy)]
pub struct PresetConfig {
    /// Number of tuples N.
    pub n_rows: usize,
    /// Schema width n (4 ..= 15); dependents keep their determinants in
    /// every prefix.
    pub n_attrs: usize,
    /// Senses per entity |λ| (Table 5 default: 4).
    pub n_senses: usize,
    /// Extra synonyms per sense.
    pub synonyms: usize,
    /// Target |Σ| (padded with valid augmented OFDs when above the number
    /// of planted dependents; Table 5 default: 10).
    pub n_ofds: usize,
    /// Cross-interpretation ambiguity: probability that a synonym also
    /// names its entity under each other standard (see
    /// [`crate::synth::SynthSpec::ambiguity`]).
    pub ambiguity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PresetConfig {
    fn default() -> Self {
        PresetConfig {
            n_rows: 1_000,
            n_attrs: 15,
            n_senses: 4,
            synonyms: 3,
            n_ofds: 10,
            ambiguity: 0.2,
            seed: 42,
        }
    }
}

fn build(cfg: &PresetConfig, attrs: Vec<(String, AttrRole)>) -> Dataset {
    assert!(
        (2..=attrs.len()).contains(&cfg.n_attrs),
        "n_attrs must be in 2..={}",
        attrs.len()
    );
    let mut attrs: Vec<(String, AttrRole)> = attrs.into_iter().take(cfg.n_attrs).collect();
    // Apply the sense / synonym knobs to every dependent.
    let mut planted = 0usize;
    for (_, role) in &mut attrs {
        if let AttrRole::Dependent {
            senses, synonyms, ..
        } = role
        {
            *senses = cfg.n_senses.max(1);
            *synonyms = cfg.synonyms.max(1);
            planted += 1;
        }
    }
    let spec = SynthSpec {
        attrs,
        n_rows: cfg.n_rows,
        seed: cfg.seed,
        extra_ofds: cfg.n_ofds.saturating_sub(planted),
        ambiguity: cfg.ambiguity,
        family_size: 1,
        family_mix: 0.0,
    };
    generate(&spec)
}

fn s(name: &str) -> String {
    name.to_owned()
}

fn dep(determinants: &[&str], entities: usize) -> AttrRole {
    AttrRole::Dependent {
        determinants: determinants.iter().map(|d| s(d)).collect(),
        entities,
        senses: 4,
        synonyms: 3,
    }
}

/// Clinical-trials-style dataset (LinkedCT substitute): 15 attributes,
/// planted OFDs `CC→CTRY`, `[SYMP,TEST]→DIAG`, `[CC,SYMP]→MED` (drug names
/// vary by country), `[PHASE,STATUS]→OUTCOME`, `[AGE_GRP,GENDER]→DRUG_CLASS`
/// and `SYMP→COND`.
pub fn clinical(cfg: &PresetConfig) -> Dataset {
    build(
        cfg,
        vec![
            (s("NCTID"), AttrRole::Key),
            (s("CC"), AttrRole::Driver { domain: 30 }),
            (s("SYMP"), AttrRole::Driver { domain: 40 }),
            (s("CTRY"), dep(&["CC"], 30)),
            (s("TEST"), AttrRole::Driver { domain: 10 }),
            (s("DIAG"), dep(&["SYMP", "TEST"], 60)),
            (s("MED"), dep(&["CC", "SYMP"], 80)),
            (s("PHASE"), AttrRole::Driver { domain: 4 }),
            (s("STATUS"), AttrRole::Driver { domain: 5 }),
            (s("OUTCOME"), dep(&["PHASE", "STATUS"], 15)),
            (s("AGE_GRP"), AttrRole::Driver { domain: 5 }),
            (s("GENDER"), AttrRole::Driver { domain: 3 }),
            (s("DRUG_CLASS"), dep(&["AGE_GRP", "GENDER"], 12)),
            (s("SPONSOR"), AttrRole::Driver { domain: 50 }),
            (s("COND"), dep(&["SYMP"], 40)),
        ],
    )
}

/// Kiva-loans-style dataset: 15 attributes, planted OFDs `CC→CTRY`,
/// `ACTIVITY→SECTOR`, `CC→CURRENCY`, `[CC,REGION_CODE]→REGION`,
/// `[TERM_BIN,YEAR]→REPAY` and `ACTIVITY→USE_CAT`.
pub fn kiva(cfg: &PresetConfig) -> Dataset {
    build(
        cfg,
        vec![
            (s("LOAN_ID"), AttrRole::Key),
            (s("CC"), AttrRole::Driver { domain: 40 }),
            (s("ACTIVITY"), AttrRole::Driver { domain: 60 }),
            (s("CTRY"), dep(&["CC"], 40)),
            (s("SECTOR"), dep(&["ACTIVITY"], 15)),
            (s("CURRENCY"), dep(&["CC"], 35)),
            (s("REGION_CODE"), AttrRole::Driver { domain: 30 }),
            (s("REGION"), dep(&["CC", "REGION_CODE"], 90)),
            (s("AMOUNT_BIN"), AttrRole::Driver { domain: 10 }),
            (s("TERM_BIN"), AttrRole::Driver { domain: 8 }),
            (s("YEAR"), AttrRole::Driver { domain: 5 }),
            (s("REPAY"), dep(&["TERM_BIN", "YEAR"], 20)),
            (s("GENDER"), AttrRole::Driver { domain: 3 }),
            (s("PARTNER"), AttrRole::Driver { domain: 100 }),
            (s("USE_CAT"), dep(&["ACTIVITY"], 25)),
        ],
    )
}

/// US-census-style dataset (the original FastOFD paper's second dataset):
/// 11 attributes over population properties, planted OFDs
/// `OCCUPATION→SALARY_BAND` (equivalent jobs earn similar salaries, the
/// paper's O₁), `[EDU,AGE_GRP]→WORKCLASS` and `STATE→REGION`.
pub fn census(cfg: &PresetConfig) -> Dataset {
    build(
        cfg,
        vec![
            (s("PERSON_ID"), AttrRole::Key),
            (s("OCCUPATION"), AttrRole::Driver { domain: 40 }),
            (s("SALARY_BAND"), dep(&["OCCUPATION"], 12)),
            (s("EDU"), AttrRole::Driver { domain: 12 }),
            (s("AGE_GRP"), AttrRole::Driver { domain: 8 }),
            (s("WORKCLASS"), dep(&["EDU", "AGE_GRP"], 9)),
            (s("STATE"), AttrRole::Driver { domain: 50 }),
            (s("REGION"), dep(&["STATE"], 10)),
            (s("MARITAL"), AttrRole::Driver { domain: 6 }),
            (s("RACE"), AttrRole::Driver { domain: 7 }),
            (s("RELATIONSHIP"), dep(&["MARITAL", "AGE_GRP"], 8)),
        ],
    )
}

/// A preset builder: one of [`clinical`], [`kiva`], [`census`].
pub type PresetFn = fn(&PresetConfig) -> Dataset;

/// Named perf workloads — the registry shared by the bench probes and the
/// checked-in `BENCH_discovery.json`, so an entry's `preset` field always
/// means the same schema, scale and seed:
///
/// * `clinical-40k` — the long-standing perf-smoke gate workload;
/// * `clinical-250k` — quarter-million-row clinical, the multi-threaded
///   sampled-pipeline smoke scale;
/// * `kiva-670k` — Kiva-loans-style at the paper's real dataset size
///   (§7: 670K loans);
/// * `synth-1m` — the million-row stress workload (clinical schema,
///   distinct seed so it is not a prefix of the smaller runs).
///
/// Returns the builder plus its config (callers may downscale `n_rows`
/// for cheap smoke tests); `None` for unknown names.
pub fn named(name: &str) -> Option<(PresetFn, PresetConfig)> {
    let base = PresetConfig::default();
    match name {
        "clinical-40k" => Some((
            clinical,
            PresetConfig {
                n_rows: 40_000,
                ..base
            },
        )),
        "clinical-250k" => Some((
            clinical,
            PresetConfig {
                n_rows: 250_000,
                ..base
            },
        )),
        "kiva-670k" => Some((
            kiva,
            PresetConfig {
                n_rows: 670_000,
                seed: 9,
                ..base
            },
        )),
        "synth-1m" => Some((
            clinical,
            PresetConfig {
                n_rows: 1_000_000,
                seed: 7,
                ..base
            },
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::Validator;

    #[test]
    fn clinical_defaults_generate_valid_dataset() {
        let cfg = PresetConfig {
            n_rows: 400,
            ..PresetConfig::default()
        };
        let ds = clinical(&cfg);
        assert_eq!(ds.clean.n_attrs(), 15);
        assert_eq!(ds.clean.n_rows(), 400);
        assert_eq!(ds.ofds.len(), 10, "6 planted + 4 extra");
        let v = Validator::new(&ds.clean, &ds.full_ontology);
        for ofd in &ds.ofds {
            assert!(v.check(ofd).satisfied());
        }
    }

    #[test]
    fn kiva_defaults_generate_valid_dataset() {
        let cfg = PresetConfig {
            n_rows: 400,
            seed: 9,
            ..PresetConfig::default()
        };
        let ds = kiva(&cfg);
        assert_eq!(ds.clean.n_attrs(), 15);
        let v = Validator::new(&ds.clean, &ds.full_ontology);
        for ofd in &ds.ofds {
            assert!(v.check(ofd).satisfied());
        }
    }

    #[test]
    fn census_preset_is_valid_and_11_wide() {
        let cfg = PresetConfig {
            n_rows: 300,
            n_attrs: 11,
            n_ofds: 4,
            ..PresetConfig::default()
        };
        let ds = census(&cfg);
        assert_eq!(ds.clean.n_attrs(), 11);
        let v = Validator::new(&ds.clean, &ds.full_ontology);
        for ofd in &ds.ofds {
            assert!(v.check(ofd).satisfied());
        }
        // O₁ from the original paper: OCCUPATION →syn SALARY_BAND.
        let schema = ds.clean.schema();
        assert!(ds.ofds.iter().any(|o| {
            o.lhs == schema.set(["OCCUPATION"]).unwrap()
                && o.rhs == schema.attr("SALARY_BAND").unwrap()
        }));
    }

    #[test]
    fn narrow_prefixes_remain_valid() {
        for n_attrs in [4, 6, 8, 10, 12] {
            let cfg = PresetConfig {
                n_rows: 200,
                n_attrs,
                n_ofds: 3,
                ..PresetConfig::default()
            };
            let ds = clinical(&cfg);
            assert_eq!(ds.clean.n_attrs(), n_attrs);
            let v = Validator::new(&ds.clean, &ds.full_ontology);
            for ofd in &ds.ofds {
                assert!(v.check(ofd).satisfied(), "n_attrs={n_attrs}");
            }
        }
    }

    #[test]
    fn sense_count_controls_ambiguity() {
        let lo = clinical(&PresetConfig {
            n_rows: 150,
            n_senses: 1,
            ..PresetConfig::default()
        });
        let hi = clinical(&PresetConfig {
            n_rows: 150,
            n_senses: 8,
            ..PresetConfig::default()
        });
        assert!(hi.full_ontology.len() > lo.full_ontology.len());
        // With one sense per entity, no value is ambiguous.
        assert!(lo
            .full_ontology
            .values()
            .all(|v| lo.full_ontology.names(v).len() == 1));
        // With eight, the shared entity values belong to eight senses.
        assert!(hi
            .full_ontology
            .values()
            .any(|v| hi.full_ontology.names(v).len() == 8));
    }

    #[test]
    fn named_registry_resolves_perf_workloads() {
        let (_, c40) = named("clinical-40k").unwrap();
        assert_eq!((c40.n_rows, c40.seed), (40_000, 42));
        let (_, c250) = named("clinical-250k").unwrap();
        assert_eq!((c250.n_rows, c250.seed), (250_000, 42));
        let (_, k670) = named("kiva-670k").unwrap();
        assert_eq!((k670.n_rows, k670.seed), (670_000, 9));
        let (_, s1m) = named("synth-1m").unwrap();
        assert_eq!((s1m.n_rows, s1m.seed), (1_000_000, 7));
        assert!(named("no-such-preset").is_none());
        // Downscaled instances of every named workload generate valid
        // datasets (full-scale generation belongs to the perf probe, not
        // unit tests).
        for name in ["clinical-40k", "clinical-250k", "kiva-670k", "synth-1m"] {
            let (build, cfg) = named(name).unwrap();
            let ds = build(&PresetConfig { n_rows: 300, ..cfg });
            assert_eq!(ds.clean.n_rows(), 300, "{name}");
            let v = Validator::new(&ds.clean, &ds.full_ontology);
            for ofd in &ds.ofds {
                assert!(v.check(ofd).satisfied(), "{name}: {:?}", ofd);
            }
        }
    }

    #[test]
    fn ontology_covers_dependent_columns_90_percent() {
        // §7 "we maximize coverage upwards of 90%+ for some attributes".
        let ds = clinical(&PresetConfig {
            n_rows: 500,
            ..PresetConfig::default()
        });
        let med = ds.clean.schema().attr("MED").unwrap();
        let covered = (0..ds.clean.n_rows())
            .filter(|&r| ds.full_ontology.contains_value(ds.clean.text(r, med)))
            .count();
        assert!(covered as f64 / ds.clean.n_rows() as f64 >= 0.9);
    }
}
