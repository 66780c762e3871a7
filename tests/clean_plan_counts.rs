//! OFDClean's plans on the five clean-2k benchmark instances, pinned by
//! their counts. Refinement may change how it weighs an edge, and beam
//! search how it costs a node, never what they choose: the sense
//! reassignments, the candidate count w, the beam width b, every frontier
//! (k, cover), the number of ontology insertions and data repairs and
//! `satisfied` stay these literals.

use fastofd::clean::{ofd_clean, OfdCleanConfig};
use fastofd::datagen::{clinical, PresetConfig};

struct Expected {
    seed: u64,
    /// Sense reassignments made by local refinement.
    reassignments: usize,
    w: usize,
    b: usize,
    /// Frontier covers, indexed by k.
    covers: &'static [usize],
    adds: usize,
    repairs: usize,
}

const PLANS: [Expected; 5] = [
    Expected {
        seed: 4,
        reassignments: 1,
        w: 52,
        b: 19,
        covers: &[144, 121, 103, 88, 82, 79, 77, 75, 73, 71, 69, 67, 66],
        adds: 11,
        repairs: 68,
    },
    Expected {
        seed: 1,
        reassignments: 1,
        w: 57,
        b: 20,
        covers: &[161, 121, 111, 102, 95, 89, 85, 82, 79, 77, 75, 73, 72],
        adds: 11,
        repairs: 74,
    },
    Expected {
        seed: 9,
        reassignments: 0,
        w: 61,
        b: 22,
        covers: &[
            169, 136, 114, 105, 101, 97, 93, 90, 87, 85, 83, 81, 79, 77, 75, 73, 72,
        ],
        adds: 15,
        repairs: 74,
    },
    Expected {
        seed: 2,
        reassignments: 0,
        w: 58,
        b: 21,
        covers: &[
            180, 158, 142, 126, 115, 106, 100, 94, 88, 84, 81, 78, 76, 74, 72, 70, 68, 67,
        ],
        adds: 16,
        repairs: 72,
    },
    Expected {
        seed: 3,
        reassignments: 1,
        w: 71,
        b: 26,
        covers: &[
            281, 235, 215, 199, 184, 172, 160, 149, 139, 130, 122, 115, 108, 102, 98, 94, 90, 88,
            86, 84, 82, 80, 78, 76, 75,
        ],
        adds: 23,
        repairs: 77,
    },
];

#[test]
fn clean_2k_plans_are_pinned() {
    for e in &PLANS {
        let mut ds = clinical(&PresetConfig {
            n_rows: 2_000,
            seed: e.seed,
            ..PresetConfig::default()
        });
        ds.degrade_ontology(0.04, e.seed);
        ds.inject_errors(0.03, e.seed);
        let result = ofd_clean(
            &ds.relation,
            &ds.ontology,
            &ds.ofds,
            &OfdCleanConfig::default(),
        );
        let plan = &result.plan;
        let seed = e.seed;
        assert!(result.complete, "seed {seed}");
        assert_eq!(
            result.reassignments, e.reassignments,
            "seed {seed}: reassignments"
        );
        assert_eq!(plan.candidates.len(), e.w, "seed {seed}: w");
        assert_eq!(plan.beam, e.b, "seed {seed}: b");
        let frontier: Vec<(usize, usize)> = plan.frontier.iter().map(|p| (p.k, p.cover)).collect();
        let expected: Vec<(usize, usize)> = e.covers.iter().copied().enumerate().collect();
        assert_eq!(frontier, expected, "seed {seed}: frontier (k, cover)");
        assert_eq!(
            result.ontology_adds.len(),
            e.adds,
            "seed {seed}: ontology adds"
        );
        assert_eq!(
            result.data_repairs.len(),
            e.repairs,
            "seed {seed}: data repairs"
        );
        assert!(result.satisfied, "seed {seed}: satisfied");
    }
}
