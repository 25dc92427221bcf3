//! Property tests for the chase's Church–Rosser property (Corollary 1) and
//! the equivalence of the optimized `Match` with the naive reference chase
//! under randomized data, rule orders, and engine configurations.

use dcer_chase::{naive_chase, run_match, ChaseConfig};
use dcer_ml::{EqualTextClassifier, MlRegistry};
use dcer_mrl::{parse_rules, RuleSet};
use dcer_relation::{Catalog, Dataset, RelationSchema, Tid, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of(
                "P",
                &[("k", ValueType::Str), ("x", ValueType::Str), ("fk", ValueType::Str)],
            ),
            RelationSchema::of("Q", &[("fk", ValueType::Str), ("y", ValueType::Str)]),
        ])
        .unwrap(),
    )
}

/// A pool of rules exercising every predicate kind: plain MD, deep
/// (id precondition), collective (3 atoms across 2 tables), ML validation
/// chain.
const RULE_POOL: [&str; 5] = [
    "match md: P(t), P(s), t.k = s.k -> t.id = s.id",
    "match deep: P(t), P(s), P(u), t.id = s.id, s.x = u.x -> t.id = u.id",
    "match coll: P(t), P(s), Q(a), Q(b), t.fk = a.fk, s.fk = b.fk, a.y = b.y -> t.id = s.id",
    "match val: P(t), P(s), t.x = s.x -> mdl(t.k, s.k)",
    "match use: P(t), P(s), mdl(t.k, s.k) -> t.id = s.id",
];

fn registry() -> MlRegistry {
    let mut r = MlRegistry::new();
    r.register("mdl", Arc::new(EqualTextClassifier));
    r
}

fn build_dataset(rows_p: &[(u8, u8, u8)], rows_q: &[(u8, u8)]) -> Dataset {
    let mut d = Dataset::new(catalog());
    for &(k, x, fk) in rows_p {
        d.insert(
            0,
            vec![
                format!("k{}", k % 4).into(),
                format!("x{}", x % 4).into(),
                format!("f{}", fk % 4).into(),
            ],
        )
        .unwrap();
    }
    for &(fk, y) in rows_q {
        d.insert(1, vec![format!("f{}", fk % 4).into(), format!("y{}", y % 3).into()]).unwrap();
    }
    d
}

fn rules_in_order(order: &[usize]) -> RuleSet {
    let src: String = order.iter().map(|&i| format!("{};\n", RULE_POOL[i])).collect();
    parse_rules(&catalog(), &src).unwrap()
}

fn canonical_clusters(mut m: dcer_chase::MatchSet) -> Vec<Vec<Tid>> {
    m.clusters()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any permutation (and multiplicity) of rules converges to the same Γ,
    /// and the optimized engine agrees with the naive chase in every
    /// configuration (dep cache full / none / tiny).
    #[test]
    fn church_rosser_and_engine_equivalence(
        rows_p in prop::collection::vec((0u8..4, 0u8..4, 0u8..4), 1..7),
        rows_q in prop::collection::vec((0u8..4, 0u8..3), 0..5),
        order in proptest::sample::subsequence(vec![0usize, 1, 2, 3, 4], 1..=5),
        shuffle_seed in 0u64..1000,
    ) {
        let d = build_dataset(&rows_p, &rows_q);
        let reg = registry();

        // Baseline: naive chase with rules in pool order.
        let baseline_rules = rules_in_order(&order);
        let baseline = canonical_clusters(
            naive_chase(&d, &baseline_rules, &reg).unwrap().matches,
        );

        // Permute the rule order deterministically from the seed.
        let mut permuted = order.clone();
        let n = permuted.len();
        for i in (1..n).rev() {
            let j = (shuffle_seed as usize).wrapping_mul(31).wrapping_add(i) % (i + 1);
            permuted.swap(i, j);
        }
        let permuted_rules = rules_in_order(&permuted);
        let naive_permuted = canonical_clusters(
            naive_chase(&d, &permuted_rules, &reg).unwrap().matches,
        );
        prop_assert_eq!(&baseline, &naive_permuted, "rule order changed Γ");

        for cfg in [
            ChaseConfig::default(),
            ChaseConfig { dep_capacity: 0, ..Default::default() },
            ChaseConfig { dep_capacity: 3, ..Default::default() },
        ] {
            let outcome = run_match(&d, &permuted_rules, &reg, &cfg).unwrap();
            let clusters = canonical_clusters(outcome.matches);
            prop_assert_eq!(&baseline, &clusters, "engine config {:?} diverged", cfg);
        }
    }

    /// Validated ML predictions agree between naive chase and the engine.
    #[test]
    fn validated_predictions_agree(
        rows_p in prop::collection::vec((0u8..3, 0u8..3, 0u8..3), 1..6),
    ) {
        let d = build_dataset(&rows_p, &[]);
        let reg = registry();
        let rules = rules_in_order(&[3, 4, 0]);
        let naive = naive_chase(&d, &rules, &reg).unwrap();
        let opt = run_match(&d, &rules, &reg, &ChaseConfig::default()).unwrap();
        let mut a: Vec<_> = naive.validated.iter().copied().collect();
        let mut b: Vec<_> = opt.validated.iter().copied().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}
