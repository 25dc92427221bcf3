//! Cross-engine equivalence on randomized inputs (Propositions 4 & 8):
//! naive chase ≡ sequential `Match` ≡ `DMatch` for every worker count,
//! execution mode, dependency-cache configuration and MQO setting.

use dcer::prelude::*;
use dcer_bsp::ExecutionMode;
use dcer_chase::ChaseConfig;
use dcer_ml::EqualTextClassifier;
use dcer_relation::{Catalog, RelationSchema};
use proptest::prelude::*;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of(
                "P",
                &[
                    ("k", dcer_relation::ValueType::Str),
                    ("x", dcer_relation::ValueType::Str),
                    ("fk", dcer_relation::ValueType::Str),
                ],
            ),
            RelationSchema::of(
                "Q",
                &[("fk", dcer_relation::ValueType::Str), ("y", dcer_relation::ValueType::Str)],
            ),
        ])
        .unwrap(),
    )
}

fn session() -> DcerSession {
    let mut reg = MlRegistry::new();
    reg.register("m", Arc::new(EqualTextClassifier));
    DcerSession::from_source(
        catalog(),
        "match md: P(t), P(s), t.k = s.k -> t.id = s.id;
         match deep: P(t), P(s), P(u), t.id = s.id, s.x = u.x -> t.id = u.id;
         match coll: P(t), P(s), Q(a), Q(b), t.fk = a.fk, s.fk = b.fk, a.y = b.y -> t.id = s.id;
         match val: P(t), P(s), t.x = s.x -> m(t.k, s.k);
         match use: P(t), P(s), m(t.k, s.k) -> t.id = s.id",
        reg,
    )
    .unwrap()
}

fn build(rows_p: &[(u8, u8, u8)], rows_q: &[(u8, u8)]) -> Dataset {
    let mut d = Dataset::new(catalog());
    for &(k, x, fk) in rows_p {
        d.insert(
            0,
            vec![
                format!("k{}", k % 5).into(),
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

/// Proposition 8 on a realistic corpus: on a generated bibliographic
/// workload (collective rule `phi_c` over articles/authors/venues), the
/// naive reference chase, the sequential `Match` and `DMatch` produce
/// identical match sets.
#[test]
fn engines_agree_on_datagen_workload() {
    use dcer_datagen::bib;
    // Small corpus: the naive oracle enumerates the full cross product of
    // phi_c's four atoms every round, so its cost grows with the 4th power
    // of the relation sizes.
    let (d, _truth) = bib::generate(&bib::BibConfig { articles: 8, dup: 0.5, seed: 11 });
    let s = DcerSession::from_source(bib::catalog(), bib::rules_source(), bib::make_registry())
        .unwrap();
    let expected = s.run_naive(&d).unwrap().matches.clusters();
    assert!(!expected.is_empty(), "workload must produce matches");
    let mut seq = s.run_sequential(&d);
    assert_eq!(seq.matches.clusters(), expected, "sequential Match vs naive chase");
    for workers in [2, 5] {
        let mut got = s.run_parallel(&d, &DmatchConfig::new(workers)).unwrap();
        assert_eq!(got.outcome.matches.clusters(), expected, "DMatch with {workers} workers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_converge_to_the_same_gamma(
        rows_p in prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 2..9),
        rows_q in prop::collection::vec((0u8..4, 0u8..3), 0..6),
    ) {
        let d = build(&rows_p, &rows_q);
        let s = session();
        let expected = s.run_naive(&d).unwrap().matches.clusters();
        { let mut seq = s.run_sequential(&d); prop_assert_eq!(&seq.matches.clusters(), &expected); }

        for workers in [1, 2, 4] {
            for mode in [ExecutionMode::Simulated, ExecutionMode::Threaded] {
                for use_mqo in [true, false] {
                    let mut cfg = DmatchConfig::new(workers);
                    cfg.execution = mode;
                    cfg.use_mqo = use_mqo;
                    let got = s.run_parallel(&d, &cfg).unwrap().outcome.matches.clusters();
                    prop_assert_eq!(
                        &got, &expected,
                        "workers={} mode={:?} mqo={}", workers, mode, use_mqo
                    );
                }
            }
        }
    }

    #[test]
    fn dep_cache_and_batching_settings_do_not_change_gamma(
        rows_p in prop::collection::vec((0u8..4, 0u8..3, 0u8..3), 2..8),
    ) {
        let d = build(&rows_p, &[]);
        let s = session();
        let expected = s.run_sequential(&d).matches.clusters();
        for chase in [
            ChaseConfig { dep_capacity: 0, ..Default::default() },
            ChaseConfig { dep_capacity: 1, ..Default::default() },
            ChaseConfig { batch_size: 1, ..Default::default() },
            ChaseConfig { batch_size: 1, dep_capacity: 1, ..Default::default() },
        ] {
            let s2 = session().with_chase_config(chase.clone());
            prop_assert_eq!(&s2.run_sequential(&d).matches.clusters(), &expected, "{:?}", chase);
            let mut got = s2.run_parallel(&d, &DmatchConfig::new(3)).unwrap();
            prop_assert_eq!(&got.outcome.matches.clusters(), &expected);
        }
    }
}
