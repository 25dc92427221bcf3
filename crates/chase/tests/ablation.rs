//! Ablation checks on the engine's internal strategies — asserting not just
//! *what* is deduced but *how*: the dependency cache `H` eliminates seeded
//! join re-evaluation, the fallback path replaces it, and the ML memo pays.

use dcer_chase::{run_match, ChaseConfig};
use dcer_ml::{EqualTextClassifier, MlRegistry};
use dcer_relation::{Catalog, Dataset, RelationSchema, ValueType};
use std::sync::Arc;

fn setup() -> (Dataset, dcer_mrl::RuleSet, MlRegistry) {
    let cat = Arc::new(
        Catalog::from_schemas(vec![RelationSchema::of(
            "R",
            &[("k", ValueType::Str), ("x", ValueType::Str), ("y", ValueType::Str)],
        )])
        .unwrap(),
    );
    let mut d = Dataset::new(cat.clone());
    // left_i and right_i share x (mergeable by `bridge`); extra_i shares y
    // with right_i (reachable only through the recursive rules).
    for i in 0..10 {
        d.insert(0, vec!["left".into(), format!("x{i}").into(), format!("ly{i}").into()]).unwrap();
        d.insert(0, vec!["right".into(), format!("x{i}").into(), format!("y{i}").into()]).unwrap();
        d.insert(0, vec!["mid".into(), format!("mx{i}").into(), format!("y{i}").into()]).unwrap();
    }
    // The recursive rules come FIRST and their tuple variables are pinned
    // to different `k` constants, so no reflexive valuation can satisfy
    // `t.id = s.id` during `Deduce`: every support valuation lands in `H`.
    // `bridge` then merges left_i ~ right_i and `IncDeduce` must cash the
    // dependencies in (Church-Rosser guarantees the same Γ either way).
    let rules = dcer_mrl::parse_rules(
        &cat,
        r#"match step: R(t), R(s), R(u), t.k = "left", s.k = "right", u.k = "mid",
             t.id = s.id, s.y = u.y -> t.id = u.id;
           match mlstep: R(t), R(s), R(u), t.k = "left", s.k = "right", u.k = "mid",
             m(s.y, u.y), t.id = s.id -> s.id = u.id;
           match bridge: R(t), R(s), t.x = s.x -> t.id = s.id"#,
    )
    .unwrap();
    let mut reg = MlRegistry::new();
    reg.register("m", Arc::new(EqualTextClassifier));
    (d, rules, reg)
}

#[test]
fn dep_cache_replaces_seeded_joins() {
    let (d, rules, reg) = setup();
    let cached = run_match(&d, &rules, &reg, &ChaseConfig::default()).unwrap();
    assert!(cached.stats.deps_recorded > 0, "H is exercised");
    assert!(cached.stats.deps_fired > 0, "H fires");
    assert_eq!(cached.stats.deps_dropped, 0, "H never overflows here");
    assert_eq!(cached.stats.seeded_joins, 0, "with a complete H no join is ever re-run");

    let fallback =
        run_match(&d, &rules, &reg, &ChaseConfig { dep_capacity: 0, ..Default::default() })
            .unwrap();
    assert_eq!(fallback.stats.deps_recorded, 0);
    assert!(fallback.stats.seeded_joins > 0, "fallback re-runs joins");

    // Identical Γ either way.
    let (mut a, mut b) = (cached, fallback);
    assert_eq!(a.matches.clusters(), b.matches.clusters());
}

#[test]
fn ml_memo_eliminates_repeat_classifier_calls() {
    let (d, rules, reg) = setup();
    let out = run_match(&d, &rules, &reg, &ChaseConfig::default()).unwrap();
    assert!(out.stats.ml_calls > 0);
    assert!(
        out.stats.ml_cache_hits > 0,
        "recursive rounds re-test the same pairs; the memo must absorb them"
    );
}

#[test]
fn bounded_h_mixes_both_strategies() {
    let (d, rules, reg) = setup();
    let out = run_match(&d, &rules, &reg, &ChaseConfig { dep_capacity: 4, ..Default::default() })
        .unwrap();
    assert!(out.stats.deps_dropped > 0, "tiny H overflows");
    assert!(out.stats.seeded_joins > 0, "overflow falls back to joins");
    let mut full = run_match(&d, &rules, &reg, &ChaseConfig::default()).unwrap();
    let mut mixed = out;
    assert_eq!(mixed.matches.clusters(), full.matches.clusters());
}
