//! Engine-level window equivalence: `run_match` at every window width must
//! be bit-identical to width 1 (per-candidate evaluation) — same match
//! closure, same validated set, and the same full [`ChaseStats`]
//! (`ml_calls` / `ml_cache_hits` included) — on random datasets and rule
//! subsets.
//!
//! The counters are the sharp part: a wide window probes the memo
//! pred-major instead of row-major per candidate, so the *sequence* of
//! probes differs from width 1. Both counters are permutation-invariant
//! (calls = distinct canonical keys, hits = probes minus distinct), and
//! the probe multiset is preserved because predicate `j` scores exactly
//! the candidates that survived predicates `< j` — which is the
//! per-candidate short-circuit image. This test pins that argument.

use dcer_chase::{run_match, ChaseConfig};
use dcer_ml::{EqualTextClassifier, MlRegistry, NgramCosineClassifier};
use dcer_relation::{Catalog, Dataset, RelationSchema, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![RelationSchema::of(
            "R",
            &[("k", ValueType::Str), ("x", ValueType::Str)],
        )])
        .unwrap(),
    )
}

fn registry() -> MlRegistry {
    let mut r = MlRegistry::new();
    r.register("m", Arc::new(EqualTextClassifier));
    r.register("sim", Arc::new(NgramCosineClassifier::new(0.5)));
    r
}

/// Rules exercising every batched surface: a head-validated (waitable)
/// predicate, a body use of it (deferral), an unwaitable similarity
/// predicate over a cross product (windowed classifier prune — two of
/// them on one step, so selectivity reordering has something to sort),
/// and a transitive id rule (union-find window probe at visit).
const RULES: &str = "match validate: R(t), R(s), t.k = s.k -> m(t.x, s.x);
     match use: R(t), R(s), m(t.x, s.x) -> t.id = s.id;
     match uw: R(t), R(s), sim(t.x, s.x), sim(t.k, s.k) -> t.id = s.id;
     match deep: R(t), R(s), R(u), t.id = s.id, s.k = u.k -> t.id = u.id";

/// Text pool with near-duplicates so the n-gram classifier's verdicts are
/// non-trivial in both directions.
const TEXTS: [&str; 6] = ["alpha", "alphaz", "beta", "betas", "gamma", "zzz"];

fn build(rows: &[(u8, u8)]) -> Dataset {
    let mut d = Dataset::new(catalog());
    for &(k, x) in rows {
        let key = if k == 0 { Value::Null } else { Value::str(format!("k{}", k % 4)) };
        d.insert(0, vec![key, TEXTS[x as usize % TEXTS.len()].into()]).unwrap();
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_width_is_bit_identical_to_width_one(
        rows in prop::collection::vec((0u8..5, 0u8..6), 1..10),
    ) {
        let d = build(&rows);
        let rules = dcer_mrl::parse_rules(d.catalog(), RULES).unwrap();
        let reg = registry();

        let width_one = ChaseConfig { batch_size: 1, ..Default::default() };
        let mut want = run_match(&d, &rules, &reg, &width_one).unwrap();
        let want_clusters = want.matches.clusters();

        for width in [7usize, 64, 4096] {
            let cfg = ChaseConfig { batch_size: width, ..Default::default() };
            let mut got = run_match(&d, &rules, &reg, &cfg).unwrap();
            prop_assert_eq!(got.matches.clusters(), want_clusters.clone(), "width {}", width);
            prop_assert_eq!(&got.validated, &want.validated, "width {}", width);
            prop_assert_eq!(got.stats, want.stats, "stats diverged at width {}", width);
        }
    }
}
