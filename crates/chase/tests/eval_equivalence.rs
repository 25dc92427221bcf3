//! Equivalence of the compiled-program enumerator with the original greedy
//! enumerator: for every rule shape, dataset, seeding, and window width,
//! both must visit exactly the same valuation set (and count), because the
//! valuation set of a precondition is a property of the data, not of the
//! join order or of the window width. Every width must additionally
//! preserve the width-1 DFS *visit order* (windows drain in candidate
//! order), which greedy only matches up to reordering.
//!
//! Covers the fixed shapes of `eval.rs`'s unit tests plus a proptest over
//! random small datasets (with nulls), rules, and seeds.

use dcer_chase::{
    enumerate_valuations_greedy, enumerate_with_program, CompiledRule, EvalScratch, MlSigTable,
    RecPred, RuleProgram, ValuationSink,
};
use dcer_mrl::TupleVar;
use dcer_relation::{Catalog, Dataset, IndexSet, RelationSchema, Tuple, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

struct Collect {
    all: Vec<Vec<u32>>,
    prune_ml: bool,
}

impl ValuationSink for Collect {
    fn prune_rec(&mut self, pred: &RecPred, l: &Tuple, r: &Tuple) -> bool {
        // Deterministic, state-free pruning so the pruned set is a property
        // of the data (required for order-independence).
        self.prune_ml && matches!(pred, RecPred::Ml { .. }) && !l.get(0).sql_eq(r.get(0))
    }
    fn visit(&mut self, rows: &[u32]) {
        self.all.push(rows.to_vec());
    }
}

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of(
                "R",
                &[("k", ValueType::Str), ("v", ValueType::Str), ("n", ValueType::Int)],
            ),
            RelationSchema::of("S", &[("k", ValueType::Str), ("w", ValueType::Str)]),
        ])
        .unwrap(),
    )
}

/// Rule shapes: equi-join, self-join, chain, constant filters (string and
/// int, matching and unmatchable), cross product, ML and id recursive
/// predicates.
const RULE_POOL: [&str; 9] = [
    "match j: R(t), S(s), t.k = s.k -> dummy(t.k, s.k)",
    "match sj: R(t), R(s), t.k = s.k -> t.id = s.id",
    "match ch: R(t), S(s), R(u), t.k = s.k, s.k = u.k -> t.id = u.id",
    r#"match cf: R(t), S(s), t.k = s.k, t.v = "v1" -> dummy(t.k, s.k)"#,
    "match ci: R(t), R(s), t.n = 1, t.v = s.v -> t.id = s.id",
    r#"match dead: R(t), S(s), t.k = s.k, t.v = "nowhere" -> dummy(t.k, s.k)"#,
    "match x: R(t), S(s) -> dummy(t.k, s.k)",
    "match ml: R(t), S(s), t.k = s.k, m(t.v, s.w) -> dummy(t.v, s.w)",
    "match idp: R(t), R(s), R(u), t.k = s.k, s.id = u.id -> t.id = u.id",
];

fn compile(d: &Dataset, idx: usize) -> CompiledRule {
    let src: String = RULE_POOL.iter().map(|r| format!("{r};\n")).collect();
    let rules = dcer_mrl::parse_rules(d.catalog(), &src).unwrap();
    let sigs = MlSigTable::build(&rules);
    CompiledRule::compile(&rules, &sigs, idx)
}

fn build_dataset(rows_r: &[(u8, u8, u8)], rows_s: &[(u8, u8)]) -> Dataset {
    let mut d = Dataset::new(catalog());
    let key = |k: u8| if k == 0 { Value::Null } else { Value::str(format!("k{}", k % 4)) };
    for &(k, v, n) in rows_r {
        d.insert(0, vec![key(k), format!("v{}", v % 3).into(), Value::Int((n % 3) as i64)])
            .unwrap();
    }
    for &(k, w) in rows_s {
        d.insert(1, vec![key(k), format!("w{}", w % 3).into()]).unwrap();
    }
    d
}

/// Window widths pinned against width 1: even (2), odd (7), typical (64),
/// and larger-than-any-candidate-list (4096).
const BATCH_WIDTHS: [usize; 4] = [2, 7, 64, 4096];

/// Run greedy and the compiled enumerator at width 1 and assert identical
/// valuation sets and counts; every wider window must match width 1's
/// visit order exactly.
fn assert_equivalent(
    plan: &CompiledRule,
    d: &Dataset,
    seeds: &[(TupleVar, u32)],
    prune_ml: bool,
) -> usize {
    let mut greedy_sink = Collect { all: vec![], prune_ml };
    let mut greedy_idx = IndexSet::new();
    let gn = enumerate_valuations_greedy(plan, d, &mut greedy_idx, seeds, &mut greedy_sink);

    let mut compiled_sink = Collect { all: vec![], prune_ml };
    let mut compiled_idx = IndexSet::new();
    let program = RuleProgram::compile(plan, d, &mut compiled_idx);
    let cn = enumerate_with_program(
        &program,
        plan,
        d,
        &compiled_idx,
        seeds,
        &mut EvalScratch::new(),
        &mut compiled_sink,
        1,
    );

    for width in BATCH_WIDTHS {
        let mut wide_sink = Collect { all: vec![], prune_ml };
        let mut scratch = EvalScratch::new();
        let wn = enumerate_with_program(
            &program,
            plan,
            d,
            &compiled_idx,
            seeds,
            &mut scratch,
            &mut wide_sink,
            width,
        );
        assert_eq!(wn, cn, "count diverged for `{}` width {width}", plan.name);
        assert_eq!(
            wide_sink.all, compiled_sink.all,
            "visit order diverged for rule `{}` seeds {seeds:?} width {width}",
            plan.name
        );
    }

    assert_eq!(gn, greedy_sink.all.len() as u64);
    assert_eq!(cn, compiled_sink.all.len() as u64);
    greedy_sink.all.sort();
    compiled_sink.all.sort();
    assert_eq!(
        greedy_sink.all, compiled_sink.all,
        "enumerators diverged for rule `{}` seeds {seeds:?}",
        plan.name
    );
    compiled_sink.all.len()
}

#[test]
fn fixed_shapes_agree_unseeded_and_seeded() {
    let d = build_dataset(
        &[(1, 1, 0), (1, 2, 1), (2, 0, 1), (0, 1, 2), (3, 1, 1)],
        &[(1, 0), (2, 1), (0, 2), (3, 0)],
    );
    let mut total = 0;
    for i in 0..RULE_POOL.len() {
        let plan = compile(&d, i);
        for prune in [false, true] {
            total += assert_equivalent(&plan, &d, &[], prune);
            // Every row of var 0 as a seed, plus one out of range.
            for row in 0..=d.relation(plan.atoms[0]).len() as u32 {
                total += assert_equivalent(&plan, &d, &[(TupleVar(0), row)], prune);
            }
            // A two-variable seeding.
            total += assert_equivalent(&plan, &d, &[(TupleVar(0), 0), (TupleVar(1), 0)], prune);
        }
    }
    assert!(total > 0, "shapes produced no valuations at all");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_data_rules_and_seeds_agree(
        rows_r in prop::collection::vec((0u8..4, 0u8..3, 0u8..3), 1..7),
        rows_s in prop::collection::vec((0u8..4, 0u8..3), 0..5),
        rule in 0usize..RULE_POOL.len(),
        seed_sel in 0u8..8,
        prune_ml in any::<bool>(),
    ) {
        let d = build_dataset(&rows_r, &rows_s);
        let plan = compile(&d, rule);

        assert_equivalent(&plan, &d, &[], prune_ml);

        // Seed var 0 on a row index that may be out of range.
        let r0 = seed_sel as u32 % (rows_r.len() as u32 + 1);
        assert_equivalent(&plan, &d, &[(TupleVar(0), r0)], prune_ml);

        // Seed the last variable too (S or R depending on the rule).
        let last = TupleVar(plan.num_vars() as u16 - 1);
        let last_len = d.relation(plan.atoms[last.0 as usize]).len() as u32;
        if last_len > 0 {
            let r1 = seed_sel as u32 % last_len;
            assert_equivalent(&plan, &d, &[(TupleVar(0), r0), (last, r1)], prune_ml);
        }
    }
}
