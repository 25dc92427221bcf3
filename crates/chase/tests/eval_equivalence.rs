//! Equivalence of the compiled-program enumerator with the brute-force
//! reference [`enumerate_brute`]: for every rule shape, dataset, seeding,
//! admission scope and window width, both must visit exactly the same
//! valuation set (and count), because the valuation set of a precondition
//! is a property of the data, not of the join order or of the window
//! width. Every width must additionally preserve the width-1 DFS *visit
//! order* (windows drain in candidate order), which the cross product only
//! matches up to reordering.
//!
//! Covers the fixed shapes of `eval.rs`'s unit tests (with nulls and
//! tombstones, every single and every two-variable seeding) plus a
//! proptest over random small datasets (with nulls), rules, and seeds.

use dcer_chase::{
    enumerate_brute, enumerate_with_program, CompiledRule, EvalScratch, MlSigTable, RecPred,
    RuleProgram, ValuationSink,
};
use dcer_mrl::TupleVar;
use dcer_relation::{Catalog, Dataset, IndexSet, RelationSchema, Tid, Tuple, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

struct Collect<'a> {
    plan: &'a CompiledRule,
    all: Vec<Vec<u32>>,
    prune_ml: bool,
    scoped: bool,
}

impl ValuationSink for Collect<'_> {
    fn admit_row(&mut self, var: TupleVar, row: u32) -> bool {
        // A fixed, data-independent scope, like HyPart's per-rule one.
        !self.scoped || !(var.0 as u32 + row).is_multiple_of(3)
    }
    fn prune_rec(&mut self, pred: usize, l: &Tuple, r: &Tuple) -> bool {
        // Deterministic, state-free pruning so the pruned set is a property
        // of the data (required for order-independence).
        self.prune_ml
            && matches!(self.plan.rec_preds[pred], RecPred::Ml { .. })
            && !l.get(0).sql_eq(r.get(0))
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

/// Run the reference and the compiled enumerator at width 1 and assert
/// identical valuation sets and counts; every wider window must match
/// width 1's visit order exactly.
fn assert_equivalent(
    plan: &CompiledRule,
    d: &Dataset,
    seeds: &[(TupleVar, u32)],
    prune_ml: bool,
    scoped: bool,
) -> usize {
    let collect = || Collect { plan, all: vec![], prune_ml, scoped };
    let mut brute_sink = collect();
    let bn = enumerate_brute(plan, d, seeds, &mut brute_sink);

    let mut idx = IndexSet::new();
    let program = RuleProgram::compile(plan, d, &mut idx);
    let run = |width| {
        let mut sink = collect();
        let n = enumerate_with_program(
            &program,
            plan,
            d,
            &idx,
            seeds,
            &mut EvalScratch::new(),
            &mut sink,
            width,
        );
        assert_eq!(n, sink.all.len() as u64);
        sink.all
    };
    let compiled = run(1);
    for width in BATCH_WIDTHS {
        assert_eq!(
            run(width),
            compiled,
            "visit order diverged for rule `{}` seeds {seeds:?} width {width}",
            plan.name
        );
    }

    assert_eq!(bn, brute_sink.all.len() as u64);
    let mut brute = brute_sink.all;
    let mut sorted = compiled;
    brute.sort();
    sorted.sort();
    assert_eq!(
        brute, sorted,
        "enumerators diverged for rule `{}` seeds {seeds:?} prune_ml {prune_ml} scoped {scoped}",
        plan.name
    );
    sorted.len()
}

#[test]
fn fixed_shapes_agree_unseeded_and_seeded() {
    let mut d = build_dataset(
        &[(1, 1, 0), (1, 2, 1), (2, 0, 1), (0, 1, 2), (3, 1, 1), (1, 1, 0)],
        &[(1, 0), (2, 1), (0, 2), (3, 0), (1, 0)],
    );
    // The last row of each relation is a tombstone: never bound by a scan,
    // and a seed on it yields nothing.
    assert!(d.delete(Tid::new(0, 5)) && d.delete(Tid::new(1, 4)));
    let mut total = 0;
    for i in 0..RULE_POOL.len() {
        let plan = compile(&d, i);
        let len = |v: usize| d.relation(plan.atoms[v]).len() as u32;
        let last = plan.num_vars() - 1;
        for (prune, scoped) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut check = |seeds: &[(TupleVar, u32)]| {
                total += assert_equivalent(&plan, &d, seeds, prune, scoped);
            };
            check(&[]);
            // Every row of every variable as a seed, plus one out of range.
            for v in 0..plan.num_vars() {
                for row in 0..=len(v) {
                    check(&[(TupleVar(v as u16), row)]);
                }
            }
            // Every seeding of the first and last variables together.
            for r0 in 0..len(0) {
                for r1 in 0..len(last) {
                    check(&[(TupleVar(0), r0), (TupleVar(last as u16), r1)]);
                }
            }
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
        scoped in any::<bool>(),
    ) {
        let d = build_dataset(&rows_r, &rows_s);
        let plan = compile(&d, rule);

        assert_equivalent(&plan, &d, &[], prune_ml, scoped);

        // Seed var 0 on a row index that may be out of range.
        let r0 = seed_sel as u32 % (rows_r.len() as u32 + 1);
        assert_equivalent(&plan, &d, &[(TupleVar(0), r0)], prune_ml, scoped);

        // Seed the last variable too (S or R depending on the rule).
        let last = TupleVar(plan.num_vars() as u16 - 1);
        let last_len = d.relation(plan.atoms[last.0 as usize]).len() as u32;
        if last_len > 0 {
            let r1 = seed_sel as u32 % last_len;
            assert_equivalent(&plan, &d, &[(TupleVar(0), r0), (last, r1)], prune_ml, scoped);
        }
    }
}
