//! Property test for Lemma 6: after HyPart partitioning, every valuation of
//! every rule whose equality/constant predicates hold in the full dataset
//! is fully contained in at least one fragment — for random data, random
//! rules from a pool, any worker count, with and without MQO.

use dcer_hypart::{partition, HyPartConfig};
use dcer_mrl::{parse_rules, Predicate, Rule, RuleSet, TupleVar};
use dcer_relation::{Catalog, Dataset, RelationSchema, Tid, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of("A", &[("k", ValueType::Str), ("v", ValueType::Str)]),
            RelationSchema::of("B", &[("k", ValueType::Str), ("w", ValueType::Str)]),
        ])
        .unwrap(),
    )
}

const RULE_POOL: [&str; 4] = [
    "match self_a: A(t), A(s), t.k = s.k -> t.id = s.id",
    "match cross: A(t), B(u), A(s), B(v), t.k = u.k, s.k = v.k, u.w = v.w -> t.id = s.id",
    "match mlr: A(t), A(s), m(t.v, s.v), t.k = s.k -> t.id = s.id",
    "match constp: A(t), A(s), t.v = \"c0\", s.v = \"c0\", t.k = s.k -> t.id = s.id",
];

fn rules(selection: &[usize]) -> RuleSet {
    let src: String = selection.iter().map(|&i| format!("{};\n", RULE_POOL[i])).collect();
    parse_rules(&catalog(), &src).unwrap()
}

/// Brute-force check: every satisfying valuation is co-located somewhere.
fn assert_locality(d: &Dataset, rs: &RuleSet, fragments: &[Dataset]) {
    for rule in rs.rules() {
        let mut rows = vec![0usize; rule.num_vars()];
        recurse(d, rule, &mut rows, 0, fragments);
    }
}

fn recurse(d: &Dataset, rule: &Rule, rows: &mut Vec<usize>, depth: usize, fragments: &[Dataset]) {
    if depth == rule.num_vars() {
        for p in &rule.body {
            match p {
                Predicate::AttrEq { left, right } => {
                    let lt = &d.relation(rule.rel_of(left.0)).tuples()[rows[left.0 .0 as usize]];
                    let rt = &d.relation(rule.rel_of(right.0)).tuples()[rows[right.0 .0 as usize]];
                    if !lt.get(left.1).sql_eq(rt.get(right.1)) {
                        return;
                    }
                }
                Predicate::ConstEq { var, attr, value } => {
                    let t = &d.relation(rule.rel_of(*var)).tuples()[rows[var.0 as usize]];
                    if !t.get(*attr).sql_eq(value) {
                        return;
                    }
                }
                // Recursive predicates don't constrain placement beyond the
                // id/ML distinct-variable dimensions, which broadcast.
                _ => {}
            }
        }
        let tids: Vec<Tid> = (0..rule.num_vars())
            .map(|v| d.relation(rule.rel_of(TupleVar(v as u16))).tuples()[rows[v]].tid)
            .collect();
        assert!(
            fragments.iter().any(|f| tids.iter().all(|t| f.relation(t.rel).contains(*t))),
            "valuation {tids:?} of `{}` not co-located",
            rule.name
        );
        return;
    }
    let n = d.relation(rule.rel_of(TupleVar(depth as u16))).len();
    for r in 0..n {
        rows[depth] = r;
        recurse(d, rule, rows, depth + 1, fragments);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn lemma6_holds_for_random_data_and_rules(
        rows_a in prop::collection::vec((0u8..4, 0u8..3), 1..7),
        rows_b in prop::collection::vec((0u8..4, 0u8..3), 0..5),
        selection in proptest::sample::subsequence(vec![0usize, 1, 2, 3], 1..=4),
        workers in 1usize..6,
        use_mqo in any::<bool>(),
        threads in proptest::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let mut d = Dataset::new(catalog());
        for &(k, v) in &rows_a {
            d.insert(0, vec![format!("k{k}").into(), format!("c{v}").into()]).unwrap();
        }
        for &(k, w) in &rows_b {
            d.insert(1, vec![format!("k{k}").into(), format!("w{w}").into()]).unwrap();
        }
        let rs = rules(&selection);
        let mut cfg = HyPartConfig::new(workers);
        cfg.use_mqo = use_mqo;
        // Lemma 6 must hold under the sharded parallel scan too.
        cfg.threads = threads;
        let p = partition(&d, &rs, &cfg);
        prop_assert_eq!(p.fragments.len(), workers);
        assert_locality(&d, &rs, &p.fragments);
        // Parity with the one-lane run at this thread count (the full
        // determinism proptest lives in crates/hypart/tests/parallel_parity.rs).
        let r = partition(&d, &rs, &HyPartConfig { threads: 1, ..cfg.clone() });
        prop_assert_eq!(&p.stats, &r.stats);
        prop_assert_eq!(&p.rule_masks, &r.rule_masks);
        for (fa, fb) in p.fragments.iter().zip(&r.fragments) {
            for (ra, rb) in fa.relations().iter().zip(fb.relations()) {
                prop_assert_eq!(ra.tuples(), rb.tuples());
            }
        }
        // Every tuple is hosted, and a fragment's rule-mask keys are
        // exactly its tuples.
        for t in d.all_tuples() {
            prop_assert!(p.rule_masks.iter().any(|m| m.contains_key(&t.tid)), "every tuple hosted");
        }
        for (f, masks) in p.fragments.iter().zip(&p.rule_masks) {
            prop_assert_eq!(f.total_tuples(), masks.len());
            prop_assert!(masks.keys().all(|&tid| f.relation(tid.rel).contains(tid)));
        }
    }
}
