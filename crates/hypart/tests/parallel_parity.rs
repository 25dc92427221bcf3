//! Property test for the parallel partitioner's determinism claim: for
//! random datasets, rule selections and worker counts, `partition()` at
//! every lane count (transient or caller-provided pool) produces a
//! `Partition` — fragments, rule masks, hosts, stats — bit-identical to
//! the one-lane run, whose output `tests/golden.rs` pins to a file.

use dcer_hypart::{partition, HyPartConfig, Partition};
use dcer_mrl::parse_rules;
use dcer_relation::{Catalog, Dataset, RelationSchema, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of("A", &[("k", ValueType::Str), ("v", ValueType::Float)]),
            RelationSchema::of("B", &[("k", ValueType::Str), ("w", ValueType::Str)]),
        ])
        .unwrap(),
    )
}

const RULE_POOL: [&str; 4] = [
    "match self_a: A(t), A(s), t.k = s.k -> t.id = s.id",
    "match cross: A(t), B(u), A(s), B(v), t.k = u.k, s.k = v.k, u.w = v.w -> t.id = s.id",
    "match numeric: A(t), A(s), t.v = s.v -> t.id = s.id",
    "match b_only: B(u), B(v), u.w = v.w -> u.id = v.id",
];

/// Field-by-field equality, with fragments compared as exact tuple
/// sequences so row-order divergence is caught, not just set equality.
fn assert_identical(a: &Partition, b: &Partition, context: &str) {
    assert_eq!(a.fragments.len(), b.fragments.len(), "{context}: fragment count");
    for (w, (fa, fb)) in a.fragments.iter().zip(&b.fragments).enumerate() {
        for (ra, rb) in fa.relations().iter().zip(fb.relations()) {
            assert_eq!(ra.tuples(), rb.tuples(), "{context}: fragment {w} rows");
        }
    }
    assert_eq!(a.hosts, b.hosts, "{context}: hosts");
    assert_eq!(a.rule_masks, b.rule_masks, "{context}: rule masks");
    assert_eq!(a.stats, b.stats, "{context}: stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_partition_is_bit_identical_to_one_lane_oracle(
        rows_a in prop::collection::vec((0u8..5, -2i8..3), 0..24),
        rows_b in prop::collection::vec((0u8..5, 0u8..3), 0..16),
        selection in proptest::sample::subsequence(vec![0usize, 1, 2, 3], 1..=4),
        workers in 1usize..6,
        use_mqo in any::<bool>(),
        virtual_factor in 1usize..5,
    ) {
        let mut d = Dataset::new(catalog());
        for &(k, v) in &rows_a {
            // Half-integral floats exercise both numeric hash paths.
            d.insert(0, vec![format!("k{k}").into(), (f64::from(v) / 2.0).into()]).unwrap();
        }
        for &(k, w) in &rows_b {
            d.insert(1, vec![format!("k{k}").into(), format!("w{w}").into()]).unwrap();
        }
        let src: String = selection.iter().map(|&i| format!("{};\n", RULE_POOL[i])).collect();
        let rs = parse_rules(&catalog(), &src).unwrap();

        let mut base = HyPartConfig::new(workers);
        base.use_mqo = use_mqo;
        base.virtual_factor = virtual_factor;
        base.threads = 1;
        let oracle = partition(&d, &rs, &base);

        for threads in [1usize, 2, 4, 8] {
            let mut cfg = base.clone();
            cfg.threads = threads;
            let p = partition(&d, &rs, &cfg);
            assert_identical(&p, &oracle, &format!("threaded, threads={threads}"));

            // A caller-provided shared pool must be just as invisible to
            // the output as the transient per-call pool.
            cfg.pool = Some(Arc::new(dcer_pool::WorkPool::new(threads)));
            let pp = partition(&d, &rs, &cfg);
            assert_identical(&pp, &oracle, &format!("shared pool, lanes={threads}"));
        }
    }
}
