//! The unified scheduler never changes results: the full pipeline —
//! HyPart partition, fleet build, BSP fixpoint — produces bit-identical
//! output (clusters, validated ML facts, exact partition counters) across
//! work-stealing pool sizes {1, 2, 4, 8}, in both execution modes, with
//! and without an explicitly shared pool, and agrees with the sequential
//! `Match` oracle. Each case also picks a predicate window width
//! (1 / 7 / 1024) for the session under test while the oracle always runs
//! width 1, so windowed evaluation is cross-pinned against per-candidate
//! evaluation at every pool size.

use dcer::ml::EqualTextClassifier;
use dcer::prelude::*;
use dcer_bsp::ExecutionMode;
use dcer_core::DmatchReport;
use proptest::prelude::*;
use std::collections::BTreeSet;
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

/// Window widths exercised by the parity matrix: per-candidate, a small
/// odd window, and the default-sized window.
fn batch_configs() -> [dcer_chase::ChaseConfig; 3] {
    use dcer_chase::ChaseConfig;
    [
        ChaseConfig { batch_size: 1, ..Default::default() },
        ChaseConfig { batch_size: 7, ..Default::default() },
        ChaseConfig { batch_size: 1024, ..Default::default() },
    ]
}

/// Deep (recursive), collective (cross-relation) and ML-validating rules,
/// so every pipeline stage — scan, fleet build, exchange, validation —
/// participates in the parity check.
fn session() -> DcerSession {
    let mut registry = MlRegistry::new();
    registry.register("m", Arc::new(EqualTextClassifier));
    DcerSession::from_source(
        catalog(),
        "match md: P(t), P(s), t.k = s.k -> t.id = s.id;
         match deep: P(t), P(s), P(u), t.id = s.id, s.x = u.x -> t.id = u.id;
         match coll: P(t), P(s), Q(a), Q(b), t.fk = a.fk, s.fk = b.fk, a.y = b.y -> t.id = s.id;
         match val: P(t), P(s), t.x = s.x -> m(t.k, s.k);
         match use: P(t), P(s), m(t.k, s.k) -> t.id = s.id",
        registry,
    )
    .unwrap()
}

fn validated_set(report: &DmatchReport) -> BTreeSet<dcer_chase::Fact> {
    report.outcome.validated.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pipeline_is_bit_identical_at_every_pool_size(
        rows_p in prop::collection::vec((0u8..5, 0u8..4, 0u8..6), 1..24),
        rows_q in prop::collection::vec((0u8..6, 0u8..3), 0..12),
        workers in 1usize..5,
        batch_sel in 0usize..3,
    ) {
        // Session under test carries this case's window width; the
        // sequential oracle below always runs width 1.
        let s = session().with_chase_config(batch_configs()[batch_sel].clone());
        let s_width_one = session().with_chase_config(batch_configs()[0].clone());
        let mut d = Dataset::new(s.catalog().clone());
        for &(k, x, fk) in &rows_p {
            d.insert(0, vec![format!("k{k}").into(), format!("x{x}").into(), format!("f{fk}").into()])
                .unwrap();
        }
        for &(fk, y) in &rows_q {
            d.insert(1, vec![format!("f{fk}").into(), format!("y{y}").into()]).unwrap();
        }

        // Oracle: the width-1 sequential Match (one engine, no exchange).
        let mut seq = s_width_one.run_sequential(&d);
        let expected_clusters = seq.matches.clusters();

        // The sequential engine at this width agrees with the oracle
        // before any parallelism enters the picture.
        let mut windowed_seq = s.run_sequential(&d);
        prop_assert_eq!(
            windowed_seq.matches.clusters(),
            expected_clusters.clone(),
            "sequential vs width-1 oracle (batch_sel={})",
            batch_sel
        );

        // Baseline parallel run: a pool with no extra threads at all.
        let mut base_cfg = DmatchConfig::new(workers);
        base_cfg.pool = Some(Arc::new(WorkPool::new(1)));
        let mut base = s.run_parallel(&d, &base_cfg).unwrap();
        prop_assert_eq!(base.outcome.matches.clusters(), expected_clusters.clone());

        for pool_size in [2usize, 4, 8] {
            for mode in [ExecutionMode::Simulated, ExecutionMode::Threaded] {
                let mut cfg = DmatchConfig::new(workers);
                cfg.execution = mode;
                cfg.pool = Some(Arc::new(WorkPool::new(pool_size)));
                let mut report = s.run_parallel(&d, &cfg).unwrap();
                let ctx = format!("pool_size={pool_size} mode={mode:?}");
                prop_assert_eq!(
                    report.outcome.matches.clusters(),
                    expected_clusters.clone(),
                    "{}: clusters",
                    ctx
                );
                prop_assert_eq!(
                    validated_set(&report),
                    validated_set(&base),
                    "{}: validated ML facts",
                    ctx
                );
                // Exact counter equality (including hash computations vs.
                // memo hits) pins the partition to be bit-identical work,
                // not merely an equivalent result.
                prop_assert_eq!(&report.partition, &base.partition, "{}: partition stats", ctx);
            }
        }

        // The default path (session pool, sized to the machine) agrees too.
        let mut default_run = s.run_parallel(&d, &DmatchConfig::new(workers)).unwrap();
        prop_assert_eq!(default_run.outcome.matches.clusters(), expected_clusters);
        prop_assert_eq!(&default_run.partition, &base.partition, "default pool: partition stats");
    }
}
