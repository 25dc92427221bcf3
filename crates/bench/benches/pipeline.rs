//! End-to-end pipeline benchmarks: HyPart partitioning (with/without MQO),
//! the sequential `Match`, the incremental `IncDeduce` path, and full
//! `DMatch` at several worker counts — the Criterion counterparts of the
//! paper's efficiency experiments.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dcer_chase::{ChaseConfig, ChaseEngine, DeltaBatch, Fact};
use dcer_core::DmatchConfig;
use dcer_datagen::tpch;
use dcer_hypart::{partition, HyPartConfig};
use dcer_mrl::parse_rules;
use dcer_relation::Tid;

fn tpch_setup() -> (dcer_relation::Dataset, dcer_mrl::RuleSet, dcer_ml::MlRegistry) {
    let (data, _) = tpch::generate(&tpch::TpchConfig { scale: 0.02, dup: 0.3, seed: 42 });
    let rules = parse_rules(&tpch::catalog(), tpch::rules_source()).unwrap();
    (data, rules, tpch::make_registry())
}

fn bench_partition(c: &mut Criterion) {
    let (data, rules, _) = tpch_setup();
    let mut g = c.benchmark_group("hypart");
    for &mqo in &[true, false] {
        g.bench_with_input(
            BenchmarkId::new("partition_n8", if mqo { "mqo" } else { "no_mqo" }),
            &mqo,
            |b, &mqo| {
                let mut cfg = HyPartConfig::new(8);
                cfg.use_mqo = mqo;
                b.iter(|| black_box(partition(&data, &rules, &cfg)))
            },
        );
    }
    g.finish();
}

fn bench_sequential_match(c: &mut Criterion) {
    let (data, rules, registry) = tpch_setup();
    let mut g = c.benchmark_group("match");
    g.sample_size(10);
    g.bench_function("run_match_tpch_sf002", |b| {
        b.iter(|| {
            black_box(
                dcer_chase::run_match(&data, &rules, &registry, &ChaseConfig::default()).unwrap(),
            )
        })
    });
    // The update-driven fallback path (no dependency cache).
    g.bench_function("run_match_no_dep_cache", |b| {
        let cfg = ChaseConfig { dep_capacity: 0, ..Default::default() };
        b.iter(|| black_box(dcer_chase::run_match(&data, &rules, &registry, &cfg).unwrap()))
    });
    g.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let (data, rules, registry) = tpch_setup();
    // Pre-run the local fixpoint once; benchmark applying one external
    // match delta (the A_Δ path of DMatch).
    let nation_a = Tid::new(tpch::rel::NATION, 0);
    let nation_b = Tid::new(tpch::rel::NATION, 1);
    let delta = DeltaBatch::new(vec![Fact::id(nation_a, nation_b)]);
    c.bench_function("incdeduce_single_delta", |b| {
        b.iter_batched(
            || {
                let mut engine =
                    ChaseEngine::new(data.clone(), &rules, &registry, &ChaseConfig::default())
                        .unwrap();
                engine.update_fixpoint();
                engine
            },
            |mut engine| black_box(engine.incdeduce(&delta)),
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_dmatch(c: &mut Criterion) {
    let (data, rules, registry) = tpch_setup();
    let mut g = c.benchmark_group("dmatch");
    g.sample_size(10);
    for &n in &[1usize, 4, 16] {
        g.bench_with_input(BenchmarkId::new("workers", n), &n, |b, &n| {
            b.iter(|| {
                black_box(
                    dcer_core::run_dmatch(&data, &rules, &registry, &DmatchConfig::new(n)).unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(10);
    targets = bench_partition, bench_sequential_match, bench_incremental, bench_dmatch
}
criterion_main!(pipeline);
