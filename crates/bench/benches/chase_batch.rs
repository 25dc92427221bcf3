//! Predicate-window benchmark: the full sequential `Match` with columnar
//! candidate windows of 64 and 1024 rows versus width 1 (per-candidate
//! evaluation), on an ML-heavy workload where classifier cost dominates
//! the chase.
//!
//! The shape is an equi-join `R(t), S(s), t.k = s.k` guarded by an n-gram
//! cosine predicate `sim(t.x, s.w)`: every R key matches a window of S
//! rows, so each window shares one (long, expensive-to-profile) left text
//! across hundreds of pairs. The batch kernel profiles each distinct text
//! once per window (`per_side_cache`), where width 1 rebuilds both
//! profiles for every pair — that amortization is the headline
//! `batch_speedup` claim (width 1 / width 1024; floor: 2x, guarded in CI).
//!
//! Each measured iteration runs `run_match` from scratch (fresh engine,
//! fresh memo): a warm memo would absorb the classifier work and measure
//! nothing but cache probes. After measuring, results are written to
//! `BENCH_chase_batch.json` at the workspace root (or, with
//! `CHASE_BATCH_QUICK` set, a reduced run to
//! `results/BENCH_chase_batch_quick.json` for the CI smoke job).

use criterion::{black_box, Criterion};
use dcer_chase::{run_match, ChaseConfig};
use dcer_ml::{EqualTextClassifier, MlRegistry, NgramCosineClassifier};
use dcer_mrl::RuleSet;
use dcer_relation::{Catalog, Dataset, RelationSchema, ValueType};
use std::sync::Arc;

/// `rows_s` S tuples spread over `rows_r` R keys: each R row's long text
/// meets a window of `rows_s / rows_r` short S texts under the equi-join.
fn workload(rows_r: usize, rows_s: usize) -> (Dataset, RuleSet, MlRegistry) {
    let cat = Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of("R", &[("k", ValueType::Str), ("x", ValueType::Str)]),
            RelationSchema::of("S", &[("k", ValueType::Str), ("w", ValueType::Str)]),
        ])
        .unwrap(),
    );
    let mut d = Dataset::new(cat);
    for i in 0..rows_r {
        // ~200-char distinct text: profiling it dominates the pair cost.
        let long: String =
            (0..20).map(|j| format!("token{:03}x{:02}", (i * 7 + j) % 997, j)).collect();
        d.insert(0, vec![format!("key{i}").into(), long.into()]).unwrap();
    }
    for i in 0..rows_s {
        d.insert(
            1,
            vec![format!("key{}", i % rows_r).into(), format!("w{:07}", i * 31 % 9_999_991).into()],
        )
        .unwrap();
    }
    let rules = dcer_mrl::parse_rules(
        d.catalog(),
        "match sim: R(t), S(s), t.k = s.k, sim(t.x, s.w) -> dummy(t.k, s.k)",
    )
    .unwrap();
    let mut reg = MlRegistry::new();
    reg.register("sim", Arc::new(NgramCosineClassifier::new(0.8)));
    reg.register("dummy", Arc::new(EqualTextClassifier));
    (d, rules, reg)
}

fn config(batch_size: usize) -> ChaseConfig {
    ChaseConfig { batch_size, ..Default::default() }
}

fn main() {
    let quick = std::env::var_os("CHASE_BATCH_QUICK").is_some();
    let (rows_r, rows_s) = if quick { (100, 5_000) } else { (400, 100_000) };
    let samples = if quick { 5 } else { 10 };
    let mut c = Criterion::default().sample_size(samples);

    let (d, rules, reg) = workload(rows_r, rows_s);

    // Sanity before measuring: every width computes the same closure and
    // the same oracle counters (the equivalence suites pin this harder).
    let mut want = run_match(&d, &rules, &reg, &config(1)).unwrap();
    for batch in [64, 1024] {
        let mut got = run_match(&d, &rules, &reg, &config(batch)).unwrap();
        assert_eq!(got.matches.clusters(), want.matches.clusters(), "batch {batch}: clusters");
        assert_eq!(got.stats, want.stats, "batch {batch}: stats");
    }
    let ml_calls = want.stats.ml_calls;
    assert!(ml_calls as usize >= rows_s, "workload must be classifier-bound");

    for (name, batch) in [("width1", 1), ("batch64", 64), ("batch1024", 1024)] {
        let cfg = config(batch);
        c.bench_function(format!("ngram/{name}").as_str(), |b| {
            b.iter(|| black_box(run_match(&d, &rules, &reg, &cfg).unwrap().stats.ml_calls))
        });
    }

    c.report();
    write_report(&c, rows_r, rows_s, ml_calls, quick);
}

/// Record the acceptance number: `batch_speedup` = width1 / batch1024.
fn write_report(c: &Criterion, rows_r: usize, rows_s: usize, ml_calls: u64, quick: bool) {
    use serde_json::{Map, Value};

    let mean = |id: &str| {
        c.results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
            .unwrap_or_else(|| panic!("missing bench result {id}"))
    };

    let width1 = mean("ngram/width1");
    let batch64 = mean("ngram/batch64");
    let batch1024 = mean("ngram/batch1024");
    let mut root = Map::new();
    root.insert("bench", Value::from("chase_batch"));
    root.insert("rows_r", Value::from(rows_r));
    root.insert("rows_s", Value::from(rows_s));
    root.insert("ml_calls", Value::from(ml_calls));
    root.insert("quick", Value::from(quick));
    root.insert("width1_ns", Value::from(width1));
    root.insert("batch64_ns", Value::from(batch64));
    root.insert("batch1024_ns", Value::from(batch1024));
    root.insert("batch64_speedup", Value::from(width1 / batch64));
    root.insert("batch_speedup", Value::from(width1 / batch1024));

    let path = if quick {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        std::fs::create_dir_all(dir).expect("create results dir");
        format!("{dir}/BENCH_chase_batch_quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chase_batch.json").to_string()
    };
    let body = serde_json::to_string_pretty(&Value::Object(root)).expect("render json");
    std::fs::write(&path, body + "\n").expect("write chase_batch report");
    eprintln!("wrote {path}");
}
