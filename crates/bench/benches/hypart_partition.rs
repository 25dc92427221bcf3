//! HyPart partitioning benchmark: absolute wall time of `partition` on
//! shared [`WorkPool`]s of 1 lane, 2 lanes, the host's `cores` lanes and 8
//! lanes — each pool spawned once and reused across every iteration, as a
//! session would.
//!
//! Before timing, the bench asserts that every lane count produces the
//! identical [`Partition`] (fragments row by row, rule masks, stats). It
//! then reports the medians `par_1t_ns`, `par_2t_ns`, `par_cores_ns` and
//! `par_8t_ns` with the real `cores`, plus `speedup_cores` and
//! `speedup_8t_threaded` (1-lane time over the `cores`- and 8-lane times).
//! The 2-lane pool is timed at any core count, so a run pinned to one core
//! still compares one lane with two. When `cores` is 1, 2 or 8 the
//! `cores`-lane pool is one of the others, so it is not timed twice and
//! `par_cores_ns` repeats that median.
//! Results go to `BENCH_hypart_partition.json` at the workspace root (or,
//! with `HYPART_PARTITION_QUICK` set, a reduced run to
//! `results/BENCH_hypart_partition_quick.json` for the CI smoke job).
//!
//! All variants run **interleaved, round-robin, medians reported** rather
//! than criterion-style back-to-back blocks: the ratios compare runs
//! ~0.5 s apart instead of ~10 s apart, so slow host drift (thermal
//! throttling, shared-tenancy noise — observed at ±40% across minutes on
//! small cloud boxes) cancels out of the speedups instead of masquerading
//! as a code change.

use dcer_hypart::{partition, HyPartConfig, Partition};
use dcer_mrl::{parse_rules, RuleSet};
use dcer_pool::WorkPool;
use dcer_relation::{Catalog, Dataset, RelationSchema, ValueType};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `rows` tuples per relation over a moderately repetitive key space, with
/// one mildly hot key (~3% of A) so the skew-refinement path stays honest
/// without dominating the measurement.
fn workload(rows: usize) -> (Dataset, RuleSet) {
    let cat = Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of("A", &[("k", ValueType::Str), ("v", ValueType::Str)]),
            RelationSchema::of("B", &[("k", ValueType::Str), ("w", ValueType::Str)]),
        ])
        .unwrap(),
    );
    let mut d = Dataset::new(cat);
    let keys = (rows / 8).max(1);
    for i in 0..rows {
        let k = if i % 37 == 0 { "hot".to_string() } else { format!("k{}", i % keys) };
        d.insert(0, vec![k.into(), format!("v{}", i % 211).into()]).unwrap();
        d.insert(1, vec![format!("k{}", i % keys).into(), format!("w{}", i % 97).into()]).unwrap();
    }
    let rules = parse_rules(
        d.catalog(),
        "match md: A(t), A(s), t.k = s.k -> t.id = s.id;
         match coll: A(t), B(u), A(s), B(v), t.k = u.k, s.k = v.k, u.w = v.w -> t.id = s.id",
    )
    .unwrap();
    (d, rules)
}

fn assert_identical(a: &Partition, b: &Partition, lanes: usize) {
    assert_eq!(a.fragments.len(), b.fragments.len());
    for (fa, fb) in a.fragments.iter().zip(&b.fragments) {
        for (ra, rb) in fa.relations().iter().zip(fb.relations()) {
            assert_eq!(ra.tuples(), rb.tuples(), "fragment rows diverged at {lanes} lanes");
        }
    }
    assert_eq!(a.rule_masks, b.rule_masks, "rule masks diverged at {lanes} lanes");
    assert_eq!(a.stats, b.stats, "stats diverged at {lanes} lanes");
}

fn main() {
    let quick = std::env::var_os("HYPART_PARTITION_QUICK").is_some();
    let rows = if quick { 4_000 } else { 25_000 };
    let samples = if quick { 10 } else { 15 };
    let workers = 8;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (d, rules) = workload(rows);
    let mut lane_counts = vec![1, 2, cores, 8];
    lane_counts.sort_unstable();
    lane_counts.dedup();
    let configs: Vec<HyPartConfig> = lane_counts
        .iter()
        .map(|&lanes| {
            let mut cfg = HyPartConfig::new(workers);
            cfg.pool = Some(Arc::new(WorkPool::new(lanes)));
            cfg
        })
        .collect();

    let one_lane = partition(&d, &rules, &configs[0]);
    for (cfg, &lanes) in configs.iter().zip(&lane_counts).skip(1) {
        assert_identical(&partition(&d, &rules, cfg), &one_lane, lanes);
    }

    // Interleaved rounds: every pool runs once per round, so each ratio
    // compares timings taken moments apart (see the header on host drift).
    let mut rounds: Vec<Vec<u64>> = vec![Vec::new(); configs.len()];
    for _ in 0..samples {
        for (cfg, times) in configs.iter().zip(&mut rounds) {
            let t = Instant::now();
            black_box(partition(&d, &rules, cfg));
            times.push(t.elapsed().as_nanos() as u64);
        }
    }
    let medians: Vec<f64> = rounds
        .iter_mut()
        .map(|v| {
            v.sort_unstable();
            let mid = v.len() / 2;
            if v.len() % 2 == 1 {
                v[mid] as f64
            } else {
                (v[mid - 1] + v[mid]) as f64 / 2.0
            }
        })
        .collect();
    let at = |lanes: usize| medians[lane_counts.iter().position(|&l| l == lanes).unwrap()];
    let (par_1t, par_2t, par_cores, par_8t) = (at(1), at(2), at(cores), at(8));
    for (lanes, ns) in lane_counts.iter().zip(&medians) {
        let name = format!("partition/pool_{lanes}");
        eprintln!("bench: {name:<48} {ns:>14.1} ns/iter (median of {samples})");
    }

    use serde_json::{Map, Value};
    let mut root = Map::new();
    root.insert("bench", Value::from("hypart_partition"));
    root.insert("rows_per_relation", Value::from(rows));
    root.insert("workers", Value::from(workers));
    root.insert("quick", Value::from(quick));
    root.insert("cores", Value::from(cores));
    root.insert("par_1t_ns", Value::from(par_1t));
    root.insert("par_2t_ns", Value::from(par_2t));
    root.insert("par_cores_ns", Value::from(par_cores));
    root.insert("par_8t_ns", Value::from(par_8t));
    root.insert("speedup_cores", Value::from(par_1t / par_cores));
    root.insert("speedup_8t_threaded", Value::from(par_1t / par_8t));

    let path = if quick {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        std::fs::create_dir_all(dir).expect("create results dir");
        format!("{dir}/BENCH_hypart_partition_quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hypart_partition.json").to_string()
    };
    let body = serde_json::to_string_pretty(&Value::Object(root)).expect("render json");
    std::fs::write(&path, body + "\n").expect("write hypart_partition report");
    eprintln!("wrote {path}");
}
