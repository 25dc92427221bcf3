//! Incremental-maintenance benchmark: a resident [`dcer_chase::ChaseEngine`]
//! absorbing CDC batches via `apply_update` versus re-running the pipeline
//! from scratch after every update.
//!
//! The workload is a key-blocked ML matching rule (`t.k = s.k` plus an
//! n-gram cosine classifier on a long description attribute) over `rows`
//! tuples, churned at ~1% per update with balanced insert/delete batches.
//! Deletions land on tuples that support match facts, so every batch takes
//! the expensive path: DRed cascade, survivor-state rebuild, full rederive.
//! The incremental win the bench pins is therefore not "skip the join" but
//! the resident state the paper's Section V-A remark motivates: the ML
//! oracle's memo (keyed on stable tuple ids) survives across updates, so
//! only delta pairs pay real classifier calls, while a from-scratch run
//! repays the classifier for every blocked pair and rebuilds the engine.
//!
//! Before timing anything the bench pins equivalence: after a few churn
//! batches the resident engine's closure must equal a from-scratch run over
//! the same final dataset. Results go to `BENCH_chase_incremental.json` at
//! the workspace root (or, with `CHASE_INCREMENTAL_QUICK` set, a reduced
//! run to `results/BENCH_chase_incremental_quick.json` for the CI
//! `incremental-smoke` job, which floors `incremental_speedup` at 5x).

use criterion::{black_box, Criterion};
use dcer_chase::{ChaseEngine, UpdateDelta};
use dcer_core::DcerSession;
use dcer_ml::{MlRegistry, NgramCosineClassifier};
use dcer_relation::{Catalog, Dataset, RelationSchema, Tid, Tuple, UpdateBatch, ValueType};
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Live tuples per key block, kept stable under churn.
const BLOCK: usize = 8;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![RelationSchema::of(
            "R",
            &[("k", ValueType::Str), ("x", ValueType::Str)],
        )])
        .unwrap(),
    )
}

/// Row `i`'s attributes: a key blocking it with ~`BLOCK` peers, and a long
/// description unique to the row (the trailing serial) but n-gram-similar
/// within the block (the shared base text), so same-key pairs clear the 0.5
/// cosine threshold and every pair is a distinct classifier input.
fn row(i: usize, keys: usize) -> (String, String) {
    let k = format!("k{}", i % keys);
    let x = format!(
        "asset record group {g} high-density storage rack assembly with extended \
         service coverage tier {t} facility block {b} serial {i}",
        g = i % keys,
        t = i % 5,
        b = i % 23,
    );
    (k, x)
}

/// Deterministic balanced churn: every batch deletes the `half` oldest live
/// tuples and inserts `half` fresh rows into the same key space, keeping
/// `|D|` and the per-block sizes stable across arbitrarily many batches.
struct Churn {
    master: Dataset,
    live: VecDeque<Tid>,
    next: usize,
    keys: usize,
    half: usize,
}

impl Churn {
    fn new(rows: usize, churn: usize) -> Churn {
        let keys = (rows / BLOCK).max(1);
        let mut master = Dataset::new(catalog());
        let mut live = VecDeque::with_capacity(rows);
        for i in 0..rows {
            let (k, x) = row(i, keys);
            live.push_back(master.insert(0, vec![k.into(), x.into()]).unwrap());
        }
        Churn { master, live, next: rows, keys, half: (churn / 2).max(1) }
    }

    /// Apply one churn batch to the master and the resident engine.
    fn step(&mut self, engine: &mut ChaseEngine) -> UpdateDelta {
        let mut batch = UpdateBatch::new();
        for _ in 0..self.half {
            batch.delete(self.live.pop_front().expect("live tuples remain"));
        }
        for _ in 0..self.half {
            let (k, x) = row(self.next, self.keys);
            self.next += 1;
            batch.insert(0, vec![k.into(), x.into()]);
        }
        let report = self.master.apply_update(&batch).expect("churn batch applies");
        let inserts: Vec<Tuple> = report
            .inserted
            .iter()
            .map(|&tid| self.master.tuple(tid).expect("just inserted").clone())
            .collect();
        self.live.extend(report.inserted.iter().copied());
        engine.apply_update(inserts, &report.deleted)
    }
}

fn main() {
    let quick = std::env::var_os("CHASE_INCREMENTAL_QUICK").is_some();
    let rows = if quick { 2_000 } else { 8_000 };
    let samples = if quick { 5 } else { 10 };
    let churn = (rows / 100).max(2); // ~1% of |D| per update, half each way

    let rules = dcer_mrl::parse_rules(
        &catalog(),
        "match sim: R(t), R(s), t.k = s.k, m(t.x, s.x) -> t.id = s.id",
    )
    .unwrap();
    let mut registry = MlRegistry::new();
    registry.register("m", Arc::new(NgramCosineClassifier::new(0.5)));
    let session = DcerSession::new(catalog(), rules, registry);

    let mut stream = Churn::new(rows, churn);
    let mut engine = session.incremental_engine(&stream.master).expect("build resident engine");
    engine.update_fixpoint();

    // Equivalence pin before timing: after churn batches (which exercise
    // cascade + rederive + seeded joins), the resident closure must equal a
    // from-scratch run over the same final dataset.
    for _ in 0..2 {
        stream.step(&mut engine);
    }
    let mut resident = engine.state_mut().clone();
    let mut oracle = session.run_sequential(&stream.master);
    assert_eq!(
        resident.matches.clusters(),
        oracle.matches.clusters(),
        "resident engine diverged from the from-scratch closure"
    );
    assert_eq!(
        resident.validated.iter().copied().collect::<BTreeSet<_>>(),
        oracle.validated.iter().copied().collect::<BTreeSet<_>>(),
        "resident validated facts diverged"
    );

    let mut c = Criterion::default().sample_size(samples);

    // The cost of refusing incrementality: one full pipeline run (engine
    // build + every blocked pair through the classifier) per update.
    let snapshot = stream.master.clone();
    c.bench_function("update/scratch_rerun", |b| {
        b.iter(|| black_box(session.run_sequential(&snapshot)))
    });

    // The resident path: each iteration is one genuine 1%-churn batch
    // (deletes cascade, the rederive replays joins against the warm memo,
    // only delta pairs pay real classifier calls).
    let cell = RefCell::new((stream, engine));
    c.bench_function("update/incremental", |b| {
        b.iter(|| {
            let (stream, engine) = &mut *cell.borrow_mut();
            black_box(stream.step(engine))
        })
    });
    c.report();

    write_report(&c, rows, churn, quick);
}

fn write_report(c: &Criterion, rows: usize, churn: usize, quick: bool) {
    use serde_json::{Map, Value};

    let mean = |id: &str| {
        c.results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
            .unwrap_or_else(|| panic!("missing bench result {id}"))
    };
    let scratch = mean("update/scratch_rerun");
    let incremental = mean("update/incremental");

    let mut root = Map::new();
    root.insert("bench", Value::from("chase_incremental"));
    root.insert("rows", Value::from(rows));
    root.insert("block_size", Value::from(BLOCK));
    root.insert("churn_per_update", Value::from(churn));
    root.insert("quick", Value::from(quick));
    root.insert("scratch_ns", Value::from(scratch));
    root.insert("incremental_ns", Value::from(incremental));
    root.insert("incremental_speedup", Value::from(scratch / incremental));

    let path = if quick {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        std::fs::create_dir_all(dir).expect("create results dir");
        format!("{dir}/BENCH_chase_incremental_quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chase_incremental.json").to_string()
    };
    let body = serde_json::to_string_pretty(&Value::Object(root)).expect("render json");
    std::fs::write(&path, body + "\n").expect("write chase_incremental report");
    eprintln!("wrote {path}");
}
