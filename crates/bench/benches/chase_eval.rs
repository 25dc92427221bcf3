//! Chase-layer benchmark: the engine's one valuation enumerator
//! (dictionary-encoded probes, static join order, reusable scratch, run at
//! the default window width `ChaseConfig::default().batch_size`) on the
//! join shapes that dominate the chase — string-keyed equi-join, three-atom
//! chain join, seeded delta re-joins (`IncDeduce`), a constant-filtered
//! join, and a similarity join (`sim_join`: plate-like strings compared by
//! a Levenshtein classifier inside `model` blocks, as TFACC's `r_vehicle`)
//! — and the full sequential `Match` over columnar predicate windows
//! (`ml_window`).
//!
//! The headline numbers are the absolute `compiled_ns` per shape at 100k
//! rows per relation (`sim_join`: 20k plates in blocks of 500). Before
//! anything is timed, each shape's valuation count is asserted against the
//! generator's closed form. `sim_join` also records how many pairs reach
//! the classifier with the signature probe (`candidates`) and without it
//! (`candidates_unsigned`, counted once, not timed); their ratio is a
//! deterministic count, guarded in CI.
//!
//! `ml_window` is an equi-join `R(t), S(s), t.k = s.k` guarded by an n-gram
//! cosine predicate `sim(t.x, s.w)`: every R key meets a window of S rows,
//! so each window shares one long, expensive-to-profile left text across
//! hundreds of pairs. The batch kernel profiles each distinct text once per
//! window, where width 1 rebuilds both profiles for every pair. Each
//! measured iteration runs `run_match` from scratch (fresh engine, fresh
//! memo: a warm memo would absorb the classifier work) at widths 1, 64 and
//! 1024; `batch_speedup` = width 1 / width 1024 (floor 2x, guarded in CI).
//!
//! After measuring, results are written to `BENCH_chase_eval.json` at the
//! workspace root (or, with `CHASE_EVAL_QUICK` set, a reduced run to
//! `results/BENCH_chase_eval_quick.json` for the CI smoke job).

use criterion::{black_box, Criterion};
use dcer_chase::{
    enumerate_with_program, run_match, ChaseConfig, CompiledRule, EvalScratch, MlSigTable,
    RuleProgram, ValuationSink,
};
use dcer_ml::{
    EqualTextClassifier, LevenshteinClassifier, MlModel, MlRegistry, NgramCosineClassifier,
};
use dcer_mrl::{RuleSet, TupleVar};
use dcer_relation::{Catalog, Dataset, IndexSet, RelationSchema, Tuple, ValueType};
use serde_json::{Map, Value};
use std::sync::Arc;

/// Counting sink: no storage, so the measurement is the enumerator itself.
struct CountOnly(u64);

impl ValuationSink for CountOnly {
    fn prune_rec(&mut self, _p: usize, _l: &Tuple, _r: &Tuple) -> bool {
        false
    }
    fn visit(&mut self, _rows: &[u32]) {
        self.0 += 1;
    }
}

/// Similarity-join sink: every pair the step's ML check sees is scored by
/// the classifier (the candidate count), and the ones it rejects prune.
struct PlateSink {
    model: LevenshteinClassifier,
    candidates: u64,
    visited: u64,
}

impl ValuationSink for PlateSink {
    fn prune_rec(&mut self, _p: usize, l: &Tuple, r: &Tuple) -> bool {
        self.candidates += 1;
        !self.model.predict(&l.values[1..], &r.values[1..])
    }
    fn visit(&mut self, _rows: &[u32]) {
        self.visited += 1;
    }
}

struct Workload {
    dataset: Dataset,
    plans: Vec<CompiledRule>,
}

/// `rows` plates `AB12 CDE`-shaped (random letters, two digits) in
/// `model` blocks of `block`; every tenth plate is a one-typo copy of the
/// one before it, so the join has matches. Returns the `sim_join` plan
/// without and with its certified key scheme bound.
fn plate_workload(rows: usize, block: usize) -> (Dataset, CompiledRule, CompiledRule) {
    let cat = Arc::new(
        Catalog::from_schemas(vec![RelationSchema::of(
            "V",
            &[("model", ValueType::Str), ("plate", ValueType::Str)],
        )])
        .unwrap(),
    );
    let mut dataset = Dataset::new(cat);
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut draw = |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    let mut last = String::new();
    for i in 0..rows {
        let plate = if i % 10 == 9 {
            let mut chars: Vec<char> = last.chars().collect();
            chars[draw(8) as usize] = 'x';
            chars.into_iter().collect()
        } else {
            let mut p = String::new();
            for pos in 0..8 {
                p.push(match pos {
                    2 | 3 => (b'0' + draw(10) as u8) as char,
                    4 => ' ',
                    _ => (b'A' + draw(26) as u8) as char,
                });
            }
            p
        };
        dataset
            .insert(0, vec![format!("model{}", i / block).into(), plate.clone().into()])
            .unwrap();
        last = plate;
    }
    let rules = dcer_mrl::parse_rules(
        dataset.catalog(),
        "match sim_join: V(t), V(s), t.model = s.model, plate_sim(t.plate, s.plate) -> t.id = s.id",
    )
    .unwrap();
    let sigs = MlSigTable::build(&rules);
    let plain = CompiledRule::compile(&rules, &sigs, 0);
    let mut signed = plain.clone();
    signed.bind_signatures(&sigs, &[LevenshteinClassifier::new(0.7).signatures()]);
    (dataset, plain, signed)
}

/// `rows` (even) tuples per relation; every key appears twice in R and
/// twice in S, so each R row meets 2 S rows: the equi-join has `2 * rows`
/// valuations and the chain join `4 * rows` (8 per key). R.v marks every
/// hundredth row "hot", so the constant-filtered join has
/// `2 * ceil(rows / 100)`.
fn workload(rows: usize) -> Workload {
    let cat = Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of("R", &[("k", ValueType::Str), ("v", ValueType::Str)]),
            RelationSchema::of("S", &[("k", ValueType::Str), ("w", ValueType::Str)]),
        ])
        .unwrap(),
    );
    let mut dataset = Dataset::new(cat);
    let keys = rows / 2;
    for i in 0..rows {
        let v = if i % 100 == 0 { "hot".to_string() } else { format!("v{}", i % 37) };
        dataset.insert(0, vec![format!("key{}", i % keys).into(), v.into()]).unwrap();
        dataset.insert(1, vec![format!("key{}", i % keys).into(), format!("w{i}").into()]).unwrap();
    }
    let rules = dcer_mrl::parse_rules(
        dataset.catalog(),
        r#"match equi: R(t), S(s), t.k = s.k -> dummy(t.k, s.k);
           match chain: R(t), S(s), R(u), t.k = s.k, s.k = u.k -> t.id = u.id;
           match constf: R(t), S(s), t.k = s.k, t.v = "hot" -> dummy(t.k, s.k)"#,
    )
    .unwrap();
    let sigs = MlSigTable::build(&rules);
    Workload { dataset, plans: CompiledRule::compile_all(&rules, &sigs) }
}

fn main() {
    let quick = std::env::var_os("CHASE_EVAL_QUICK").is_some();
    let rows = if quick { 5_000 } else { 100_000 };
    let samples = if quick { 10 } else { 20 };
    let mut c = Criterion::default().sample_size(samples);

    let w = workload(rows);
    let d = &w.dataset;
    let width = ChaseConfig::default().batch_size;

    // Pre-build indexes and programs outside the measured loops: program
    // compilation happens once per rule per index generation in the engine.
    let mut indexes = IndexSet::new();
    let programs: Vec<RuleProgram> =
        w.plans.iter().map(|p| RuleProgram::compile(p, d, &mut indexes)).collect();
    let mut scratch = EvalScratch::new();

    // Closed-form valuation counts (see `workload`), asserted before
    // anything is timed.
    assert_eq!(rows % 2, 0, "every key must appear twice per relation");
    let seed_count = (rows / 100).max(1) as u32;
    let shapes = [
        ("equi_join", 0, 2 * rows),
        ("chain_join", 1, 4 * rows),
        ("const_filter", 2, 2 * rows.div_ceil(100)),
    ];
    let mut enumerate = |pi: usize, seeds: &[(TupleVar, u32)]| {
        let mut sink = CountOnly(0);
        enumerate_with_program(
            &programs[pi],
            &w.plans[pi],
            d,
            &indexes,
            seeds,
            &mut scratch,
            &mut sink,
            width,
        );
        sink.0
    };
    for (name, pi, want) in shapes {
        assert_eq!(enumerate(pi, &[]), want as u64, "{name}: valuation count");
    }
    let seeded_valuations = seeded_delta(&mut enumerate, seed_count);
    assert_eq!(seeded_valuations, 2 * seed_count as u64, "seeded_delta: valuation count");

    for (name, pi, _) in shapes {
        c.bench_function(format!("{name}/compiled").as_str(), |b| b.iter(|| enumerate(pi, &[])));
    }
    c.bench_function("seeded_delta/compiled", |b| {
        b.iter(|| seeded_delta(&mut enumerate, seed_count))
    });

    // Similarity join: the signed program's timed run, and one counted
    // run of each program for the candidate counts.
    let (plate_rows, block) = if quick { (4_000, 200) } else { (20_000, 500) };
    let (pd, plain, signed) = plate_workload(plate_rows, block);
    let mut pidx = IndexSet::new();
    let plain_program = RuleProgram::compile(&plain, &pd, &mut pidx);
    let signed_program = RuleProgram::compile(&signed, &pd, &mut pidx);
    let mut count = |plan: &CompiledRule, program: &RuleProgram| {
        let mut sink =
            PlateSink { model: LevenshteinClassifier::new(0.7), candidates: 0, visited: 0 };
        enumerate_with_program(program, plan, &pd, &pidx, &[], &mut scratch, &mut sink, width);
        (sink.candidates, sink.visited)
    };
    let (unsigned_cands, unsigned_visits) = count(&plain, &plain_program);
    let (signed_cands, signed_visits) = count(&signed, &signed_program);
    assert_eq!(signed_visits, unsigned_visits, "sim_join: signatures changed the valuations");
    assert!(signed_visits > 0, "sim_join: the workload must have matches");
    c.bench_function("sim_join/compiled", |b| {
        b.iter(|| {
            let mut sink =
                PlateSink { model: LevenshteinClassifier::new(0.7), candidates: 0, visited: 0 };
            black_box(enumerate_with_program(
                &signed_program,
                &signed,
                &pd,
                &pidx,
                &[],
                &mut scratch,
                &mut sink,
                width,
            ))
        })
    });
    let (rows_r, rows_s, ml_calls) = ml_window(&mut c, quick);
    c.report();

    // Absolute times first, then each case's counts and ratios.
    let mean = |id: &str| {
        let found = c.results().iter().find(|r| r.id == id);
        found.map(|r| r.mean_ns).unwrap_or_else(|| panic!("missing bench result {id}"))
    };
    let mut root = Map::new();
    root.insert("bench", Value::from("chase_eval"));
    root.insert("rows_per_relation", Value::from(rows));
    root.insert("batch_size", Value::from(width));
    root.insert("quick", Value::from(quick));
    for (name, _, n) in shapes {
        let compiled = mean(&format!("{name}/compiled"));
        root.insert(name, object([("compiled_ns", compiled.into()), ("valuations", n.into())]));
    }
    root.insert(
        "seeded_delta",
        object([
            ("compiled_ns", mean("seeded_delta/compiled").into()),
            ("seeds", (seed_count as u64).into()),
            ("valuations", seeded_valuations.into()),
        ]),
    );
    root.insert(
        "sim_join",
        object([
            ("compiled_ns", mean("sim_join/compiled").into()),
            ("rows", plate_rows.into()),
            ("block", block.into()),
            ("valuations", signed_visits.into()),
            ("candidates", signed_cands.into()),
            ("candidates_unsigned", unsigned_cands.into()),
            ("candidate_ratio", (unsigned_cands as f64 / signed_cands as f64).into()),
        ]),
    );
    let times = ["width1", "batch64", "batch1024"].map(|w| mean(&format!("ml_window/{w}")));
    root.insert(
        "ml_window",
        object([
            ("width1_ns", times[0].into()),
            ("batch64_ns", times[1].into()),
            ("batch1024_ns", times[2].into()),
            ("rows_r", rows_r.into()),
            ("rows_s", rows_s.into()),
            ("ml_calls", ml_calls.into()),
            ("batch64_speedup", (times[0] / times[1]).into()),
            ("batch_speedup", (times[0] / times[2]).into()),
        ]),
    );

    let path = if quick {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        std::fs::create_dir_all(dir).expect("create results dir");
        format!("{dir}/BENCH_chase_eval_quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chase_eval.json").to_string()
    };
    let body = serde_json::to_string_pretty(&Value::Object(root)).expect("render json");
    std::fs::write(&path, body + "\n").expect("write chase_eval report");
    eprintln!("wrote {path}");
}

/// A JSON object with `fields` in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Seeded delta-join (`IncDeduce` shape): re-evaluate the equi-join rule
/// (plan 0) once per seed row `0..seeds`, as update-driven re-joins do.
/// Returns the valuations visited.
fn seeded_delta(enumerate: &mut impl FnMut(usize, &[(TupleVar, u32)]) -> u64, seeds: u32) -> u64 {
    (0..seeds).map(|row| enumerate(0, &[(TupleVar(0), row)])).sum()
}

/// `rows_s` S tuples spread over `rows_r` R keys: each R row's long text
/// meets a window of `rows_s / rows_r` short S texts under the equi-join.
fn window_workload(rows_r: usize, rows_s: usize) -> (Dataset, RuleSet, MlRegistry) {
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

/// Time the full sequential `Match` on the window workload at widths 1, 64
/// and 1024, after checking that every width computes the same closure and
/// the same oracle counters (the equivalence suites pin this harder).
/// Returns the R and S sizes and the classifier calls of one run.
fn ml_window(c: &mut Criterion, quick: bool) -> (usize, usize, u64) {
    let (rows_r, rows_s) = if quick { (100, 5_000) } else { (400, 100_000) };
    let (d, rules, reg) = window_workload(rows_r, rows_s);
    let config = |batch_size| ChaseConfig { batch_size, ..Default::default() };
    let mut want = run_match(&d, &rules, &reg, &config(1)).unwrap();
    for batch in [64, 1024] {
        let mut got = run_match(&d, &rules, &reg, &config(batch)).unwrap();
        assert_eq!(got.matches.clusters(), want.matches.clusters(), "batch {batch}: clusters");
        assert_eq!(got.stats, want.stats, "batch {batch}: stats");
    }
    let ml_calls = want.stats.ml_calls;
    assert!(ml_calls as usize >= rows_s, "workload must be classifier-bound");

    let mut group = c.benchmark_group("ml_window");
    group.sample_size(if quick { 5 } else { 10 });
    for (name, batch) in [("width1", 1), ("batch64", 64), ("batch1024", 1024)] {
        let cfg = config(batch);
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_match(&d, &rules, &reg, &cfg).unwrap().stats.ml_calls))
        });
    }
    (rows_r, rows_s, ml_calls)
}
