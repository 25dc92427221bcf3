//! Valuation-enumeration benchmark: the engine's one enumerator
//! (dictionary-encoded probes, static join order, reusable scratch, run at
//! the default window width `ChaseConfig::default().batch_size`) on the
//! join shapes that dominate the chase: string-keyed equi-join, three-atom
//! chain join, seeded delta re-joins (`IncDeduce`), a constant-filtered
//! join, and a similarity join (`sim_join`: plate-like strings compared by
//! a Levenshtein classifier inside `model` blocks, as TFACC's `r_vehicle`).
//!
//! The headline numbers are the absolute `compiled_ns` per shape at 100k
//! rows per relation (`sim_join`: 20k plates in blocks of 500). The
//! original greedy enumerator runs beside it as a floor check (`speedup` =
//! greedy / compiled, guarded in CI), not as a performance result.
//! `sim_join` instead records how many pairs reach the classifier with the
//! signature probe (`candidates`) and without it (`candidates_unsigned`,
//! counted once, not timed); their ratio is a deterministic count, guarded
//! in CI. After measuring, results are written to
//! `BENCH_chase_eval.json` at the workspace root (or, with
//! `CHASE_EVAL_QUICK` set, a reduced run to
//! `results/BENCH_chase_eval_quick.json` for the CI smoke job).

use criterion::{black_box, Criterion};
use dcer_chase::{
    enumerate_valuations_greedy, enumerate_with_program, ChaseConfig, CompiledRule, EvalScratch,
    MlSigTable, RecPred, RuleProgram, ValuationSink,
};
use dcer_ml::{LevenshteinClassifier, MlModel};
use dcer_mrl::TupleVar;
use dcer_relation::{Catalog, Dataset, IndexSet, RelationSchema, Tuple, ValueType};
use std::sync::Arc;

/// Counting sink: no storage, so the measurement is the enumerator itself.
struct CountOnly(u64);

impl ValuationSink for CountOnly {
    fn prune_rec(&mut self, _p: &RecPred, _l: &Tuple, _r: &Tuple) -> bool {
        false
    }
    fn visit(&mut self, rows: &[u32]) {
        self.0 += rows.len() as u64;
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
    fn prune_rec(&mut self, _p: &RecPred, l: &Tuple, r: &Tuple) -> bool {
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

/// `rows` tuples per relation; every key appears twice in R and twice in S,
/// so the equi-join output is linear in `rows` (each R row meets 2 S rows).
/// R.v marks ~1% of rows "hot" for the constant-filter shape.
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

    let mut expected = Vec::new();
    for (name, pi) in [("equi_join", 0), ("chain_join", 1), ("const_filter", 2)] {
        let plan = &w.plans[pi];
        let program = &programs[pi];
        let mut sink = CountOnly(0);
        let n =
            enumerate_with_program(program, plan, d, &indexes, &[], &mut scratch, &mut sink, width);
        let mut gsink = CountOnly(0);
        let g = enumerate_valuations_greedy(plan, d, &mut indexes, &[], &mut gsink);
        assert_eq!(n, g, "{name}: enumerators disagree");
        expected.push(n);

        c.bench_function(format!("{name}/compiled").as_str(), |b| {
            b.iter(|| {
                let mut sink = CountOnly(0);
                black_box(enumerate_with_program(
                    program,
                    plan,
                    d,
                    &indexes,
                    &[],
                    &mut scratch,
                    &mut sink,
                    width,
                ))
            })
        });
        c.bench_function(format!("{name}/greedy").as_str(), |b| {
            b.iter(|| {
                let mut sink = CountOnly(0);
                black_box(enumerate_valuations_greedy(plan, d, &mut indexes, &[], &mut sink))
            })
        });
    }

    // Seeded delta-join (`IncDeduce` shape): re-evaluate the equi-join rule
    // for a block of seed rows, as update-driven re-joins do.
    let seed_count = (rows / 100).max(1) as u32;
    let plan = &w.plans[0];
    let program = &programs[0];
    c.bench_function("seeded_delta/compiled", |b| {
        b.iter(|| {
            let mut sink = CountOnly(0);
            for row in 0..seed_count {
                black_box(enumerate_with_program(
                    program,
                    plan,
                    d,
                    &indexes,
                    &[(TupleVar(0), row)],
                    &mut scratch,
                    &mut sink,
                    width,
                ));
            }
            sink.0
        })
    });
    c.bench_function("seeded_delta/greedy", |b| {
        b.iter(|| {
            let mut sink = CountOnly(0);
            for row in 0..seed_count {
                black_box(enumerate_valuations_greedy(
                    plan,
                    d,
                    &mut indexes,
                    &[(TupleVar(0), row)],
                    &mut sink,
                ));
            }
            sink.0
        })
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
    let sim = SimJoin {
        rows: plate_rows,
        block,
        valuations: signed_visits,
        candidates: signed_cands,
        candidates_unsigned: unsigned_cands,
    };

    c.report();
    write_report(&c, rows, width, seed_count, &expected, &sim, quick);
}

/// The `sim_join` shape's counts.
struct SimJoin {
    rows: usize,
    block: usize,
    valuations: u64,
    candidates: u64,
    candidates_unsigned: u64,
}

/// Record the absolute `<shape>.compiled_ns` first, then the greedy floor
/// check (`<shape>.speedup` = greedy / compiled).
fn write_report(
    c: &Criterion,
    rows: usize,
    width: usize,
    seeds: u32,
    valuations: &[u64],
    sim: &SimJoin,
    quick: bool,
) {
    use serde_json::{Map, Value};

    let mean = |id: &str| {
        c.results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.mean_ns)
            .unwrap_or_else(|| panic!("missing bench result {id}"))
    };

    let mut root = Map::new();
    root.insert("bench", Value::from("chase_eval"));
    root.insert("rows_per_relation", Value::from(rows));
    root.insert("batch_size", Value::from(width));
    root.insert("quick", Value::from(quick));
    for (i, shape) in ["equi_join", "chain_join", "const_filter"].iter().enumerate() {
        let compiled = mean(&format!("{shape}/compiled"));
        let greedy = mean(&format!("{shape}/greedy"));
        let mut m = Map::new();
        m.insert("compiled_ns", Value::from(compiled));
        m.insert("greedy_ns", Value::from(greedy));
        m.insert("speedup", Value::from(greedy / compiled));
        m.insert("valuations", Value::from(valuations[i]));
        root.insert(shape.to_string(), Value::Object(m));
    }
    let compiled = mean("seeded_delta/compiled");
    let greedy = mean("seeded_delta/greedy");
    let mut m = Map::new();
    m.insert("compiled_ns", Value::from(compiled));
    m.insert("greedy_ns", Value::from(greedy));
    m.insert("speedup", Value::from(greedy / compiled));
    m.insert("seeds", Value::from(seeds as i64));
    root.insert("seeded_delta", Value::Object(m));
    let mut m = Map::new();
    m.insert("compiled_ns", Value::from(mean("sim_join/compiled")));
    m.insert("rows", Value::from(sim.rows));
    m.insert("block", Value::from(sim.block));
    m.insert("valuations", Value::from(sim.valuations));
    m.insert("candidates", Value::from(sim.candidates));
    m.insert("candidates_unsigned", Value::from(sim.candidates_unsigned));
    m.insert(
        "candidate_ratio",
        Value::from(sim.candidates_unsigned as f64 / sim.candidates as f64),
    );
    root.insert("sim_join", Value::Object(m));

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
