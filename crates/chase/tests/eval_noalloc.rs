//! Asserts the enumerator's allocation-free hot path: once a
//! [`RuleProgram`] is compiled and the [`EvalScratch`] warmed, a full
//! `enumerate_with_program` run — index probes, signature probes (probe
//! keys computed on the fly, postings unioned and de-duplicated),
//! candidate windows, equality checks, recursive-predicate checks, visits
//! — performs zero heap allocations, at width 1 and at the default width
//! alike.
//!
//! Lives in its own integration binary so the counting global allocator
//! can't interact with other tests (same harness as
//! `crates/obs/tests/noop_alloc.rs`).

use dcer_chase::{
    enumerate_with_program, CompiledRule, EvalScratch, MlSigTable, RecPred, RuleProgram,
    ValuationSink,
};
use dcer_ml::{LevenshteinClassifier, MlModel};
use dcer_mrl::TupleVar;
use dcer_relation::{Catalog, Dataset, IndexSet, RelationSchema, Tuple, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Counts visits without storing them — the measured window must not be
/// polluted by the sink's own bookkeeping. Prunes nothing, so the
/// recursive-check path runs on every candidate.
struct CountOnly {
    visited: u64,
}

impl ValuationSink for CountOnly {
    fn prune_rec(&mut self, _pred: &RecPred, _l: &Tuple, _r: &Tuple) -> bool {
        false
    }
    fn visit(&mut self, rows: &[u32]) {
        self.visited += rows.len() as u64;
    }
}

/// The rules under test: a constant-filtered chain join (no recursive
/// predicate), an equi-join whose step also checks an ML predicate, and a
/// blocked plate comparison whose ML step probes a signature index.
const RULES: &str = r#"match j: R(t), S(s), R(u), t.k = s.k, s.k = u.k, t.v = "v3" -> t.id = u.id;
    match ml: R(t), S(s), t.k = s.k, m(t.v, s.w) -> dummy(t.k, s.k);
    match sig: V(t), V(s), t.model = s.model, plate_sim(t.plate, s.plate) -> t.id = s.id"#;

/// Rows per `model` block of `V`.
const BLOCK: usize = 100;

fn setup() -> (Dataset, Vec<CompiledRule>) {
    let cat = Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of("R", &[("k", ValueType::Str), ("v", ValueType::Str)]),
            RelationSchema::of("S", &[("k", ValueType::Str), ("w", ValueType::Str)]),
            RelationSchema::of("V", &[("model", ValueType::Str), ("plate", ValueType::Str)]),
        ])
        .unwrap(),
    );
    let mut d = Dataset::new(cat);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut letter = |n: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (b'A' + ((state >> 33) % n) as u8) as char
    };
    for i in 0..600 {
        d.insert(0, vec![format!("key{}", i % 150).into(), format!("v{}", i % 7).into()]).unwrap();
        d.insert(1, vec![format!("key{}", i % 200).into(), format!("w{i}").into()]).unwrap();
        let plate: String = (0..8).map(|p| if p == 4 { ' ' } else { letter(26) }).collect();
        d.insert(2, vec![format!("model{}", i / BLOCK).into(), plate.into()]).unwrap();
    }
    let rules = dcer_mrl::parse_rules(d.catalog(), RULES).unwrap();
    let sigs = MlSigTable::build(&rules);
    let mut plans = CompiledRule::compile_all(&rules, &sigs);
    let plate_sim = LevenshteinClassifier::new(0.7);
    let schemes: Vec<_> = rules
        .model_names()
        .iter()
        .map(|name| if name == "plate_sim" { plate_sim.signatures() } else { None })
        .collect();
    for plan in &mut plans {
        plan.bind_signatures(&sigs, &schemes);
    }
    (d, plans)
}

#[test]
fn warmed_enumeration_does_not_allocate() {
    assert!(!dcer_obs::enabled(), "test requires no recorder installed");
    let (d, plans) = setup();
    assert!(plans[0].rec_preds.is_empty() && !plans[1].rec_preds.is_empty());
    let mut indexes = IndexSet::new();
    let programs: Vec<RuleProgram> =
        plans.iter().map(|p| RuleProgram::compile(p, &d, &mut indexes)).collect();
    assert!(programs[2].steps.iter().all(|s| s.sigs.len() == 1), "both plate steps probe keys");

    for width in [1, 1024] {
        for (plan, program) in plans.iter().zip(&programs) {
            let mut scratch = EvalScratch::new();
            let mut sink = CountOnly { visited: 0 };
            let mut run = |seeds: &[(TupleVar, u32)], sink: &mut CountOnly| {
                enumerate_with_program(
                    program,
                    plan,
                    &d,
                    &indexes,
                    seeds,
                    &mut scratch,
                    sink,
                    width,
                )
            };

            // Warm-up: sizes the scratch buffers, touches every index path.
            let warm = run(&[], &mut sink);
            assert!(
                warm > 0,
                "`{}` must produce valuations for the test to mean anything",
                plan.name
            );

            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let unseeded = run(&[], &mut sink);
            let seeded = run(&[(TupleVar(1), 3)], &mut sink);
            let after = ALLOCATIONS.load(Ordering::Relaxed);

            assert_eq!(unseeded, warm);
            assert!(seeded > 0, "seeded run must also enumerate");
            if plan.name == "sig" {
                // The sink prunes nothing, so every candidate is visited:
                // far fewer than the blocks' all-pairs count means the
                // signature probe, not the `model` edge, fed them.
                assert!(warm < (600 * BLOCK / 10) as u64, "{warm} candidates visited");
            }
            assert!(sink.visited > 0);
            assert_eq!(
                after - before,
                0,
                "warmed enumeration of `{}` at width {width} allocated {} times",
                plan.name,
                after - before
            );
        }
    }
}
