//! Chaos matrix: DMatch under deterministic fault injection must always
//! recover to the fault-free transitive closure (DESIGN.md §11).
//!
//! The tentpole cell sweep: on a seeded 5-worker corpus, crash worker `w`
//! at superstep `k` for *every* `(w, k)` and compare the recovered closure
//! against the fault-free run. Satellite cells cover the other fault
//! kinds (drop, delay, duplicate, stall) and seeded random plans; the
//! threaded executor is spot-checked on a subset (the full matrix runs on
//! the deterministic simulated executor).

use dcer::prelude::*;
use dcer_ml::EqualTextClassifier;
use dcer_relation::{RelationSchema, ValueType};
use std::sync::Arc;

const WORKERS: usize = 5;

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

/// Deep + collective rules over two links that HyPart hashes to different
/// shards: `md` matches P tuples sharing `k`, and `val`/`use` those sharing
/// `x` through a validated ML prediction. `deep` matches the Q partners of
/// matched P tuples, and `coll` the P tuples whose Q partners share `y`. A
/// P pair linked only through a k-match on one shard and an x-match on
/// another closes on no shard before superstep 1, so `deep` fires there:
/// faults at superstep 0 and at superstep 1 both threaten real cross-worker
/// state.
fn session() -> DcerSession {
    let mut reg = MlRegistry::new();
    reg.register("m", Arc::new(EqualTextClassifier));
    DcerSession::from_source(
        catalog(),
        "match md: P(t), P(s), t.k = s.k -> t.id = s.id;
         match val: P(t), P(s), t.x = s.x -> m(t.k, s.k);
         match use: P(t), P(s), t.x = s.x, m(t.k, s.k) -> t.id = s.id;
         match deep: P(t), P(s), Q(a), Q(b), t.id = s.id, t.fk = a.fk, s.fk = b.fk -> a.id = b.id;
         match coll: P(t), P(s), Q(a), Q(b), t.fk = a.fk, s.fk = b.fk, a.y = b.y -> t.id = s.id",
        reg,
    )
    .unwrap()
}

/// `n` P tuples with 10 `k` and 8 `x` values and a foreign key of their
/// own; the first `n / 2` have a Q partner, with 10 `y` values.
fn dataset(n: usize) -> Dataset {
    let mut d = Dataset::new(catalog());
    for i in 0..n {
        d.insert(
            0,
            vec![
                format!("k{}", i % 10).into(),
                format!("x{}", i % 8).into(),
                format!("f{i}").into(),
            ],
        )
        .unwrap();
    }
    for i in 0..n / 2 {
        d.insert(1, vec![format!("f{i}").into(), format!("y{}", i % 10).into()]).unwrap();
    }
    d
}

struct Fixture {
    session: DcerSession,
    data: Dataset,
    expected: Vec<Vec<Tid>>,
    supersteps: u64,
}

fn fixture() -> Fixture {
    let session = session();
    let data = dataset(40);
    let mut baseline = session.run_parallel(&data, &DmatchConfig::new(WORKERS)).unwrap();
    let expected = baseline.outcome.matches.clusters();
    assert!(!expected.is_empty(), "fixture must produce matches");
    let supersteps = baseline.bsp.supersteps as u64;
    assert!(supersteps >= 3, "fixture must send at superstep 1, got {supersteps}");
    Fixture { session, data, expected, supersteps }
}

fn check(fx: &Fixture, plan: FaultPlan, threaded: bool) -> DmatchReport {
    let mut cfg = DmatchConfig::new(WORKERS).with_faults(FaultConfig::with_plan(plan.clone()));
    if threaded {
        cfg = cfg.threaded();
    }
    let mut report = fx.session.run_parallel(&fx.data, &cfg).unwrap();
    assert_eq!(
        report.outcome.matches.clusters(),
        fx.expected,
        "plan `{plan}` (threaded={threaded}) diverged from the fault-free closure"
    );
    report
}

/// The tentpole matrix: every (worker, superstep) crash cell converges to
/// the fault-free closure on the simulated executor.
#[test]
fn every_crash_cell_recovers_to_the_fault_free_closure() {
    let fx = fixture();
    for w in 0..WORKERS {
        for k in 0..fx.supersteps {
            let report = check(&fx, FaultPlan::crash(w, k), false);
            assert_eq!(report.bsp.recovery.crashes, 1, "crash {w}@{k}");
            assert_eq!(report.bsp.recovery.recoveries, 1, "crash {w}@{k}");
            assert_eq!(report.fault_reruns, 0, "crash {w}@{k} must recover in place");
        }
    }
}

/// Threaded spot checks of the crash matrix (the full sweep runs
/// simulated; recovery bookkeeping is shared, scheduling is not).
#[test]
fn threaded_crash_cells_recover_too() {
    let fx = fixture();
    for (w, k) in [(0, 0), (2, 1), (4, 1), (1, fx.supersteps - 1)] {
        let report = check(&fx, FaultPlan::crash(w, k), true);
        assert_eq!(report.bsp.recovery.crashes, 1, "crash {w}@{k}");
        assert_eq!(report.bsp.recovery.recoveries, 1, "crash {w}@{k}");
    }
}

/// Drop, delay, duplicate and stall cells — every edge-fault kind and
/// both stall regimes (slowdown vs crash-equivalent timeout).
#[test]
fn edge_and_stall_cells_converge() {
    let fx = fixture();
    let plans = [
        "drop 0->1@0",
        "drop 3->2@1",
        "delay 1->4@0+2",
        "delay 2->0@1+1",
        "dup 4->0@0",
        "dup 1->2@1",
        "stall 2@1=10",
        "stall 4@0=200",
    ];
    for src in plans {
        let plan = FaultPlan::parse(src).unwrap();
        for threaded in [false, true] {
            let rec = check(&fx, plan.clone(), threaded).bsp.recovery;
            // The plan's own fault must fire: an edge the fault-free run
            // sends nothing on at that superstep would test nothing.
            let fired = match src.split(' ').next().unwrap() {
                "drop" => rec.dropped_batches,
                "delay" => rec.delayed_batches,
                "dup" => rec.duplicated_batches,
                _ => rec.stalls,
            };
            assert!(fired >= 1, "plan `{src}` (threaded={threaded}) injected no fault: {rec:?}");
        }
    }
}

/// Compound plans: a crash plus live edge faults in the same run. The
/// last plan holds every fault kind at once.
#[test]
fn compound_plans_converge() {
    let fx = fixture();
    let plans = [
        "crash 0@0; drop 1->0@1",
        "crash 2@1; delay 0->2@1+2; dup 3->1@0",
        "crash 1@0; crash 3@1",
        "stall 0@1=200; dup 2->4@0",
        "crash 2@1; drop 0->1@1; delay 1->3@1+2; dup 0->2@1; stall 3@1=80",
    ];
    for src in plans {
        let plan = FaultPlan::parse(src).unwrap();
        let report = check(&fx, plan, false);
        assert!(report.bsp.recovery.recoveries >= 1, "plan `{src}` must recover");
    }
}

/// Seeded random plans from `FaultPlan::random`: the seeded chaos matrix,
/// run on the fixture rather than on a generated TPCH instance.
#[test]
fn seeded_random_plans_converge() {
    let fx = fixture();
    for seed in 0..10 {
        let plan = FaultPlan::random(seed, WORKERS, fx.supersteps, 2);
        check(&fx, plan, false);
    }
}
