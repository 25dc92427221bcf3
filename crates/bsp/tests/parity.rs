//! Cross-executor stats parity: `run_threaded` must account traffic
//! exactly like `run_simulated` for a deterministic workload —
//! `shard_bytes` per destination, `deduped_facts`, and per-step vector
//! shapes included.
//!
//! The workload is a gossip ring: worker `i` starts knowing `{i}` and
//! forwards its full known set to its right neighbor whenever it learns
//! something. Every worker has exactly one upstream sender, so inbox
//! contents — and therefore byte counts and absorbed-duplicate counts —
//! are identical in both execution modes regardless of scheduling.

use dcer_bsp::{run_bsp, BspStats, CostModel, ExecutionMode, Message, Worker, WorkerId};
use std::collections::BTreeSet;
use std::sync::Arc;

#[derive(Clone)]
struct SetMsg(Arc<Vec<u64>>);

impl Message for SetMsg {
    fn size_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<u64>()
    }

    fn unit_count(&self) -> usize {
        self.0.len()
    }
}

struct GossipWorker {
    id: WorkerId,
    n: usize,
    known: BTreeSet<u64>,
    absorbed: u64,
}

impl GossipWorker {
    fn send_right(&self) -> Vec<(WorkerId, SetMsg)> {
        let right = (self.id + 1) % self.n;
        vec![(right, SetMsg(Arc::new(self.known.iter().copied().collect())))]
    }
}

impl Worker for GossipWorker {
    type Msg = SetMsg;

    fn initial(&mut self) -> Vec<(WorkerId, SetMsg)> {
        self.send_right()
    }

    fn superstep(&mut self, inbox: Vec<SetMsg>) -> Vec<(WorkerId, SetMsg)> {
        let mut learned = false;
        for msg in inbox {
            for &v in msg.0.iter() {
                if self.known.insert(v) {
                    learned = true;
                } else {
                    self.absorbed += 1;
                }
            }
        }
        if learned {
            self.send_right()
        } else {
            Vec::new()
        }
    }

    fn absorbed_duplicates(&self) -> u64 {
        self.absorbed
    }

    fn snapshot(&mut self) -> Option<SetMsg> {
        Some(SetMsg(Arc::new(self.known.iter().copied().collect())))
    }

    fn restore(&mut self, checkpoint: Option<&SetMsg>) -> Vec<(WorkerId, SetMsg)> {
        self.known = match checkpoint {
            Some(msg) => msg.0.iter().copied().collect(),
            None => BTreeSet::from([self.id as u64]),
        };
        self.send_right()
    }
}

fn ring(n: usize) -> Vec<GossipWorker> {
    (0..n)
        .map(|id| GossipWorker { id, n, known: BTreeSet::from([id as u64]), absorbed: 0 })
        .collect()
}

fn run(n: usize, mode: ExecutionMode) -> (Vec<GossipWorker>, BspStats) {
    run_bsp(ring(n), mode, &CostModel::default())
}

#[test]
fn executors_agree_on_every_deterministic_stat() {
    for n in [2, 3, 5] {
        let (sim_workers, sim) = run(n, ExecutionMode::Simulated);
        let (thr_workers, thr) = run(n, ExecutionMode::Threaded);

        // Both reach the same fixpoint.
        for w in sim_workers.iter().chain(thr_workers.iter()) {
            assert_eq!(w.known.len(), n, "n={n}: everyone learns everything");
        }

        assert_eq!(sim.supersteps, thr.supersteps, "n={n}: supersteps");
        assert_eq!(sim.batches, thr.batches, "n={n}: batches");
        assert_eq!(sim.messages, thr.messages, "n={n}: messages");
        assert_eq!(sim.bytes, thr.bytes, "n={n}: bytes");
        assert_eq!(sim.shard_bytes, thr.shard_bytes, "n={n}: per-shard receive bytes");
        assert_eq!(sim.deduped_facts, thr.deduped_facts, "n={n}: absorbed duplicates");

        // Per-step vectors line up with the superstep count in both modes
        // (the threaded executor merges per-thread logs by step index).
        for (label, s) in [("sim", &sim), ("thr", &thr)] {
            assert_eq!(s.step_max_secs.len(), s.supersteps, "n={n} {label}");
            assert_eq!(s.step_total_secs.len(), s.supersteps, "n={n} {label}");
            assert_eq!(s.worker_busy_secs.len(), n, "n={n} {label}");
            assert_eq!(s.shard_bytes.len(), n, "n={n} {label}");
            for step in &s.step_max_secs {
                assert!(step.is_finite() && *step >= 0.0, "n={n} {label}");
            }
        }

        // Spot-check against the closed form: in a ring of n, each of the
        // n workers sends at supersteps 0..n-1 a set of min(step+1, n)
        // values, then one final all-known broadcast round quiesces.
        let expected_units: u64 =
            (0..n as u64).map(|s| (s + 1).min(n as u64) * n as u64).sum::<u64>();
        assert_eq!(sim.messages, expected_units, "n={n}: unit count closed form");

        // Third input: threaded lanes as resident tasks on a shared 2-lane
        // pool, so some lanes run on pool workers and the rest overflow.
        let pool = dcer_pool::WorkPool::new(2);
        let none = dcer_bsp::FaultConfig::none();
        let (pool_workers, pooled) = dcer_bsp::run_bsp_on(
            &pool,
            ring(n),
            ExecutionMode::Threaded,
            &CostModel::default(),
            &none,
        )
        .expect("a fault-free run never aborts");
        for w in &pool_workers {
            assert_eq!(w.known.len(), n, "n={n} pool: everyone learns everything");
        }
        assert_eq!(sim.supersteps, pooled.supersteps, "n={n} pool: supersteps");
        assert_eq!(sim.batches, pooled.batches, "n={n} pool: batches");
        assert_eq!(sim.messages, pooled.messages, "n={n} pool: messages");
        assert_eq!(sim.bytes, pooled.bytes, "n={n} pool: bytes");
        assert_eq!(sim.shard_bytes, pooled.shard_bytes, "n={n} pool: per-shard receive bytes");
        assert_eq!(sim.deduped_facts, pooled.deduped_facts, "n={n} pool: absorbed duplicates");
        assert_eq!(pooled.step_max_secs.len(), pooled.supersteps, "n={n} pool");
    }
}

/// Abort parity: when a dropped delivery exhausts its retransmission budget,
/// both executors still finish and account the superstep the run aborts in,
/// so the aborted attempt's stats agree across modes.
#[test]
fn executors_agree_on_abort_stats() {
    use dcer_bsp::{run_bsp_with, FaultConfig, FaultPlan};
    // Backoff for the batch first dropped at step 0 puts its retries at
    // steps 1, 3 and 7; dropping all of them exhausts the budget of 3.
    let plan = FaultPlan::parse("drop 1->0@0; drop 1->0@1; drop 1->0@3; drop 1->0@7").unwrap();
    let cfg = FaultConfig::with_plan(plan);
    let abort = |mode| {
        let Err(abort) = run_bsp_with(ring(2), mode, &CostModel::default(), &cfg) else {
            panic!("{mode:?}: retry budget must exhaust");
        };
        abort.stats
    };
    let (sim, thr) = (abort(ExecutionMode::Simulated), abort(ExecutionMode::Threaded));
    assert_eq!(sim.supersteps, thr.supersteps, "supersteps");
    assert_eq!(sim.batches, thr.batches, "batches");
    assert_eq!(sim.messages, thr.messages, "messages");
    assert_eq!(sim.bytes, thr.bytes, "bytes");
    assert_eq!(sim.shard_bytes, thr.shard_bytes, "per-shard receive bytes");
    assert_eq!(sim.recovery, thr.recovery, "recovery counters");
    assert_eq!(sim.supersteps, 8, "the abort step (7) is accounted");
}

/// Fault-injection parity: under the same (non-aborting) `FaultPlan` —
/// one crash, one crash-equivalent stall, a dropped edge, a delayed edge,
/// a duplicated edge and a sub-timeout stall — both executors must report
/// identical `BspStats` *including every recovery counter*, because all
/// fault decisions are keyed deterministically by `(worker, step)` /
/// `(from, to, step)`, never by scheduling.
#[test]
fn executors_agree_on_recovery_stats_under_the_same_fault_plan() {
    use dcer_bsp::{run_bsp_with, FaultConfig, FaultPlan};
    let n = 5;
    // Every edge fault is placed on a step where the ring actually sends
    // on that edge (worker 0 learns {4} at step 1, so 0->1 carries a batch
    // at step 1 even though its step-0 batch was dropped).
    let plan = FaultPlan::parse(
        "crash 2@1; drop 0->1@0; delay 0->1@1+2; dup 3->4@0; stall 4@2=10; stall 1@3=500",
    )
    .unwrap();
    let cfg = FaultConfig::with_plan(plan);
    let run_ft = |mode| run_bsp_with(ring(n), mode, &CostModel::default(), &cfg).unwrap();
    let (sim_workers, sim) = run_ft(ExecutionMode::Simulated);
    let (thr_workers, thr) = run_ft(ExecutionMode::Threaded);

    // Both still reach the gossip fixpoint despite the faults.
    for w in sim_workers.iter().chain(thr_workers.iter()) {
        assert_eq!(w.known.len(), n, "everyone learns everything despite faults");
    }

    assert_eq!(sim.recovery, thr.recovery, "recovery counters must be mode-independent");
    assert_eq!(sim.recovery.crashes, 1);
    assert_eq!(sim.recovery.stalls, 2, "one slowdown stall + one timeout stall");
    assert_eq!(sim.recovery.recoveries, 2, "crash + past-timeout stall both restore");
    assert_eq!(sim.recovery.dropped_batches, 1);
    // Two delays: worker 0's fresh step-1 batch, plus the step-0 batch
    // whose retransmission re-enters the injector at step 1 and is delayed
    // again (retries are re-classified; delays are not).
    assert_eq!(sim.recovery.delayed_batches, 2);
    assert_eq!(sim.recovery.duplicated_batches, 1);
    assert!(sim.recovery.retries >= 1, "the dropped batch must be retransmitted");
    assert!(sim.recovery.checkpoints >= 5, "every worker checkpoints every superstep");
    assert!(sim.recovery.replayed_batches >= 1, "recovery replays logged deliveries");

    // The deterministic traffic stats still agree, faults and all.
    assert_eq!(sim.supersteps, thr.supersteps);
    assert_eq!(sim.batches, thr.batches);
    assert_eq!(sim.messages, thr.messages);
    assert_eq!(sim.bytes, thr.bytes);
    assert_eq!(sim.shard_bytes, thr.shard_bytes);
    assert_eq!(sim.deduped_facts, thr.deduped_facts);
}

#[test]
fn empty_fleet_is_identical_across_modes() {
    for mode in [ExecutionMode::Simulated, ExecutionMode::Threaded] {
        let (workers, stats) = run(0, mode);
        assert!(workers.is_empty());
        assert_eq!(stats.supersteps, 0, "{mode:?}: no workers, no supersteps");
        assert_eq!(stats.batches, 0, "{mode:?}");
        assert_eq!(stats.bytes, 0, "{mode:?}");
        assert!(stats.shard_bytes.is_empty(), "{mode:?}");
        assert!(stats.step_max_secs.is_empty(), "{mode:?}");
        assert!(stats.worker_busy_secs.is_empty(), "{mode:?}");
    }
}
