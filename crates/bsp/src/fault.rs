//! Deterministic fault injection for the BSP runtime.
//!
//! A [`FaultPlan`] is a finite set of fault directives keyed by worker id
//! and superstep (and, for network faults, the `from -> to` edge). Both
//! executors consult the plan at the same decision points — compute entry
//! for crash/stall faults, message deposit for drop/delay/duplicate faults
//! — so a plan produces the *same* fault schedule and the same
//! [`RecoveryStats`] under simulated and threaded execution, which is what
//! makes recovery behaviour testable for stat parity.
//!
//! Plans are either built programmatically, parsed from the textual
//! grammar (see [`FaultPlan::parse`]), or generated from a seed with
//! [`FaultPlan::random`] for chaos-matrix style sweeps.

use serde::Serialize;
use std::path::PathBuf;

use crate::WorkerId;

/// One fault directive. Steps are superstep indices: compute faults
/// (`Crash`, `Stall`) fire when the worker *enters* compute of that step;
/// edge faults fire when a message is deposited during the *exchange* of
/// that step (including retransmissions that land on the step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Fault {
    /// Worker loses its in-memory state at the start of superstep `step`
    /// and is recovered from its last checkpoint.
    Crash {
        /// The failing worker.
        worker: WorkerId,
        /// The superstep at which it fails.
        step: u64,
    },
    /// The message `from -> to` deposited at `step` is lost; the runtime
    /// retries with exponential backoff (see [`FaultConfig`]).
    Drop {
        /// Sending worker.
        from: WorkerId,
        /// Receiving worker.
        to: WorkerId,
        /// Exchange step of the affected deposit.
        step: u64,
    },
    /// The message `from -> to` deposited at `step` arrives `steps`
    /// supersteps late.
    Delay {
        /// Sending worker.
        from: WorkerId,
        /// Receiving worker.
        to: WorkerId,
        /// Exchange step of the affected deposit.
        step: u64,
        /// Extra supersteps before delivery (≥ 1).
        steps: u64,
    },
    /// The message `from -> to` deposited at `step` is delivered twice
    /// (absorbed by recipient-side dedup — replay is idempotent).
    Duplicate {
        /// Sending worker.
        from: WorkerId,
        /// Receiving worker.
        to: WorkerId,
        /// Exchange step of the affected deposit.
        step: u64,
    },
    /// Worker is `millis` ms slower in superstep `step`. Stalls beyond
    /// [`FaultConfig::stall_timeout_secs`] are treated as failures and
    /// recovered like a crash; shorter ones only stretch the makespan.
    Stall {
        /// The stalling worker.
        worker: WorkerId,
        /// The superstep it stalls in.
        step: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// Injector verdict for one message deposit (first matching edge fault in
/// the plan wins; no match means normal delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeFault {
    /// Deliver normally.
    Deliver,
    /// Lose the message (subject to bounded retry).
    Drop,
    /// Deliver this many supersteps late.
    Delay(u64),
    /// Deliver twice.
    Duplicate,
}

/// A deterministic schedule of faults for one BSP run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of directives.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The directives, in plan order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Append a directive (builder style).
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Shorthand: crash `worker` at `step`.
    pub fn crash(worker: WorkerId, step: u64) -> FaultPlan {
        FaultPlan::none().with(Fault::Crash { worker, step })
    }

    /// Whether `worker` crashes entering superstep `step`.
    pub fn crashed(&self, worker: WorkerId, step: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(*f, Fault::Crash { worker: w, step: s } if w == worker && s == step))
    }

    /// Stall duration for `worker` at `step`, if any.
    pub fn stall_millis(&self, worker: WorkerId, step: u64) -> Option<u64> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Stall { worker: w, step: s, millis } if w == worker && s == step => Some(millis),
            _ => None,
        })
    }

    /// Injector verdict for a deposit on `from -> to` during the exchange
    /// of `step`.
    pub fn edge(&self, from: WorkerId, to: WorkerId, step: u64) -> EdgeFault {
        for f in &self.faults {
            match *f {
                Fault::Drop { from: a, to: b, step: s } if a == from && b == to && s == step => {
                    return EdgeFault::Drop;
                }
                Fault::Delay { from: a, to: b, step: s, steps }
                    if a == from && b == to && s == step =>
                {
                    return EdgeFault::Delay(steps.max(1));
                }
                Fault::Duplicate { from: a, to: b, step: s }
                    if a == from && b == to && s == step =>
                {
                    return EdgeFault::Duplicate;
                }
                _ => {}
            }
        }
        EdgeFault::Deliver
    }

    /// Parse the textual grammar:
    ///
    /// ```text
    /// plan      := directive (';' directive)*
    /// directive := 'crash' W '@' K            crash worker W at superstep K
    ///            | 'drop'  W '->' W '@' K     lose the W->W deposit at K
    ///            | 'delay' W '->' W '@' K '+' D   deliver it D steps late
    ///            | 'dup'   W '->' W '@' K     deliver it twice
    ///            | 'stall' W '@' K '=' MS     stall worker W at K for MS ms
    /// ```
    ///
    /// ```
    /// use dcer_bsp::FaultPlan;
    /// let p = FaultPlan::parse("crash 2@1; drop 0->1@2; delay 1->3@2+2").unwrap();
    /// assert_eq!(p.len(), 3);
    /// assert!(p.crashed(2, 1));
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for raw in text.split([';', '\n']) {
            let d = raw.trim();
            if d.is_empty() {
                continue;
            }
            let (kind, rest) = d
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("fault directive `{d}` has no arguments"))?;
            let rest: String = rest.chars().filter(|c| !c.is_whitespace()).collect();
            let num = |s: &str, what: &str| -> Result<u64, String> {
                s.parse::<u64>().map_err(|_| format!("bad {what} `{s}` in directive `{d}`"))
            };
            let edge = |s: &str| -> Result<(WorkerId, WorkerId, String), String> {
                let (from, tail) = s
                    .split_once("->")
                    .ok_or_else(|| format!("directive `{d}` needs `from->to@step`"))?;
                let (to, step) =
                    tail.split_once('@').ok_or_else(|| format!("directive `{d}` needs `@step`"))?;
                Ok((num(from, "worker")? as WorkerId, num(to, "worker")? as WorkerId, step.into()))
            };
            let fault = match kind {
                "crash" => {
                    let (w, k) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("directive `{d}` needs `worker@step`"))?;
                    Fault::Crash { worker: num(w, "worker")? as WorkerId, step: num(k, "step")? }
                }
                "stall" => {
                    let (w, tail) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("directive `{d}` needs `worker@step=millis`"))?;
                    let (k, ms) = tail
                        .split_once('=')
                        .ok_or_else(|| format!("directive `{d}` needs `=millis`"))?;
                    Fault::Stall {
                        worker: num(w, "worker")? as WorkerId,
                        step: num(k, "step")?,
                        millis: num(ms, "millis")?,
                    }
                }
                "drop" => {
                    let (from, to, step) = edge(&rest)?;
                    Fault::Drop { from, to, step: num(&step, "step")? }
                }
                "dup" => {
                    let (from, to, step) = edge(&rest)?;
                    Fault::Duplicate { from, to, step: num(&step, "step")? }
                }
                "delay" => {
                    let (from, to, tail) = edge(&rest)?;
                    let (step, extra) = tail
                        .split_once('+')
                        .ok_or_else(|| format!("directive `{d}` needs `+steps`"))?;
                    Fault::Delay {
                        from,
                        to,
                        step: num(step, "step")?,
                        steps: num(extra, "steps")?.max(1),
                    }
                }
                other => return Err(format!("unknown fault kind `{other}` in `{d}`")),
            };
            plan.faults.push(fault);
        }
        Ok(plan)
    }

    /// Seed-driven plan generation for chaos sweeps: `count` faults drawn
    /// uniformly over kinds, `workers` workers and supersteps `0..steps`.
    /// The same seed always yields the same plan.
    pub fn random(seed: u64, workers: usize, steps: u64, count: usize) -> FaultPlan {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let steps = steps.max(1);
        let mut plan = FaultPlan::none();
        for _ in 0..count {
            let step = rng.random_range(0..steps);
            let worker = rng.random_range(0..workers.max(1));
            let kind = if workers < 2 { 0 } else { rng.random_range(0..5u32) };
            let mut peer = || {
                let mut p = rng.random_range(0..workers);
                if p == worker {
                    p = (p + 1) % workers;
                }
                p
            };
            let fault = match kind {
                0 => Fault::Crash { worker, step },
                1 => Fault::Drop { from: worker, to: peer(), step },
                2 => Fault::Delay { from: worker, to: peer(), step, steps: 1 + step % 2 },
                3 => Fault::Duplicate { from: worker, to: peer(), step },
                _ => Fault::Stall { worker, step, millis: 20 + 60 * (step % 3) },
            };
            plan.faults.push(fault);
        }
        plan
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            match *fault {
                Fault::Crash { worker, step } => write!(f, "crash {worker}@{step}")?,
                Fault::Drop { from, to, step } => write!(f, "drop {from}->{to}@{step}")?,
                Fault::Delay { from, to, step, steps } => {
                    write!(f, "delay {from}->{to}@{step}+{steps}")?
                }
                Fault::Duplicate { from, to, step } => write!(f, "dup {from}->{to}@{step}")?,
                Fault::Stall { worker, step, millis } => {
                    write!(f, "stall {worker}@{step}={millis}")?
                }
            }
        }
        Ok(())
    }
}

/// Fault-tolerance configuration for one BSP run: the fault schedule plus
/// the checkpoint/retry policy. The default configuration is *inactive*
/// (no plan, no checkpoints): the runtime allocates no checkpoint store and
/// no delivery log for it.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The fault schedule to inject.
    pub plan: FaultPlan,
    /// Checkpoint every `interval` supersteps (`0` disables checkpointing;
    /// recovery then rebuilds from the worker's durable inputs and replays
    /// every exchange).
    pub checkpoint_interval: u64,
    /// Retransmissions allowed per dropped message before the run aborts
    /// (and the driving session degrades to a fault-free rerun).
    pub max_retries: u32,
    /// Base retransmission backoff in supersteps; the r-th retry waits
    /// `base << r` steps (exponential).
    pub retry_backoff_steps: u64,
    /// A stall longer than this is treated as a worker failure and
    /// recovered from checkpoint; shorter stalls only slow the step.
    pub stall_timeout_secs: f64,
    /// Also spill checkpoints to `<dir>/worker-<i>.ckpt` for message types
    /// that implement [`crate::Message::encode`].
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for FaultConfig {
    /// The inactive configuration ([`FaultConfig::none`]), *not* all-zero
    /// fields — the retry/backoff/timeout policy keeps its sensible values
    /// so turning on a plan later behaves as documented.
    fn default() -> FaultConfig {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// Inactive configuration: no faults, no checkpoints.
    pub fn none() -> FaultConfig {
        FaultConfig {
            plan: FaultPlan::none(),
            checkpoint_interval: 0,
            max_retries: 3,
            retry_backoff_steps: 1,
            stall_timeout_secs: 0.05,
            checkpoint_dir: None,
        }
    }

    /// Checkpoint every superstep, no injected faults — the overhead
    /// configuration the `bsp_exchange` bench guards.
    pub fn checkpointing() -> FaultConfig {
        FaultConfig { checkpoint_interval: 1, ..FaultConfig::none() }
    }

    /// Checkpoint every superstep and inject `plan`.
    pub fn with_plan(plan: FaultPlan) -> FaultConfig {
        FaultConfig { plan, checkpoint_interval: 1, ..FaultConfig::none() }
    }

    /// Whether this configuration changes runtime behaviour at all
    /// (only active configs get a checkpoint store).
    pub fn active(&self) -> bool {
        self.checkpoint_interval > 0 || !self.plan.is_empty()
    }
}

/// Counters of the fault-tolerance layer, nested in
/// [`crate::BspStats::recovery`]. Every field is driven by the plan and
/// the deterministic retry policy, so the struct is identical across
/// execution modes for the same plan (pinned by `tests/parity.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryStats {
    /// Checkpoints taken at superstep boundaries.
    pub checkpoints: u64,
    /// Logical units (facts) captured across all checkpoints.
    pub checkpoint_facts: u64,
    /// Bytes captured across all checkpoints.
    pub checkpoint_bytes: u64,
    /// Injected crash faults.
    pub crashes: u64,
    /// Injected stall faults (both slow-step and crash-equivalent).
    pub stalls: u64,
    /// Recovery invocations (crashes + stalls past the timeout).
    pub recoveries: u64,
    /// Logged batches replayed to recovered workers.
    pub replayed_batches: u64,
    /// Logical units replayed to recovered workers.
    pub replayed_facts: u64,
    /// Deposits lost to drop faults (each retransmission that is dropped
    /// again counts once more).
    pub dropped_batches: u64,
    /// Retransmission attempts performed.
    pub retries: u64,
    /// Deposits delivered late by delay faults.
    pub delayed_batches: u64,
    /// Deposits duplicated by duplicate faults.
    pub duplicated_batches: u64,
}

impl RecoveryStats {
    /// Pointwise sum (merging per-thread logs).
    pub fn add(&mut self, other: &RecoveryStats) {
        self.checkpoints += other.checkpoints;
        self.checkpoint_facts += other.checkpoint_facts;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.crashes += other.crashes;
        self.stalls += other.stalls;
        self.recoveries += other.recoveries;
        self.replayed_batches += other.replayed_batches;
        self.replayed_facts += other.replayed_facts;
        self.dropped_batches += other.dropped_batches;
        self.retries += other.retries;
        self.delayed_batches += other.delayed_batches;
        self.duplicated_batches += other.duplicated_batches;
    }

    /// Publish into the global [`dcer_obs`] registry under
    /// `bsp.recovery.*` (no-op unless a recorder is installed).
    pub fn publish(&self) {
        if !dcer_obs::enabled() {
            return;
        }
        dcer_obs::counter_add("bsp.recovery.checkpoints", self.checkpoints);
        dcer_obs::counter_add("bsp.recovery.checkpoint_facts", self.checkpoint_facts);
        dcer_obs::counter_add("bsp.recovery.checkpoint_bytes", self.checkpoint_bytes);
        dcer_obs::counter_add("bsp.recovery.crashes", self.crashes);
        dcer_obs::counter_add("bsp.recovery.stalls", self.stalls);
        dcer_obs::counter_add("bsp.recovery.recoveries", self.recoveries);
        dcer_obs::counter_add("bsp.recovery.replayed_batches", self.replayed_batches);
        dcer_obs::counter_add("bsp.recovery.replayed_facts", self.replayed_facts);
        dcer_obs::counter_add("bsp.recovery.dropped_batches", self.dropped_batches);
        dcer_obs::counter_add("bsp.recovery.retries", self.retries);
        dcer_obs::counter_add("bsp.recovery.delayed_batches", self.delayed_batches);
        dcer_obs::counter_add("bsp.recovery.duplicated_batches", self.duplicated_batches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_directive_kind() {
        let p =
            FaultPlan::parse("crash 2@1; drop 0->1@2; delay 1->3@2+2; dup 0->2@1; stall 3@2=80")
                .unwrap();
        assert_eq!(p.len(), 5);
        assert!(p.crashed(2, 1));
        assert!(!p.crashed(2, 2));
        assert_eq!(p.edge(0, 1, 2), EdgeFault::Drop);
        assert_eq!(p.edge(1, 3, 2), EdgeFault::Delay(2));
        assert_eq!(p.edge(0, 2, 1), EdgeFault::Duplicate);
        assert_eq!(p.edge(0, 1, 0), EdgeFault::Deliver);
        assert_eq!(p.stall_millis(3, 2), Some(80));
        assert_eq!(p.stall_millis(3, 1), None);
    }

    #[test]
    fn parse_display_round_trips() {
        let text = "crash 2@1; drop 0->1@2; delay 1->3@2+2; dup 0->2@1; stall 3@2=80";
        let p = FaultPlan::parse(text).unwrap();
        assert_eq!(p.to_string(), text);
        assert_eq!(FaultPlan::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn parse_tolerates_whitespace_and_newlines() {
        let p = FaultPlan::parse("  crash  1@0 \n drop 0 -> 1 @ 3 ;\n").unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.crashed(1, 0));
        assert_eq!(p.edge(0, 1, 3), EdgeFault::Drop);
    }

    #[test]
    fn parse_rejects_malformed_directives() {
        for bad in ["crash", "crash 1", "boom 1@2", "drop 0-1@2", "delay 0->1@2", "stall 1@2"] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = FaultPlan::random(42, 5, 4, 8);
        let b = FaultPlan::random(42, 5, 4, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        let c = FaultPlan::random(43, 5, 4, 8);
        assert_ne!(a, c, "different seeds should give different plans");
    }

    #[test]
    fn random_single_worker_only_crashes() {
        for f in FaultPlan::random(7, 1, 3, 6).faults() {
            assert!(matches!(f, Fault::Crash { worker: 0, .. }), "{f:?}");
        }
    }

    #[test]
    fn inactive_config_is_default() {
        assert!(!FaultConfig::none().active());
        assert!(!FaultConfig::default().active());
        assert_eq!(FaultConfig::default().max_retries, 3, "default keeps the real policy");
        assert!(FaultConfig::checkpointing().active());
        assert!(FaultConfig::with_plan(FaultPlan::crash(0, 1)).active());
    }

    #[test]
    fn first_matching_edge_fault_wins() {
        let p = FaultPlan::none()
            .with(Fault::Drop { from: 0, to: 1, step: 2 })
            .with(Fault::Duplicate { from: 0, to: 1, step: 2 });
        assert_eq!(p.edge(0, 1, 2), EdgeFault::Drop);
    }
}
