//! A Bulk Synchronous Parallel (BSP \[63\]) runtime for the fixpoint model of
//! Section III-B: `n` workers proceeding in supersteps until global
//! quiescence (`ΔΓᵢ = ∅` for all `i`).
//!
//! ## Sharded exchange
//!
//! Unlike the classical formulation where a master `P₀` receives, unions and
//! re-routes every fact, workers here route *directly by destination shard*:
//! [`Worker::superstep`] returns `(recipient, message)` pairs and the runtime
//! deposits each message straight into the recipient's mailbox. The
//! coordinator role is reduced to what `P₀` fundamentally must do — detect
//! global quiescence (a superstep that delivered nothing) — so no single
//! process is a serialization point for message payloads.
//!
//! Messages implement [`Message`] and are expected to be *cheaply shareable*:
//! routing one batch to `k` recipients costs `k` clones of the message
//! handle (an `Arc` bump for `DeltaBatch`-style types), never a deep copy of
//! the payload.
//!
//! ## Execution modes (see `DESIGN.md` §5)
//!
//! Both modes drive one per-worker superstep state machine, a *lane*: it
//! computes the step (or recovers the worker and replays what it missed),
//! routes the output through the fault injector into the recipients'
//! mailboxes, and after the barrier drains its own mailbox. The modes differ
//! only in who calls the lanes and how time is accounted:
//!
//! - [`ExecutionMode::Threaded`]: every lane is a resident task on a
//!   [`dcer_pool::WorkPool`], all running at once between real per-superstep
//!   barriers — validates the algorithms under true concurrency.
//! - [`ExecutionMode::Simulated`]: the caller runs the lanes one after
//!   another while the runtime records each worker's busy time per superstep;
//!   the *simulated parallel time* (makespan) is `Σ_steps max_worker(busy)`
//!   plus a configurable per-byte communication cost. This measures exactly
//!   the quantities parallel scalability (Theorem 7) is about, independent of
//!   how many physical cores the host has.
//!
//! ## Fault tolerance (see `DESIGN.md` §11)
//!
//! [`run_bsp_with`] accepts a [`FaultConfig`]: superstep-boundary
//! checkpointing into a [`CheckpointStore`], a deterministic [`FaultPlan`]
//! injector (crash / drop / delay / duplicate / stall), and a recovery path
//! that restores a failed worker from its last checkpoint and replays the
//! exchanges it missed from a per-recipient delivery log. Replay is
//! idempotent for `DeltaBatch`-style canonical messages, so the recovered
//! fixpoint equals the fault-free one (Church–Rosser). Every fault decision
//! is made from the same `(worker, step)` / `(from, to, step)` keys in the
//! one lane code both modes run, so [`RecoveryStats`] are identical across
//! modes for a given plan. An inactive config (the default used by
//! [`run_bsp`]) is an empty plan with checkpointing off: no checkpoint store
//! and no delivery log are allocated, and each fault check is a lookup in an
//! empty plan.

pub mod checkpoint;
pub mod fault;

pub use checkpoint::CheckpointStore;
pub use fault::{EdgeFault, Fault, FaultConfig, FaultPlan, RecoveryStats};

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Worker index within a run.
pub type WorkerId = usize;

/// A routable message: cheap to clone (hand an `Arc`-backed batch to `k`
/// recipients with `k` pointer bumps) and sized exactly for communication
/// accounting.
pub trait Message: Send + Clone + 'static {
    /// Exact wire size of the payload in bytes.
    fn size_bytes(&self) -> usize;

    /// Number of logical units (facts) carried; `1` for scalar messages.
    fn unit_count(&self) -> usize {
        1
    }

    /// Serialize the payload for on-disk checkpoint spill. `None` (the
    /// default) keeps checkpoints of this message type memory-only.
    fn encode(&self) -> Option<Vec<u8>> {
        None
    }

    /// Inverse of [`Message::encode`]; `None` on unsupported or malformed
    /// input.
    fn decode(_bytes: &[u8]) -> Option<Self> {
        None
    }
}

macro_rules! scalar_message {
    ($($t:ty),*) => {$(
        impl Message for $t {
            fn size_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn encode(&self) -> Option<Vec<u8>> {
                Some(self.to_le_bytes().to_vec())
            }
            fn decode(bytes: &[u8]) -> Option<$t> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

scalar_message!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A BSP worker. `initial` is the partial-evaluation superstep (`A` in the
/// paper); `superstep` is the incremental step (`A_Δ`). Both return messages
/// *already routed* to their destination shards; deliveries to `self` are
/// filtered by the runtime.
pub trait Worker: Send {
    /// The message type exchanged between shards.
    type Msg: Message;

    /// Superstep 0: compute local results from the worker's fragment and
    /// route them.
    fn initial(&mut self) -> Vec<(WorkerId, Self::Msg)>;

    /// Superstep r ≥ 1: incorporate delivered messages, route new local
    /// results. Returning nothing signals local quiescence.
    fn superstep(&mut self, inbox: Vec<Self::Msg>) -> Vec<(WorkerId, Self::Msg)>;

    /// Units received over the whole run that the worker already knew
    /// (duplicates absorbed by local dedup). Read once at the end of the
    /// run for [`BspStats::deduped_facts`].
    fn absorbed_duplicates(&self) -> u64 {
        0
    }

    /// Capture the worker's durable state as one message for superstep
    /// checkpointing. `None` (the default) opts this worker out of
    /// checkpointing; recovery then rebuilds from immutable inputs alone.
    fn snapshot(&mut self) -> Option<Self::Msg> {
        None
    }

    /// Rebuild after a failure: discard in-memory state, reload from
    /// `checkpoint` (the latest [`Worker::snapshot`], if any) and return
    /// messages to route — the re-announcement of recovered state, which is
    /// essential when the failure precedes `initial`. Workers that a
    /// [`FaultPlan`] may crash must override this; the default keeps stale
    /// state and announces nothing.
    fn restore(&mut self, _checkpoint: Option<&Self::Msg>) -> Vec<(WorkerId, Self::Msg)> {
        Vec::new()
    }
}

/// How to execute the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Sequential execution with per-worker time accounting (simulated
    /// cluster).
    Simulated,
    /// Every worker runs concurrently as a resident pool task.
    Threaded,
}

/// Cost model for the simulated cluster.
///
/// ```
/// let cost = dcer_bsp::CostModel::default();
/// // 8e-8 s/B = 12.5 MB/s = 1e8 bit/s = 100 Mbit/s.
/// assert!((cost.secs_per_byte - 8e-8).abs() < 1e-20);
/// assert!((1.0 / cost.secs_per_byte * 8.0 - 100e6).abs() < 1e-3);
/// assert!((cost.barrier_secs - 1e-4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CostModel {
    /// Seconds per byte routed between workers. The default `8e-8` s/B is
    /// 12.5 MB/s ≈ 100 Mbit/s — the network of the paper's evaluation
    /// cluster. Zero ignores communication.
    pub secs_per_byte: f64,
    /// Fixed per-superstep synchronization barrier cost in seconds.
    pub barrier_secs: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel { secs_per_byte: 8e-8, barrier_secs: 1e-4 }
    }
}

/// Statistics of one BSP run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BspStats {
    /// Number of supersteps executed (including superstep 0).
    pub supersteps: usize,
    /// Batches (messages) delivered worker→worker.
    pub batches: u64,
    /// Logical units (facts) delivered: Σ `unit_count` over deliveries.
    pub messages: u64,
    /// Total bytes delivered (per [`Message::size_bytes`]).
    pub bytes: u64,
    /// Bytes received per destination shard.
    pub shard_bytes: Vec<u64>,
    /// Units delivered that recipients already knew (absorbed duplicates).
    pub deduped_facts: u64,
    /// Per superstep: the maximum single-worker busy time (seconds).
    pub step_max_secs: Vec<f64>,
    /// Per superstep: the sum of worker busy times (seconds).
    pub step_total_secs: Vec<f64>,
    /// Per worker: total busy seconds across supersteps.
    pub worker_busy_secs: Vec<f64>,
    /// Simulated parallel time: Σ max-per-step + communication + barriers.
    pub makespan_secs: f64,
    /// Total compute across all workers (the sequential-equivalent work).
    pub total_compute_secs: f64,
    /// Wall-clock time of the whole run.
    pub wall_secs: f64,
    /// Fault-tolerance layer counters (all zero on fault-free runs).
    pub recovery: RecoveryStats,
}

impl BspStats {
    fn new(n: usize) -> BspStats {
        BspStats { worker_busy_secs: vec![0.0; n], shard_bytes: vec![0; n], ..Default::default() }
    }

    /// Publish this run's aggregates into the global [`dcer_obs`] registry
    /// (no-op unless a recorder is installed). Scalars become `bsp.*`
    /// counters/gauges; per-shard series carry the shard index as label.
    pub fn publish(&self) {
        if !dcer_obs::enabled() {
            return;
        }
        dcer_obs::counter_add("bsp.supersteps", self.supersteps as u64);
        dcer_obs::counter_add("bsp.batches", self.batches);
        dcer_obs::counter_add("bsp.messages", self.messages);
        dcer_obs::counter_add("bsp.bytes", self.bytes);
        dcer_obs::counter_add("bsp.deduped_facts", self.deduped_facts);
        dcer_obs::gauge_set("bsp.makespan_secs", self.makespan_secs);
        dcer_obs::gauge_set("bsp.total_compute_secs", self.total_compute_secs);
        dcer_obs::gauge_set("bsp.wall_secs", self.wall_secs);
        for (i, &b) in self.shard_bytes.iter().enumerate() {
            dcer_obs::counter_add_labeled("bsp.shard_bytes", i as u32, b);
        }
        for (i, &s) in self.worker_busy_secs.iter().enumerate() {
            dcer_obs::gauge_set_labeled("bsp.worker_busy_secs", i as u32, s);
        }
        for &m in &self.step_max_secs {
            dcer_obs::histogram_record("bsp.step_max_us", (m * 1e6) as u64);
        }
        self.recovery.publish();
    }

    fn account_step(&mut self, cost: &CostModel, durations: &[f64], step_bytes: u64) {
        let max = durations.iter().copied().fold(0.0, f64::max);
        let total: f64 = durations.iter().sum();
        self.step_max_secs.push(max);
        self.step_total_secs.push(total);
        for (w, d) in durations.iter().enumerate() {
            self.worker_busy_secs[w] += d;
        }
        self.supersteps += 1;
        self.makespan_secs += max + cost.barrier_secs + step_bytes as f64 * cost.secs_per_byte;
        self.total_compute_secs += total;
    }
}

/// A BSP run that could not complete under its [`FaultConfig`]: a dropped
/// delivery exhausted its retransmission budget. Carries the statistics of
/// the aborted attempt so callers can degrade gracefully (rerun fault-free)
/// while still reporting what the fault layer did.
#[derive(Debug)]
pub struct BspAbort {
    /// Human-readable cause.
    pub reason: String,
    /// Statistics of the aborted attempt (recovery counters included).
    /// Boxed: keeps the `Result` err variant small on the hot return path.
    pub stats: Box<BspStats>,
}

impl std::fmt::Display for BspAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BSP run aborted: {}", self.reason)
    }
}

impl std::error::Error for BspAbort {}

/// Run a BSP computation to global quiescence. Returns the workers (with
/// their final state) and the run statistics.
pub fn run_bsp<W: Worker>(
    workers: Vec<W>,
    mode: ExecutionMode,
    cost: &CostModel,
) -> (Vec<W>, BspStats) {
    match run_bsp_with(workers, mode, cost, &FaultConfig::none()) {
        Ok(result) => result,
        Err(_) => unreachable!("an inactive FaultConfig never aborts"),
    }
}

/// Run a BSP computation to global quiescence under a fault-tolerance
/// configuration: with checkpointing and/or a [`FaultPlan`] the runtime
/// checkpoints at superstep boundaries, injects the planned faults and
/// recovers failed workers. Returns [`BspAbort`] when a dropped delivery
/// exhausts its retransmission budget. This is [`run_bsp_on`] over a
/// transient single-lane pool, so threaded workers beyond the caller run on
/// temporary threads.
pub fn run_bsp_with<W: Worker>(
    workers: Vec<W>,
    mode: ExecutionMode,
    cost: &CostModel,
    faults: &FaultConfig,
) -> Result<(Vec<W>, BspStats), BspAbort> {
    run_bsp_on(&dcer_pool::WorkPool::new(1), workers, mode, cost, faults)
}

/// Like [`run_bsp_with`], but the threaded executor runs its workers as
/// *resident* tasks on the shared [`dcer_pool::WorkPool`] — one worker per
/// pool lane (the caller included), with temporary overflow threads beyond
/// the pool size. The simulated executor runs every worker on the caller and
/// ignores the pool. In both modes each worker's spans land on a dedicated
/// `worker-{k}` track.
pub fn run_bsp_on<W: Worker>(
    pool: &dcer_pool::WorkPool,
    workers: Vec<W>,
    mode: ExecutionMode,
    cost: &CostModel,
    faults: &FaultConfig,
) -> Result<(Vec<W>, BspStats), BspAbort> {
    if workers.is_empty() {
        // No lane, no superstep to account, in either mode.
        return Ok((workers, BspStats::new(0)));
    }
    let wall = Instant::now();
    let exchange = Exchange::new(workers.len(), faults);
    let lanes = workers.into_iter().enumerate().map(|(me, w)| Lane::new(me, w)).collect();
    let lanes = match mode {
        ExecutionMode::Simulated => run_simulated(lanes, &exchange),
        ExecutionMode::Threaded => run_threaded(pool, lanes, &exchange),
    };
    let (workers, mut stats) = merge(lanes, cost);
    stats.wall_secs = wall.elapsed().as_secs_f64();
    if let Some(reason) = exchange.abort.into_inner().expect("abort slot poisoned") {
        return Err(BspAbort { reason, stats: Box::new(stats) });
    }
    stats.publish();
    Ok((workers, stats))
}

/// The phase-span name for a superstep: superstep 0 runs the partial
/// evaluation `A` ("deduce"), later supersteps run `A_Δ` ("incdeduce").
fn step_span_name(first: bool) -> &'static str {
    if first {
        "deduce"
    } else {
        "incdeduce"
    }
}

/// Deterministic id for the `bsp.send` flow edge of one batch handoff:
/// derived from the routing coordinates `(exchange step, from, to)` so the
/// threaded and simulated executors emit the *identical* edge set for the
/// same run (pinned by `flow_parity` in `tests/flow_parity.rs`). Stays far
/// below 2^53, so the id survives JSON number round-trips.
fn bsp_flow_id(step: u64, from: WorkerId, to: WorkerId) -> u64 {
    (step << 32) | ((from as u64) << 16) | to as u64
}

/// Deterministic id for the `bsp.spawn` flow edge linking the calling
/// thread (which just partitioned and built the fleet) to each worker's
/// first superstep. Namespaced above every possible [`bsp_flow_id`].
fn spawn_flow_id(worker: WorkerId) -> u64 {
    (1u64 << 50) | worker as u64
}

/// A message its sending lane holds back: either a scheduled retransmission
/// of a dropped delivery (`retry`) or a delayed delivery already past the
/// injector. Due at the exchange of superstep `due`.
struct PendingSend<M> {
    to: WorkerId,
    msg: M,
    attempts: u32,
    due: u64,
    retry: bool,
}

/// Injector verdict for one deposit attempt.
enum SendOutcome {
    Deliver,
    DeliverTwice,
    /// Deliver at the exchange of this later superstep.
    Delayed(u64),
    /// Retransmit (attempt count, due superstep).
    Retry(u32, u64),
    /// Retransmission budget exhausted — abort the run.
    Exhausted,
}

/// Consult the plan for a deposit on `from -> to` at `step` (`attempts`
/// prior drops of this message) and update the fault counters. Pure in the
/// `(plan, edge, step, attempts)` key, so both executors agree.
fn classify_send(
    cfg: &FaultConfig,
    from: WorkerId,
    to: WorkerId,
    step: u64,
    attempts: u32,
    rec: &mut RecoveryStats,
) -> SendOutcome {
    match cfg.plan.edge(from, to, step) {
        EdgeFault::Deliver => SendOutcome::Deliver,
        EdgeFault::Duplicate => {
            rec.duplicated_batches += 1;
            dcer_obs::instant("bsp.fault.dup");
            SendOutcome::DeliverTwice
        }
        EdgeFault::Delay(d) => {
            rec.delayed_batches += 1;
            dcer_obs::instant("bsp.fault.delay");
            SendOutcome::Delayed(step + d)
        }
        EdgeFault::Drop => {
            rec.dropped_batches += 1;
            dcer_obs::instant("bsp.fault.drop");
            if attempts >= cfg.max_retries {
                SendOutcome::Exhausted
            } else {
                // Exponential backoff: the r-th retry waits base << r steps.
                SendOutcome::Retry(attempts + 1, step + (cfg.retry_backoff_steps << attempts))
            }
        }
    }
}

fn exhausted_reason(from: WorkerId, to: WorkerId, attempts: u32, step: u64) -> String {
    format!("delivery {from}->{to} dropped {} times by superstep {step}; retries exhausted", {
        attempts + 1
    })
}

/// One worker's inbound slot: batches tagged with their sender so the
/// drain can close each `bsp.send` flow edge.
type Mailbox<M> = Mutex<Vec<(WorkerId, M)>>;

/// What the lanes of one run share: the mailboxes, the fault layer and the
/// quiescence counters. The counters are `Relaxed`: they are written while
/// routing and read only by [`Exchange::halt`], which runs after a barrier
/// (or, simulated, on the same thread) that orders it after every write.
struct Exchange<'a, M: Message> {
    mailboxes: Vec<Mailbox<M>>,
    cfg: &'a FaultConfig,
    /// Latest checkpoint per worker; allocated only for an active config.
    store: Option<CheckpointStore<M>>,
    /// Per-recipient delivery log: `(deposit superstep, message)`, appended
    /// in step order and trimmed at each of the recipient's checkpoints.
    /// Empty (no slot at all) unless the plan can fail a worker — failures
    /// come from the plan alone, so an empty plan never replays.
    logs: Vec<Mutex<Vec<(u64, M)>>>,
    /// Deposits during the current superstep's exchange.
    delivered: AtomicU64,
    /// Retransmissions and delayed deliveries some lane still holds.
    in_flight: AtomicU64,
    /// The first exhausted retransmission budget, if any.
    abort: Mutex<Option<String>>,
}

impl<'a, M: Message> Exchange<'a, M> {
    fn new(n: usize, cfg: &'a FaultConfig) -> Exchange<'a, M> {
        Exchange {
            mailboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            cfg,
            store: cfg.active().then(|| CheckpointStore::new(n, cfg.checkpoint_dir.clone())),
            logs: if cfg.plan.is_empty() {
                Vec::new()
            } else {
                (0..n).map(|_| Mutex::new(Vec::new())).collect()
            },
            delivered: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            abort: Mutex::new(None),
        }
    }

    /// The coordinator's one duty, once per superstep after every lane has
    /// routed: stop on an abort, or on quiescence — a superstep that
    /// delivered nothing while nothing is in flight (a delayed batch or a
    /// scheduled retransmission may still wake a worker, and would
    /// otherwise silently vanish from the fixpoint).
    fn halt(&self) -> bool {
        let quiesced = self.delivered.swap(0, Ordering::Relaxed) == 0
            && self.in_flight.load(Ordering::Relaxed) == 0;
        quiesced || self.abort.lock().expect("abort slot poisoned").is_some()
    }
}

/// One worker's side of the superstep protocol, identical under both
/// schedulers: [`Lane::compute`] runs the step (or the recovery),
/// [`Lane::route`] deposits its output, [`Lane::drain`] takes what peers
/// deposited. What the lane measures stays in it until [`merge`].
struct Lane<W: Worker> {
    me: WorkerId,
    worker: W,
    /// The `worker-{me}` trace track.
    track: dcer_obs::TrackId,
    inbox: Vec<W::Msg>,
    /// Sends the injector held back; this lane is their sender.
    pending: Vec<PendingSend<W::Msg>>,
    recovery: RecoveryStats,
    /// Per superstep: busy seconds (compute, checkpoint, virtual stall).
    busy_secs: Vec<f64>,
    /// Per superstep: bytes drained from this lane's mailbox.
    recv_bytes: Vec<u64>,
    sent_batches: u64,
    sent_units: u64,
}

impl<W: Worker> Lane<W> {
    fn new(me: WorkerId, worker: W) -> Lane<W> {
        Lane {
            me,
            worker,
            track: dcer_obs::alloc_track(&format!("worker-{me}")),
            inbox: Vec::new(),
            pending: Vec::new(),
            recovery: RecoveryStats::default(),
            busy_secs: Vec::new(),
            recv_bytes: Vec::new(),
            sent_batches: 0,
            sent_units: 0,
        }
    }

    /// Superstep `step` of this worker: the planned crash/stall check, then
    /// either `initial`/`superstep` or restore + log replay, then the
    /// checkpoint. Returns the routed output.
    fn compute(&mut self, ex: &Exchange<'_, W::Msg>, step: u64) -> Vec<(WorkerId, W::Msg)> {
        let _span = dcer_obs::span_on(step_span_name(step == 0), self.track).with_arg("step", step);
        let t0 = Instant::now();
        let (me, cfg) = (self.me, ex.cfg);
        let inbox = std::mem::take(&mut self.inbox);
        let crashed = cfg.plan.crashed(me, step);
        let stall = cfg.plan.stall_millis(me, step);
        if crashed {
            self.recovery.crashes += 1;
            dcer_obs::instant("bsp.fault.crash");
        }
        if stall.is_some() {
            self.recovery.stalls += 1;
            dcer_obs::instant("bsp.fault.stall");
        }
        let mut stall_secs = 0.0;
        let out = if crashed || stall.is_some_and(|ms| ms as f64 / 1e3 > cfg.stall_timeout_secs) {
            // The worker's volatile state and undrained inbox are lost; the
            // delivery log holds everything since its last checkpoint, the
            // inbox included. `< step` leaves out what peers may already be
            // depositing for this step's exchange.
            drop(inbox);
            let ckpt = ex.store.as_ref().and_then(|store| store.latest(me));
            let mut out = self.worker.restore(ckpt.as_ref().map(|(_, m)| m));
            let replay: Vec<W::Msg> = ex.logs[me]
                .lock()
                .expect("delivery log poisoned")
                .iter()
                .filter(|(s, _)| *s < step)
                .map(|(_, m)| m.clone())
                .collect();
            self.recovery.replayed_batches += replay.len() as u64;
            self.recovery.replayed_facts +=
                replay.iter().map(|m| m.unit_count() as u64).sum::<u64>();
            self.recovery.recoveries += 1;
            dcer_obs::instant("bsp.recovery.restore");
            out.extend(self.worker.superstep(replay));
            out
        } else {
            // A sub-timeout stall is a virtual slowdown, not a failure.
            stall_secs = stall.map_or(0.0, |ms| ms as f64 / 1e3);
            if step == 0 {
                self.worker.initial()
            } else {
                self.worker.superstep(inbox)
            }
        };
        self.checkpoint(ex, step);
        self.busy_secs.push(t0.elapsed().as_secs_f64() + stall_secs);
        out
    }

    /// Snapshot the worker on checkpoint steps, inside the timed window: its
    /// cost is part of the worker's step.
    fn checkpoint(&mut self, ex: &Exchange<'_, W::Msg>, step: u64) {
        let every = ex.cfg.checkpoint_interval;
        let Some(store) = &ex.store else { return };
        if every == 0 || !step.is_multiple_of(every) {
            return;
        }
        let c0 = dcer_obs::enabled().then(Instant::now);
        if let Some(snap) = self.worker.snapshot() {
            self.recovery.checkpoints += 1;
            self.recovery.checkpoint_facts += snap.unit_count() as u64;
            self.recovery.checkpoint_bytes += snap.size_bytes() as u64;
            store.put(self.me, step, snap);
            // Replay after a later failure starts from this checkpoint:
            // older log entries are covered by it.
            if let Some(log) = ex.logs.get(self.me) {
                log.lock().expect("delivery log poisoned").retain(|(s, _)| *s >= step);
            }
        }
        if let Some(c0) = c0 {
            dcer_obs::histogram_record("bsp.checkpoint_ns", c0.elapsed().as_nanos() as u64);
        }
    }

    /// The exchange of `step`, sender side: re-send what fell due from the
    /// held-back sends, then classify and deposit the fresh output.
    fn route(&mut self, ex: &Exchange<'_, W::Msg>, out: Vec<(WorkerId, W::Msg)>, step: u64) {
        let held = self.pending.len() as u64;
        let (due, later): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending).into_iter().partition(|p| p.due <= step);
        self.pending = later;
        for p in due {
            if p.retry {
                self.recovery.retries += 1;
                self.send(ex, p.to, p.msg, p.attempts, step);
            } else {
                // A delayed delivery already passed the injector.
                self.deposit(ex, p.to, p.msg, step);
            }
        }
        for (to, msg) in out {
            if to == self.me {
                continue; // self-routes are free and filtered
            }
            assert!(to < ex.mailboxes.len(), "routed to nonexistent shard {to}");
            self.send(ex, to, msg, 0, step);
        }
        ex.in_flight.fetch_add(self.pending.len() as u64, Ordering::Relaxed);
        ex.in_flight.fetch_sub(held, Ordering::Relaxed);
    }

    /// One deposit attempt of `msg` (after `attempts` drops) through the
    /// injector.
    fn send(
        &mut self,
        ex: &Exchange<'_, W::Msg>,
        to: WorkerId,
        msg: W::Msg,
        attempts: u32,
        step: u64,
    ) {
        match classify_send(ex.cfg, self.me, to, step, attempts, &mut self.recovery) {
            SendOutcome::Deliver => self.deposit(ex, to, msg, step),
            SendOutcome::DeliverTwice => {
                self.deposit(ex, to, msg.clone(), step);
                self.deposit(ex, to, msg, step);
            }
            SendOutcome::Delayed(due) => {
                self.pending.push(PendingSend { to, msg, attempts, due, retry: false })
            }
            SendOutcome::Retry(attempts, due) => {
                self.pending.push(PendingSend { to, msg, attempts, due, retry: true })
            }
            SendOutcome::Exhausted => {
                let reason = exhausted_reason(self.me, to, attempts, step);
                ex.abort.lock().expect("abort slot poisoned").get_or_insert(reason);
            }
        }
    }

    /// Put `msg` into `to`'s mailbox with full accounting, logging it for
    /// replay when the plan can fail a worker. Opens the `bsp.send` flow
    /// edge that the recipient closes in [`Lane::drain`].
    fn deposit(&mut self, ex: &Exchange<'_, W::Msg>, to: WorkerId, msg: W::Msg, step: u64) {
        self.sent_batches += 1;
        self.sent_units += msg.unit_count() as u64;
        dcer_obs::histogram_record("bsp.batch_bytes", msg.size_bytes() as u64);
        dcer_obs::flow_begin_on("bsp.send", bsp_flow_id(step, self.me, to), self.track);
        ex.delivered.fetch_add(1, Ordering::Relaxed);
        if let Some(log) = ex.logs.get(to) {
            log.lock().expect("delivery log poisoned").push((step, msg.clone()));
        }
        ex.mailboxes[to].lock().expect("mailbox poisoned").push((self.me, msg));
    }

    /// The exchange of `step`, recipient side (after every deposit): the
    /// mailbox becomes the next step's inbox.
    fn drain(&mut self, ex: &Exchange<'_, W::Msg>, step: u64) {
        let received =
            std::mem::take(&mut *ex.mailboxes[self.me].lock().expect("mailbox poisoned"));
        let mut bytes = 0u64;
        self.inbox = received
            .into_iter()
            .map(|(from, msg)| {
                dcer_obs::flow_end_on("bsp.send", bsp_flow_id(step, from, self.me), self.track);
                bytes += msg.size_bytes() as u64;
                msg
            })
            .collect();
        self.recv_bytes.push(bytes);
        dcer_obs::histogram_record("bsp.worker_recv_bytes", bytes);
    }
}

/// The simulated scheduler: the caller runs the lanes one after another,
/// each on its own virtual trace track.
fn run_simulated<W: Worker>(mut lanes: Vec<Lane<W>>, ex: &Exchange<'_, W::Msg>) -> Vec<Lane<W>> {
    for lane in &lanes {
        // The causal edges the threaded scheduler emits at task spawn.
        dcer_obs::flow_begin("bsp.spawn", spawn_flow_id(lane.me));
        dcer_obs::flow_end_on("bsp.spawn", spawn_flow_id(lane.me), lane.track);
    }
    for step in 0u64.. {
        let outs: Vec<_> = lanes.iter_mut().map(|lane| lane.compute(ex, step)).collect();
        let _exchange = dcer_obs::span("exchange").with_arg("step", step);
        if dcer_obs::enabled() {
            // Synthesized barrier waits: no thread blocks here, but under
            // the cost model every worker except the straggler would have
            // waited (step max busy − own busy) at the barrier. Recording
            // that gap as `bsp.barrier_wait` feeds the critical-path
            // analysis the threaded scheduler feeds with real blocking time.
            let busy = |lane: &Lane<W>| lane.busy_secs[step as usize];
            let max_busy = lanes.iter().map(busy).fold(0.0, f64::max);
            let base = dcer_obs::now_ns();
            for lane in &lanes {
                let wait_ns = ((max_busy - busy(lane)) * 1e9) as u64;
                if wait_ns > 0 {
                    let arg = Some(("step", step));
                    dcer_obs::record_span("bsp.barrier_wait", lane.track, base, wait_ns, arg);
                }
            }
        }
        for (lane, out) in lanes.iter_mut().zip(outs) {
            lane.route(ex, out, step);
        }
        for lane in &mut lanes {
            lane.drain(ex, step);
        }
        if ex.halt() {
            break;
        }
    }
    lanes
}

/// The threaded scheduler: one resident pool task per lane, all running at
/// once between real barriers; the barrier leader makes the halt decision
/// for the fleet.
fn run_threaded<W: Worker>(
    pool: &dcer_pool::WorkPool,
    lanes: Vec<Lane<W>>,
    ex: &Exchange<'_, W::Msg>,
) -> Vec<Lane<W>> {
    let barrier = Barrier::new(lanes.len());
    let halt = AtomicBool::new(false);
    let (barrier, halt) = (&barrier, &halt);
    let wait = move |step: u64| {
        // Real blocking time on stragglers — the span the critical-path
        // analyzer charges to barrier wait.
        let _bw = dcer_obs::span("bsp.barrier_wait").with_arg("step", step);
        barrier.wait().is_leader()
    };
    let tasks: Vec<_> = lanes
        .into_iter()
        .map(|mut lane| {
            // Opened on the calling thread: links the partition/fleet build
            // to the worker's first superstep.
            dcer_obs::flow_begin("bsp.spawn", spawn_flow_id(lane.me));
            move || {
                // The OS thread is a reused pool lane or the caller; the
                // worker's events go to its own track either way.
                let _track = dcer_obs::redirect_thread_track(lane.track);
                dcer_obs::flow_end_on("bsp.spawn", spawn_flow_id(lane.me), lane.track);
                for step in 0u64.. {
                    let out = lane.compute(ex, step);
                    // The exchange span covers deposit, barrier waits and
                    // drain.
                    let _exchange = dcer_obs::span("exchange").with_arg("step", step);
                    lane.route(ex, out, step);
                    if wait(step) {
                        // Every deposit of the step has landed.
                        halt.store(ex.halt(), Ordering::Relaxed);
                    }
                    lane.drain(ex, step);
                    wait(step); // every mailbox drained, halt decision visible
                    if halt.load(Ordering::Relaxed) {
                        break;
                    }
                }
                lane
            }
        })
        .collect();
    pool.run_resident(tasks)
}

/// Fold the lanes' logs into the run's [`BspStats`] — the one place a
/// superstep is accounted, whichever scheduler ran it.
fn merge<W: Worker>(lanes: Vec<Lane<W>>, cost: &CostModel) -> (Vec<W>, BspStats) {
    let mut stats = BspStats::new(lanes.len());
    for step in 0..lanes[0].busy_secs.len() {
        let durations: Vec<f64> = lanes.iter().map(|lane| lane.busy_secs[step]).collect();
        let step_bytes: u64 = lanes.iter().map(|lane| lane.recv_bytes[step]).sum();
        dcer_obs::histogram_record("bsp.step_bytes", step_bytes);
        stats.account_step(cost, &durations, step_bytes);
    }
    let workers = lanes
        .into_iter()
        .enumerate()
        .map(|(i, lane)| {
            let received: u64 = lane.recv_bytes.iter().sum();
            stats.batches += lane.sent_batches;
            stats.messages += lane.sent_units;
            stats.bytes += received;
            stats.shard_bytes[i] = received;
            stats.deduped_facts += lane.worker.absorbed_duplicates();
            stats.recovery.add(&lane.recovery);
            lane.worker
        })
        .collect();
    (workers, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy computation: a "fact" spreads max values; workers emit to every
    /// peer when their local max increases. Converges to the global max
    /// everywhere. `seed` is the worker's durable input: a crash resets
    /// `local_max` to the latest checkpoint (or the seed).
    #[derive(Debug)]
    struct MaxWorker {
        id: WorkerId,
        peers: usize,
        seed: u64,
        local_max: u64,
    }

    impl MaxWorker {
        fn broadcast(&self) -> Vec<(WorkerId, u64)> {
            (0..self.peers).filter(|&w| w != self.id).map(|w| (w, self.local_max)).collect()
        }
    }

    impl Worker for MaxWorker {
        type Msg = u64;
        fn initial(&mut self) -> Vec<(WorkerId, u64)> {
            self.broadcast()
        }
        fn superstep(&mut self, inbox: Vec<u64>) -> Vec<(WorkerId, u64)> {
            let incoming = inbox.into_iter().max().unwrap_or(0);
            if incoming > self.local_max {
                self.local_max = incoming;
                self.broadcast()
            } else {
                Vec::new()
            }
        }
        fn snapshot(&mut self) -> Option<u64> {
            Some(self.local_max)
        }
        fn restore(&mut self, checkpoint: Option<&u64>) -> Vec<(WorkerId, u64)> {
            self.local_max = checkpoint.copied().unwrap_or(self.seed);
            self.broadcast()
        }
    }

    fn fleet(maxes: &[u64]) -> Vec<MaxWorker> {
        let n = maxes.len();
        maxes
            .iter()
            .enumerate()
            .map(|(id, &m)| MaxWorker { id, peers: n, seed: m, local_max: m })
            .collect()
    }

    fn run(mode: ExecutionMode) -> (Vec<MaxWorker>, BspStats) {
        run_bsp(fleet(&[3, 17, 5, 11]), mode, &CostModel::default())
    }

    fn run_faulty(mode: ExecutionMode, cfg: &FaultConfig) -> (Vec<MaxWorker>, BspStats) {
        run_bsp_with(fleet(&[3, 17, 5, 11]), mode, &CostModel::default(), cfg)
            .expect("run should not abort")
    }

    const MODES: [ExecutionMode; 2] = [ExecutionMode::Simulated, ExecutionMode::Threaded];

    #[test]
    fn simulated_converges_to_global_max() {
        let (workers, stats) = run(ExecutionMode::Simulated);
        assert!(workers.iter().all(|w| w.local_max == 17));
        assert!(stats.supersteps >= 2);
        assert!(stats.batches > 0);
        assert_eq!(stats.bytes, stats.batches * 8);
        assert_eq!(stats.messages, stats.batches, "scalar messages carry one unit");
        assert_eq!(stats.step_max_secs.len(), stats.supersteps);
        assert_eq!(stats.shard_bytes.iter().sum::<u64>(), stats.bytes);
        assert!(stats.makespan_secs > 0.0);
    }

    #[test]
    fn threaded_converges_to_global_max() {
        let (workers, stats) = run(ExecutionMode::Threaded);
        assert!(workers.iter().all(|w| w.local_max == 17));
        assert!(stats.supersteps >= 2);
        assert_eq!(stats.worker_busy_secs.len(), 4);
        assert_eq!(stats.shard_bytes.iter().sum::<u64>(), stats.bytes);
    }

    #[test]
    fn modes_agree_on_results_and_traffic() {
        let (_, sim) = run(ExecutionMode::Simulated);
        let (_, thr) = run(ExecutionMode::Threaded);
        assert_eq!(sim.batches, thr.batches);
        assert_eq!(sim.messages, thr.messages);
        assert_eq!(sim.bytes, thr.bytes);
        assert_eq!(sim.supersteps, thr.supersteps);
    }

    #[test]
    fn quiescent_from_start_terminates_after_one_step() {
        struct Quiet;
        impl Worker for Quiet {
            type Msg = u64;
            fn initial(&mut self) -> Vec<(WorkerId, u64)> {
                Vec::new()
            }
            fn superstep(&mut self, _: Vec<u64>) -> Vec<(WorkerId, u64)> {
                unreachable!("never reached without messages")
            }
        }
        for mode in MODES {
            let (_, stats) = run_bsp(vec![Quiet, Quiet], mode, &CostModel::default());
            assert_eq!(stats.supersteps, 1, "{mode:?}");
            assert_eq!(stats.batches, 0, "{mode:?}");
        }
    }

    #[test]
    fn self_routes_are_filtered() {
        struct Selfish {
            id: WorkerId,
        }
        impl Worker for Selfish {
            type Msg = u64;
            fn initial(&mut self) -> Vec<(WorkerId, u64)> {
                vec![(self.id, 7)]
            }
            fn superstep(&mut self, inbox: Vec<u64>) -> Vec<(WorkerId, u64)> {
                assert!(inbox.is_empty(), "self-routed messages must not arrive");
                Vec::new()
            }
        }
        for mode in MODES {
            let (_, stats) =
                run_bsp(vec![Selfish { id: 0 }, Selfish { id: 1 }], mode, &CostModel::default());
            assert_eq!(stats.batches, 0, "{mode:?}: self-deliveries never count");
            assert_eq!(stats.supersteps, 1, "{mode:?}");
        }
    }

    #[test]
    fn communication_cost_enters_makespan() {
        let free = CostModel { secs_per_byte: 0.0, barrier_secs: 0.0 };
        let costly = CostModel { secs_per_byte: 1e-3, barrier_secs: 0.0 };
        let (_, a) = run_bsp(fleet(&[3, 17]), ExecutionMode::Simulated, &free);
        let (_, b) = run_bsp(fleet(&[3, 17]), ExecutionMode::Simulated, &costly);
        assert!(b.makespan_secs > a.makespan_secs);
    }

    #[test]
    fn stats_serialize_to_json() {
        let (_, stats) = run(ExecutionMode::Simulated);
        let j = serde_json::to_value(&stats);
        assert_eq!(j["supersteps"], stats.supersteps);
        assert!(!j["shard_bytes"].is_null());
        assert_eq!(j["recovery"]["crashes"], 0u64);
    }

    #[test]
    fn checkpointing_only_run_matches_plain_stats() {
        for mode in MODES {
            let (_, plain) = run(mode);
            let (workers, ckpt) = run_faulty(mode, &FaultConfig::checkpointing());
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(plain.supersteps, ckpt.supersteps, "{mode:?}");
            assert_eq!(plain.batches, ckpt.batches, "{mode:?}");
            assert_eq!(plain.bytes, ckpt.bytes, "{mode:?}");
            assert_eq!(ckpt.recovery.checkpoints, 4 * ckpt.supersteps as u64, "{mode:?}");
            assert_eq!(ckpt.recovery.crashes, 0, "{mode:?}");
        }
    }

    #[test]
    fn crash_recovers_from_checkpoint() {
        for mode in MODES {
            for step in 0..3 {
                let cfg = FaultConfig::with_plan(FaultPlan::crash(1, step));
                let (workers, stats) = run_faulty(mode, &cfg);
                assert!(
                    workers.iter().all(|w| w.local_max == 17),
                    "{mode:?} crash 1@{step}: {:?}",
                    workers.iter().map(|w| w.local_max).collect::<Vec<_>>()
                );
                assert_eq!(stats.recovery.crashes, 1, "{mode:?} crash 1@{step}");
                assert_eq!(stats.recovery.recoveries, 1, "{mode:?} crash 1@{step}");
            }
        }
    }

    #[test]
    fn dropped_delivery_is_retried_and_converges() {
        let plan = FaultPlan::parse("drop 1->0@0").unwrap();
        for mode in MODES {
            let (workers, stats) = run_faulty(mode, &FaultConfig::with_plan(plan.clone()));
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(stats.recovery.dropped_batches, 1, "{mode:?}");
            assert_eq!(stats.recovery.retries, 1, "{mode:?}");
        }
    }

    #[test]
    fn delayed_delivery_keeps_run_alive_until_it_lands() {
        // Regression (quiescence vs in-flight messages): with only two
        // workers and the one useful message delayed 3 steps, nothing is
        // delivered at steps 1 and 2. The old halt rule (delivered == 0)
        // would terminate there and worker 0 would finish with 3 ≠ 17.
        let plan = FaultPlan::parse("delay 1->0@0+3").unwrap();
        for mode in MODES {
            let (workers, stats) = run_bsp_with(
                fleet(&[3, 17]),
                mode,
                &CostModel::default(),
                &FaultConfig::with_plan(plan.clone()),
            )
            .expect("run should not abort");
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert!(stats.supersteps > 3, "{mode:?}: must outlive the delay window");
            assert_eq!(stats.recovery.delayed_batches, 1, "{mode:?}");
        }
    }

    #[test]
    fn duplicate_delivery_counts_twice_and_converges() {
        let plan = FaultPlan::parse("dup 1->0@0").unwrap();
        for mode in MODES {
            let (_, plain) = run(mode);
            let (workers, stats) = run_faulty(mode, &FaultConfig::with_plan(plan.clone()));
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(stats.recovery.duplicated_batches, 1, "{mode:?}");
            assert_eq!(stats.batches, plain.batches + 1, "{mode:?}");
        }
    }

    #[test]
    fn stall_within_timeout_only_slows_the_step() {
        let plan = FaultPlan::parse("stall 1@1=10").unwrap();
        for mode in MODES {
            let (workers, stats) = run_faulty(mode, &FaultConfig::with_plan(plan.clone()));
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(stats.recovery.stalls, 1, "{mode:?}");
            assert_eq!(stats.recovery.recoveries, 0, "{mode:?}: 10ms < 50ms timeout");
            assert!(stats.step_max_secs[1] >= 0.01, "{mode:?}: stall enters busy time");
        }
    }

    #[test]
    fn stall_past_timeout_is_crash_equivalent() {
        let plan = FaultPlan::parse("stall 1@1=200").unwrap();
        for mode in MODES {
            let (workers, stats) = run_faulty(mode, &FaultConfig::with_plan(plan.clone()));
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(stats.recovery.stalls, 1, "{mode:?}");
            assert_eq!(stats.recovery.recoveries, 1, "{mode:?}: 200ms > 50ms timeout");
            assert_eq!(stats.recovery.crashes, 0, "{mode:?}");
        }
    }

    #[test]
    fn exhausted_retries_abort_with_stats() {
        // Backoff schedule for a message first dropped at step 0 with base
        // 1: retries land at steps 1, 3, 7 — drop them all to exhaust the
        // default budget of 3. The run must stay alive between retries
        // (nothing else is in flight) and then abort, not hang.
        let plan = FaultPlan::parse("drop 1->0@0; drop 1->0@1; drop 1->0@3; drop 1->0@7").unwrap();
        for mode in MODES {
            let err = run_bsp_with(
                fleet(&[3, 17]),
                mode,
                &CostModel::default(),
                &FaultConfig::with_plan(plan.clone()),
            )
            .expect_err("retry budget must exhaust");
            assert!(err.reason.contains("retries exhausted"), "{mode:?}: {}", err.reason);
            assert_eq!(err.stats.recovery.dropped_batches, 4, "{mode:?}");
            assert_eq!(err.stats.recovery.retries, 3, "{mode:?}");
        }
    }

    #[test]
    fn fault_state_is_allocated_only_when_needed() {
        let cfgs = [
            FaultConfig::none(),
            FaultConfig::checkpointing(),
            FaultConfig::with_plan(FaultPlan::crash(0, 1)),
        ];
        let [off, ckpt, plan] = cfgs.each_ref().map(|cfg| Exchange::<u64>::new(4, cfg));
        assert!(off.store.is_none() && off.logs.is_empty(), "fault-free: no store, no log");
        assert!(ckpt.store.is_some() && ckpt.logs.is_empty(), "no plan, nothing to replay");
        assert!(plan.store.is_some() && plan.logs.len() == 4, "a plan can fail any worker");
    }
}
