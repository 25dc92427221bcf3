//! Causal profiling over the collected span graph: phase attribution,
//! critical-path extraction, and the per-run [`RunProfile`] summary.
//!
//! The paper's evaluation attributes runtime to phases (partition,
//! `Deduce`, exchange, `IncDeduce`); this module turns the raw span/flow
//! stream an [`InMemoryCollector`] captures into the same attribution for
//! one of our runs, plus the thing a flat trace cannot show: **where the
//! wall-clock seconds actually went** when eight workers run in parallel.
//!
//! Three analyses, all derived from the same flattened interval set:
//!
//! 1. **Makespan decomposition** — every nanosecond between the first and
//!    last recorded span is charged to exactly one [`Phase`] bucket.
//!    Tracks overlap, so an instant where worker 3 deduces while worker 5
//!    sits in `bsp.barrier_wait` must pick one: the *highest-priority
//!    active phase* wins (compute beats communication beats waiting), so
//!    barrier-wait time is charged only when nothing productive runs
//!    anywhere — the true synchronization cost, not the per-worker sum.
//!    Buckets therefore sum to the span extent exactly.
//! 2. **Critical path** — the longest weighted path through the interval
//!    DAG whose edges are program order within a track plus the causal
//!    flow edges ([`crate::flow_begin`]/[`crate::flow_end`]) the executors
//!    emit at message handoffs. Its length is the lower bound on the
//!    run's makespan under infinite parallelism; the phases along it are
//!    what a scheduler would have to shorten.
//! 3. **Worker/superstep summaries** — per-worker busy/wait/utilization
//!    and the per-superstep straggler index (max busy ÷ mean busy across
//!    workers), the skew statistic Kirsten et al. identify as dominant in
//!    partition-parallel entity matching.
//!
//! ## Interval flattening
//!
//! Spans nest (`exchange` contains `bsp.barrier_wait`), so attribution
//! first flattens each track into non-overlapping intervals: at every
//! instant the **innermost** phase-mapped span wins. A 20 µs `exchange`
//! with a 10 µs nested barrier wait becomes 10 µs of exchange + 10 µs of
//! barrier-wait — nothing double-counted.
//!
//! ## Flow-edge binding
//!
//! A flow endpoint is a timestamp on a track, not a span reference. The
//! begin endpoint binds to the interval containing its timestamp, else
//! the nearest *preceding* interval (a send attributed to work already
//! done); the end endpoint binds to the containing interval, else the
//! nearest *following* one (a receive enables work not yet started).
//! Edges that would point backwards in the global start-time order are
//! dropped, which keeps the graph a DAG by construction.

use crate::collect::{FlowEvent, InMemoryCollector, SpanEvent};
use crate::export::{json_f64, json_string, sep};
use crate::recorder::FlowDir;
use crate::span::TrackId;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The execution phases runtime is attributed to — the paper's four
/// evaluation phases plus the overheads that only exist in a parallel
/// deployment (index build, barrier waits, fragment assembly, recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// HyPart distribution: rule-grid scans, class merges, LPT assignment.
    Partition,
    /// Chase engine index construction (fleet build, `IndexSet` builds).
    IndexBuild,
    /// `Deduce` / `IncDeduce` superstep compute, including chase rounds.
    Deduce,
    /// BSP message routing, serialization and deposit.
    Exchange,
    /// Time blocked at a superstep barrier (or its simulated equivalent).
    BarrierWait,
    /// Per-worker fragment construction from assigned cells.
    Assemble,
    /// Checkpoint restore and exchange-log replay after injected faults.
    Recovery,
    /// Work-stealing pool idle time: a worker parked while a batch was
    /// still in flight on other lanes (`pool.park`). Charged only when no
    /// other phase runs anywhere, so it surfaces genuine scheduler idle
    /// gaps instead of being lumped into barrier-wait or `Other`.
    Scheduler,
    /// Time inside the profiled extent not covered by any phase span.
    Other,
}

/// Every phase, in JSON/display order.
pub const PHASES: [Phase; 9] = [
    Phase::Partition,
    Phase::IndexBuild,
    Phase::Deduce,
    Phase::Exchange,
    Phase::BarrierWait,
    Phase::Assemble,
    Phase::Recovery,
    Phase::Scheduler,
    Phase::Other,
];

impl Phase {
    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Partition => "partition",
            Phase::IndexBuild => "index_build",
            Phase::Deduce => "deduce",
            Phase::Exchange => "exchange",
            Phase::BarrierWait => "barrier_wait",
            Phase::Assemble => "assemble",
            Phase::Recovery => "recovery",
            Phase::Scheduler => "scheduler",
            Phase::Other => "other",
        }
    }

    /// The phase a span name belongs to, or `None` for spans that are not
    /// phase work (session wrappers, bookkeeping).
    pub fn of_span(name: &str) -> Option<Phase> {
        Some(match name {
            "partition" | "hypart.assign" => Phase::Partition,
            n if n.starts_with("hypart.distribute") || n.starts_with("hypart.merge") => {
                Phase::Partition
            }
            "pipeline.build_fleet" | "chase.index_build" => Phase::IndexBuild,
            "deduce" | "incdeduce" | "update.fixpoint" => Phase::Deduce,
            n if n.starts_with("chase.") => Phase::Deduce,
            "exchange" => Phase::Exchange,
            "bsp.barrier_wait" => Phase::BarrierWait,
            "hypart.fragment" => Phase::Assemble,
            n if n.starts_with("bsp.recovery") => Phase::Recovery,
            "pool.park" => Phase::Scheduler,
            _ => return None,
        })
    }

    /// Priority for the makespan decomposition sweep: when several tracks
    /// are active at once the highest-priority phase is charged. Compute
    /// beats setup beats communication beats waiting, so `BarrierWait` is
    /// only charged when every active track is blocked.
    fn priority(self) -> u8 {
        match self {
            Phase::Deduce => 9,
            Phase::IndexBuild => 8,
            Phase::Partition => 7,
            Phase::Assemble => 6,
            Phase::Recovery => 5,
            Phase::Exchange => 4,
            Phase::BarrierWait => 3,
            Phase::Scheduler => 2,
            Phase::Other => 1,
        }
    }
}

/// One flattened, non-overlapping slice of phase work on a track; the
/// nodes of the critical-path DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathNode {
    /// Name of the (innermost) span this slice came from.
    pub name: &'static str,
    /// The track it ran on.
    pub track: TrackId,
    /// Its phase.
    pub phase: Phase,
    /// Slice start, nanoseconds in the trace epoch.
    pub start_ns: u64,
    /// Slice duration in nanoseconds.
    pub dur_ns: u64,
    /// The source span's argument (superstep, shard…), if any.
    pub arg: Option<(&'static str, u64)>,
}

/// The longest weighted path through the span graph: program-order edges
/// within each track plus causal flow edges across tracks, weighted by
/// interval duration.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Path nodes in execution order.
    pub nodes: Vec<PathNode>,
    /// Total time on the path (sum of node durations).
    pub total_ns: u64,
    /// Path time per phase.
    pub phase_ns: BTreeMap<Phase, u64>,
}

impl CriticalPath {
    /// Extract the critical path from a span/flow capture.
    pub fn extract(spans: &[SpanEvent], flows: &[FlowEvent]) -> CriticalPath {
        let intervals = flatten(spans);
        Self::from_intervals(&intervals, flows)
    }

    fn from_intervals(intervals: &[PathNode], flows: &[FlowEvent]) -> CriticalPath {
        if intervals.is_empty() {
            return CriticalPath::default();
        }
        // Global topological order: start time, then end, then track.
        let mut order: Vec<usize> = (0..intervals.len()).collect();
        order.sort_unstable_by_key(|&i| {
            let iv = &intervals[i];
            (iv.start_ns, iv.start_ns + iv.dur_ns, iv.track.0)
        });
        let mut rank = vec![0usize; intervals.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }

        // Incoming edge lists, indexed by rank.
        let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); intervals.len()];
        // Program order: consecutive intervals on the same track.
        let mut by_track: BTreeMap<TrackId, Vec<usize>> = BTreeMap::new();
        for &i in &order {
            by_track.entry(intervals[i].track).or_default().push(i);
        }
        for track in by_track.values() {
            for pair in track.windows(2) {
                incoming[rank[pair[1]]].push(rank[pair[0]]);
            }
        }
        // Flow edges: pair each end with the first begin sharing its id,
        // bind both endpoints to intervals, keep forward edges only.
        let mut begins: BTreeMap<u64, &FlowEvent> = BTreeMap::new();
        for f in flows {
            if f.dir == FlowDir::Begin {
                begins.entry(f.id).or_insert(f);
            }
        }
        for f in flows {
            if f.dir != FlowDir::End {
                continue;
            }
            let Some(b) = begins.get(&f.id) else { continue };
            let (Some(src), Some(dst)) = (
                bind_begin(&by_track, intervals, b.track, b.ts_ns),
                bind_end(&by_track, intervals, f.track, f.ts_ns),
            ) else {
                continue;
            };
            if rank[src] < rank[dst] {
                incoming[rank[dst]].push(rank[src]);
            }
        }

        // Longest path by summed duration over the rank order.
        let mut best = vec![0u64; intervals.len()];
        let mut pred: Vec<Option<usize>> = vec![None; intervals.len()];
        let mut argmax = 0usize;
        for r in 0..order.len() {
            let dur = intervals[order[r]].dur_ns;
            let mut here = 0u64;
            let mut from = None;
            for &p in &incoming[r] {
                if best[p] >= here {
                    here = best[p];
                    from = Some(p);
                }
            }
            best[r] = here + dur;
            pred[r] = from;
            if best[r] > best[argmax] {
                argmax = r;
            }
        }
        let mut chain = Vec::new();
        let mut cursor = Some(argmax);
        while let Some(r) = cursor {
            chain.push(intervals[order[r]].clone());
            cursor = pred[r];
        }
        chain.reverse();
        let total_ns = best[argmax];
        let mut phase_ns: BTreeMap<Phase, u64> = BTreeMap::new();
        for node in &chain {
            *phase_ns.entry(node.phase).or_insert(0) += node.dur_ns;
        }
        CriticalPath { nodes: chain, total_ns, phase_ns }
    }
}

/// Begin endpoints bind to the interval containing `ts` on `track`, else
/// the nearest preceding one.
fn bind_begin(
    by_track: &BTreeMap<TrackId, Vec<usize>>,
    intervals: &[PathNode],
    track: TrackId,
    ts: u64,
) -> Option<usize> {
    let list = by_track.get(&track)?;
    // Last interval starting at or before ts; lists are start-sorted.
    let pos = list.partition_point(|&i| intervals[i].start_ns <= ts);
    if pos == 0 {
        return None;
    }
    Some(list[pos - 1])
}

/// End endpoints bind to the interval containing `ts` on `track`, else
/// the nearest following one.
fn bind_end(
    by_track: &BTreeMap<TrackId, Vec<usize>>,
    intervals: &[PathNode],
    track: TrackId,
    ts: u64,
) -> Option<usize> {
    let list = by_track.get(&track)?;
    let pos = list.partition_point(|&i| intervals[i].start_ns <= ts);
    if pos > 0 {
        let i = list[pos - 1];
        if intervals[i].start_ns + intervals[i].dur_ns > ts {
            return Some(i); // containing
        }
    }
    list.get(pos).copied() // nearest following
}

/// Flatten all phase-mapped spans into per-track non-overlapping
/// intervals: at every instant the innermost (deepest, latest-opened)
/// span wins, so nested spans split their parents rather than
/// double-count.
fn flatten(spans: &[SpanEvent]) -> Vec<PathNode> {
    let mut by_track: BTreeMap<TrackId, Vec<(usize, Phase)>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.track == TrackId::UNTRACKED || s.dur_ns == 0 {
            continue;
        }
        if let Some(phase) = Phase::of_span(s.name) {
            by_track.entry(s.track).or_default().push((i, phase));
        }
    }
    let mut out = Vec::new();
    for tagged in by_track.values() {
        // Boundary sweep: (ts, is_start, local index). Ends sort before
        // starts at the same timestamp so back-to-back spans don't overlap.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(tagged.len() * 2);
        for (j, &(i, _)) in tagged.iter().enumerate() {
            let s = &spans[i];
            events.push((s.start_ns, true, j));
            events.push((s.start_ns + s.dur_ns, false, j));
        }
        events.sort_unstable_by_key(|&(ts, is_start, _)| (ts, is_start));
        let mut active: Vec<usize> = Vec::new();
        let mut prev_ts = 0u64;
        let first_out = out.len();
        for &(ts, is_start, j) in &events {
            if !active.is_empty() && ts > prev_ts {
                // Innermost wins: max depth, then latest start.
                let &w = active
                    .iter()
                    .max_by_key(|&&k| {
                        let s = &spans[tagged[k].0];
                        (s.depth, s.start_ns)
                    })
                    .expect("active is non-empty");
                let (i, phase) = tagged[w];
                let s = &spans[i];
                // Extend the previous slice when the same span still wins.
                let mergeable = out.len() > first_out
                    && out.last().is_some_and(|last: &PathNode| {
                        last.name == s.name
                            && last.track == s.track
                            && last.start_ns + last.dur_ns == prev_ts
                            && last.arg == s.arg
                            && last.phase == phase
                    });
                if mergeable {
                    out.last_mut().expect("checked above").dur_ns += ts - prev_ts;
                } else {
                    out.push(PathNode {
                        name: s.name,
                        track: s.track,
                        phase,
                        start_ns: prev_ts,
                        dur_ns: ts - prev_ts,
                        arg: s.arg,
                    });
                }
            }
            if is_start {
                active.push(j);
            } else if let Some(pos) = active.iter().position(|&k| k == j) {
                active.swap_remove(pos);
            }
            prev_ts = ts;
        }
    }
    out
}

/// Charge every nanosecond of `[extent_start, extent_end)` to one phase:
/// at each instant the highest-priority phase active on any track wins;
/// instants covered by no interval go to [`Phase::Other`]. Buckets sum to
/// the extent exactly.
fn decompose(intervals: &[PathNode], extent_start: u64, extent_end: u64) -> BTreeMap<Phase, u64> {
    let mut buckets: BTreeMap<Phase, u64> = PHASES.iter().map(|&p| (p, 0)).collect();
    if extent_end <= extent_start {
        return buckets;
    }
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(intervals.len() * 2);
    for (i, iv) in intervals.iter().enumerate() {
        let s = iv.start_ns.clamp(extent_start, extent_end);
        let e = (iv.start_ns + iv.dur_ns).clamp(extent_start, extent_end);
        if e > s {
            events.push((s, true, i));
            events.push((e, false, i));
        }
    }
    events.sort_unstable_by_key(|&(ts, is_start, _)| (ts, is_start));
    let mut active: Vec<usize> = Vec::new();
    let mut prev_ts = extent_start;
    for &(ts, is_start, i) in &events {
        if ts > prev_ts {
            let phase = active
                .iter()
                .map(|&k| intervals[k].phase)
                .max_by_key(|p| p.priority())
                .unwrap_or(Phase::Other);
            *buckets.get_mut(&phase).expect("all phases pre-seeded") += ts - prev_ts;
            prev_ts = ts;
        }
        if is_start {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&k| k == i) {
            active.swap_remove(pos);
        }
    }
    if extent_end > prev_ts {
        *buckets.get_mut(&Phase::Other).expect("pre-seeded") += extent_end - prev_ts;
    }
    buckets
}

/// Per-worker busy/wait summary (tracks named `worker-*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerProfile {
    /// The track name (`worker-3`).
    pub name: String,
    /// Nanoseconds in non-wait phase intervals on this track.
    pub busy_ns: u64,
    /// Nanoseconds in `bsp.barrier_wait` intervals on this track.
    pub wait_ns: u64,
}

impl WorkerProfile {
    /// busy ÷ (busy + wait), or 1.0 for an empty track.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.wait_ns;
        if total == 0 {
            1.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// Per-superstep straggler summary from `deduce`/`incdeduce` spans
/// carrying a `("step", n)` argument.
#[derive(Debug, Clone, PartialEq)]
pub struct StepProfile {
    /// Superstep number.
    pub step: u64,
    /// Longest per-worker compute time this step.
    pub max_busy_ns: u64,
    /// Mean per-worker compute time this step.
    pub mean_busy_ns: u64,
}

impl StepProfile {
    /// max ÷ mean busy time: 1.0 is perfectly balanced, higher means one
    /// straggler held the barrier.
    pub fn straggler_index(&self) -> f64 {
        if self.mean_busy_ns == 0 {
            1.0
        } else {
            self.max_busy_ns as f64 / self.mean_busy_ns as f64
        }
    }
}

/// The serializable causal profile of one run: makespan decomposition,
/// per-worker utilization, per-superstep straggler indices, and the
/// critical path. Built by `run_dmatch`/`run_update` when an
/// [`InMemoryCollector`] is installed; serialized with
/// [`to_json`](Self::to_json) (hand-rolled — this crate stays
/// dependency-free).
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Wall time the caller measured around the profiled region.
    pub wall_ns: u64,
    /// First span start → last span end over *all* recorded spans.
    pub extent_ns: u64,
    /// Makespan decomposition; sums to `extent_ns` exactly.
    pub phase_ns: BTreeMap<Phase, u64>,
    /// Per-worker busy/wait, sorted by track name.
    pub workers: Vec<WorkerProfile>,
    /// Per-superstep straggler summary, sorted by step.
    pub steps: Vec<StepProfile>,
    /// The longest causal path through the run.
    pub critical_path: CriticalPath,
}

impl RunProfile {
    /// Build a profile from everything `collector` has captured so far,
    /// with `wall_ns` the caller's own wall-clock measurement of the run
    /// (the 5% decomposition check compares the two).
    pub fn build(collector: &InMemoryCollector, wall_ns: u64) -> RunProfile {
        let spans = collector.spans();
        let flows = collector.flows();
        let track_names = collector.track_names();
        Self::from_events(&spans, &flows, &track_names, wall_ns)
    }

    /// [`build`](Self::build) from already-extracted event buffers.
    pub fn from_events(
        spans: &[SpanEvent],
        flows: &[FlowEvent],
        track_names: &BTreeMap<TrackId, String>,
        wall_ns: u64,
    ) -> RunProfile {
        let intervals = flatten(spans);
        let extent_start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let extent_end = spans.iter().map(|s| s.start_ns + s.dur_ns).max().unwrap_or(0);
        let phase_ns = decompose(&intervals, extent_start, extent_end);
        let critical_path = CriticalPath::from_intervals(&intervals, flows);

        let mut workers: Vec<WorkerProfile> = Vec::new();
        for (&track, name) in track_names {
            if !name.starts_with("worker-") {
                continue;
            }
            let mut busy = 0u64;
            let mut wait = 0u64;
            for iv in intervals.iter().filter(|iv| iv.track == track) {
                if iv.phase == Phase::BarrierWait {
                    wait += iv.dur_ns;
                } else {
                    busy += iv.dur_ns;
                }
            }
            workers.push(WorkerProfile { name: name.clone(), busy_ns: busy, wait_ns: wait });
        }
        workers.sort_by_key(|a| worker_sort_key(&a.name));

        // Straggler index per superstep, from the raw (unflattened)
        // compute spans so nested chase spans don't fragment the busy time.
        let mut per_step: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for s in spans {
            if matches!(s.name, "deduce" | "incdeduce") {
                if let Some(("step", n)) = s.arg {
                    per_step.entry(n).or_default().push(s.dur_ns);
                }
            }
        }
        let steps = per_step
            .into_iter()
            .map(|(step, durs)| StepProfile {
                step,
                max_busy_ns: durs.iter().copied().max().unwrap_or(0),
                mean_busy_ns: durs.iter().sum::<u64>() / durs.len() as u64,
            })
            .collect();

        RunProfile {
            wall_ns,
            extent_ns: extent_end.saturating_sub(extent_start),
            phase_ns,
            workers,
            steps,
            critical_path,
        }
    }

    /// Sum of all decomposition buckets (== `extent_ns` by construction).
    pub fn decomposition_sum_ns(&self) -> u64 {
        self.phase_ns.values().sum()
    }

    /// Fraction of the span extent the critical path explains.
    pub fn critical_coverage(&self) -> f64 {
        if self.extent_ns == 0 {
            0.0
        } else {
            self.critical_path.total_ns as f64 / self.extent_ns as f64
        }
    }

    /// Serialize as a self-describing JSON object (seconds as floats).
    pub fn to_json(&self) -> String {
        let secs = |ns: u64| json_f64(ns as f64 / 1e9);
        let mut out = String::with_capacity(2048);
        let _ = write!(
            out,
            "{{\"wall_secs\":{},\"span_extent_secs\":{},\"decomposition_sum_secs\":{},",
            secs(self.wall_ns),
            secs(self.extent_ns),
            secs(self.decomposition_sum_ns())
        );
        out.push_str("\"phases\":{");
        let mut first = true;
        for phase in PHASES {
            sep(&mut out, &mut first);
            let ns = self.phase_ns.get(&phase).copied().unwrap_or(0);
            let _ = write!(out, "{}:{}", json_string(phase.name()), secs(ns));
        }
        out.push_str("},\"workers\":[");
        let mut first = true;
        for w in &self.workers {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":{},\"busy_secs\":{},\"wait_secs\":{},\"utilization\":{}}}",
                json_string(&w.name),
                secs(w.busy_ns),
                secs(w.wait_ns),
                json_f64(w.utilization())
            );
        }
        out.push_str("],\"supersteps\":[");
        let mut first = true;
        for s in &self.steps {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"step\":{},\"max_busy_secs\":{},\"mean_busy_secs\":{},\"straggler_index\":{}}}",
                s.step,
                secs(s.max_busy_ns),
                secs(s.mean_busy_ns),
                json_f64(s.straggler_index())
            );
        }
        let _ = write!(
            out,
            "],\"critical_path\":{{\"total_secs\":{},\"coverage\":{},\"phases\":{{",
            secs(self.critical_path.total_ns),
            json_f64(self.critical_coverage())
        );
        let mut first = true;
        for phase in PHASES {
            sep(&mut out, &mut first);
            let ns = self.critical_path.phase_ns.get(&phase).copied().unwrap_or(0);
            let _ = write!(out, "{}:{}", json_string(phase.name()), secs(ns));
        }
        out.push_str("},\"spans\":[");
        let mut first = true;
        for node in &self.critical_path.nodes {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":{},\"track\":{},\"phase\":{},\"start_secs\":{},\"dur_secs\":{}",
                json_string(node.name),
                node.track.0,
                json_string(node.phase.name()),
                secs(node.start_ns),
                secs(node.dur_ns)
            );
            if let Some((key, value)) = node.arg {
                let _ = write!(out, ",{}:{}", json_string(key), value);
            }
            out.push('}');
        }
        out.push_str("]}}");
        out
    }
}

/// `worker-10` must sort after `worker-2`: split into (prefix, number).
fn worker_sort_key(name: &str) -> (String, u64) {
    match name.rsplit_once('-') {
        Some((prefix, digits)) => match digits.parse::<u64>() {
            Ok(n) => (prefix.to_string(), n),
            Err(_) => (name.to_string(), 0),
        },
        None => (name.to_string(), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        track: u64,
        start: u64,
        dur: u64,
        depth: u32,
        arg: Option<(&'static str, u64)>,
    ) -> SpanEvent {
        SpanEvent { name, track: TrackId(track), start_ns: start, dur_ns: dur, depth, arg }
    }

    fn flow(name: &'static str, id: u64, track: u64, ts: u64, dir: FlowDir) -> FlowEvent {
        FlowEvent { name, id, track: TrackId(track), ts_ns: ts, dir }
    }

    /// The hand-built graph from the satellite spec: two worker tracks, a
    /// nested barrier wait splitting each exchange, and one cross-track
    /// flow edge whose begin timestamp falls *inside* worker-0's barrier
    /// wait.
    ///
    /// ```text
    /// w0: |------deduce s0 (100)------|ex(10)|bw(10)|
    ///                                           \____flow____
    /// w1: |deduce s0 (40)|ex(5)|bw(15)|              v
    ///                                  |---deduce s1 (80)---|
    /// ```
    fn satellite_graph() -> (Vec<SpanEvent>, Vec<FlowEvent>) {
        let spans = vec![
            span("deduce", 1, 0, 100, 0, Some(("step", 0))),
            span("exchange", 1, 100, 20, 0, Some(("step", 0))),
            span("bsp.barrier_wait", 1, 110, 10, 1, None),
            span("deduce", 2, 0, 40, 0, Some(("step", 0))),
            span("exchange", 2, 40, 20, 0, Some(("step", 0))),
            span("bsp.barrier_wait", 2, 45, 15, 1, None),
            span("deduce", 2, 120, 80, 0, Some(("step", 1))),
        ];
        let flows = vec![
            flow("bsp.send", 7, 1, 115, FlowDir::Begin),
            flow("bsp.send", 7, 2, 125, FlowDir::End),
        ];
        (spans, flows)
    }

    #[test]
    fn critical_path_crosses_flow_edge_and_barrier() {
        let (spans, flows) = satellite_graph();
        let cp = CriticalPath::extract(&spans, &flows);
        // Longest chain: w0 deduce(100) → exchange piece(10) → barrier
        // wait(10) → flow → w1 deduce step 1 (80) = 200. The all-w1 chain
        // is only 40+5+15+80 = 140.
        assert_eq!(cp.total_ns, 200);
        let names: Vec<(&str, u64)> = cp.nodes.iter().map(|n| (n.name, n.track.0)).collect();
        assert_eq!(
            names,
            vec![("deduce", 1), ("exchange", 1), ("bsp.barrier_wait", 1), ("deduce", 2),]
        );
        assert_eq!(cp.phase_ns.get(&Phase::Deduce), Some(&180));
        assert_eq!(cp.phase_ns.get(&Phase::Exchange), Some(&10));
        assert_eq!(cp.phase_ns.get(&Phase::BarrierWait), Some(&10));
    }

    #[test]
    fn flattening_splits_parent_around_nested_span() {
        let (spans, _) = satellite_graph();
        let intervals = flatten(&spans);
        // w0's 20ns exchange is split by the 10ns nested barrier wait:
        // exchange keeps [100,110), barrier owns [110,120).
        let w0: Vec<(&str, u64, u64)> = intervals
            .iter()
            .filter(|iv| iv.track == TrackId(1))
            .map(|iv| (iv.name, iv.start_ns, iv.dur_ns))
            .collect();
        assert_eq!(
            w0,
            vec![("deduce", 0, 100), ("exchange", 100, 10), ("bsp.barrier_wait", 110, 10)]
        );
        let total: u64 = intervals.iter().map(|iv| iv.dur_ns).sum();
        // Nothing double-counted: per-track flattened time equals the
        // per-track top-level span time (120 on w0, 140 on w1).
        assert_eq!(total, 260);
    }

    #[test]
    fn decomposition_charges_barrier_only_when_nothing_runs() {
        let (spans, flows) = satellite_graph();
        let profile = RunProfile::from_events(&spans, &flows, &BTreeMap::new(), 200);
        // Priority sweep over [0,200): deduce shadows w1's exchange and
        // barrier ([40,60) has w0 still deducing); barrier-wait is charged
        // only in [110,120) when both tracks are blocked or idle.
        assert_eq!(profile.extent_ns, 200);
        assert_eq!(profile.decomposition_sum_ns(), 200);
        assert_eq!(profile.phase_ns[&Phase::Deduce], 180);
        assert_eq!(profile.phase_ns[&Phase::Exchange], 10);
        assert_eq!(profile.phase_ns[&Phase::BarrierWait], 10);
        assert_eq!(profile.phase_ns[&Phase::Other], 0);
        // The critical path explains the whole extent here.
        assert!((profile.critical_coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn worker_and_step_summaries() {
        let (spans, flows) = satellite_graph();
        let mut names = BTreeMap::new();
        names.insert(TrackId(1), "worker-0".to_string());
        names.insert(TrackId(2), "worker-1".to_string());
        let profile = RunProfile::from_events(&spans, &flows, &names, 200);
        assert_eq!(profile.workers.len(), 2);
        let w0 = &profile.workers[0];
        assert_eq!((w0.name.as_str(), w0.busy_ns, w0.wait_ns), ("worker-0", 110, 10));
        let w1 = &profile.workers[1];
        assert_eq!((w1.name.as_str(), w1.busy_ns, w1.wait_ns), ("worker-1", 125, 15));
        // Step 0 busy times are 100 and 40 → max 100, mean 70.
        assert_eq!(profile.steps.len(), 2);
        assert_eq!(profile.steps[0].max_busy_ns, 100);
        assert_eq!(profile.steps[0].mean_busy_ns, 70);
        assert!((profile.steps[0].straggler_index() - 100.0 / 70.0).abs() < 1e-9);
        assert_eq!(profile.steps[1].step, 1);
    }

    #[test]
    fn profile_json_is_valid_and_complete() {
        let (spans, flows) = satellite_graph();
        let mut names = BTreeMap::new();
        names.insert(TrackId(1), "worker-0".to_string());
        names.insert(TrackId(2), "worker-1".to_string());
        let profile = RunProfile::from_events(&spans, &flows, &names, 210);
        let json = profile.to_json();
        for key in [
            "\"wall_secs\"",
            "\"span_extent_secs\"",
            "\"decomposition_sum_secs\"",
            "\"phases\"",
            "\"barrier_wait\"",
            "\"workers\"",
            "\"utilization\"",
            "\"supersteps\"",
            "\"straggler_index\"",
            "\"critical_path\"",
            "\"coverage\"",
            "\"spans\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Balanced braces (cheap well-formedness check; names contain no
        // braces here).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn flow_endpoints_bind_to_nearest_intervals() {
        // Begin after the sender's last interval ends → nearest preceding;
        // end before the receiver's first interval starts → nearest
        // following.
        let spans = vec![span("deduce", 1, 0, 50, 0, None), span("deduce", 2, 200, 50, 0, None)];
        let flows = vec![
            flow("bsp.send", 1, 1, 80, FlowDir::Begin),
            flow("bsp.send", 1, 2, 90, FlowDir::End),
        ];
        let cp = CriticalPath::extract(&spans, &flows);
        assert_eq!(cp.total_ns, 100);
        assert_eq!(cp.nodes.len(), 2);
    }

    #[test]
    fn backward_flow_edges_are_dropped() {
        // An end binding to an interval that starts before the begin's
        // interval would break the DAG order; the edge is skipped and each
        // track scores alone.
        let spans = vec![span("deduce", 1, 100, 50, 0, None), span("deduce", 2, 0, 60, 0, None)];
        let flows = vec![
            flow("bsp.send", 1, 1, 120, FlowDir::Begin),
            flow("bsp.send", 1, 2, 30, FlowDir::End),
        ];
        let cp = CriticalPath::extract(&spans, &flows);
        assert_eq!(cp.total_ns, 60);
    }

    #[test]
    fn empty_capture_yields_empty_profile() {
        let profile = RunProfile::from_events(&[], &[], &BTreeMap::new(), 0);
        assert_eq!(profile.extent_ns, 0);
        assert_eq!(profile.decomposition_sum_ns(), 0);
        assert!(profile.critical_path.nodes.is_empty());
        assert!(profile.to_json().contains("\"phases\""));
    }
}
