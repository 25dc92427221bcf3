//! The stream phase: one closed-loop admitter racing one closed-loop reader.
//!
//! Closed loop, because `admit` blocks until its snapshot is published and a
//! lookup is a call: each side issues its next operation when the previous
//! one returns. Two generator threads, which is this box's core count.

use crate::stream::{Batch, Replay};
use dcer_core::ResidentResolver;
use dcer_relation::{Tid, UpdateBatch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Threads that generate load: the admitter and the reader.
pub const GENERATOR_THREADS: usize = 2;

/// One lookup in this many is timed on its own; one multi-member hit in this
/// many is followed by a timed `explain`.
const SAMPLE_EVERY: u64 = 64;

/// The reader's seed is fixed: every run probes the same positions. Each
/// stream of a run adds its own number to it.
const READER_SEED: u64 = 0x1007_0b5e_77ed;

#[derive(Default)]
pub struct ReaderOutcome {
    pub lookups: u64,
    /// Lookups that broke epoch monotonicity or whose hit lacked the tid.
    pub failed: u64,
    /// Lookups that found no cluster: singletons and deleted tuples.
    pub misses: u64,
    pub epochs_seen: u64,
    pub lookup_ns: Vec<f64>,
    pub explain_ns: Vec<f64>,
    pub explain_steps: u64,
    pub explain_failed: u64,
}

/// One lookup is `snapshot()` + `cluster_of` + `members`.
fn read_loop(
    resolver: &ResidentResolver,
    probe: &[Tid],
    seed: u64,
    stop: &AtomicBool,
) -> ReaderOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = ReaderOutcome { epochs_seen: 1, ..Default::default() };
    let mut last_epoch = resolver.snapshot().epoch();
    let mut multi_hits = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let tid = probe[rng.random_range(0..probe.len())];
        let clock = out.lookups.is_multiple_of(SAMPLE_EVERY).then(Instant::now);
        let snap = resolver.snapshot();
        let members = snap.cluster_of(tid).map(|c| snap.members(c));
        black_box(&members);
        if let Some(clock) = clock {
            out.lookup_ns.push(clock.elapsed().as_nanos() as f64);
        }
        out.lookups += 1;

        match snap.epoch().cmp(&last_epoch) {
            std::cmp::Ordering::Less => out.failed += 1,
            std::cmp::Ordering::Greater => {
                out.epochs_seen += 1;
                last_epoch = snap.epoch();
            }
            std::cmp::Ordering::Equal => {}
        }
        let Some(members) = members else {
            out.misses += 1;
            continue;
        };
        if members.binary_search(&tid).is_err() {
            out.failed += 1;
        }
        if members.len() >= 2 {
            multi_hits += 1;
            if multi_hits.is_multiple_of(SAMPLE_EVERY) {
                let (a, b) = (members[0], members[members.len() - 1]);
                let clock = Instant::now();
                let steps = snap.explain(a, b);
                out.explain_ns.push(clock.elapsed().as_nanos() as f64);
                match steps {
                    Some(steps) => out.explain_steps += steps.len() as u64,
                    None => out.explain_failed += 1,
                }
            }
        }
    }
    out
}

/// What one applied batch changed, whichever entry point applied it.
pub struct Applied {
    pub inserted: Vec<Tid>,
    pub retracted: usize,
    pub deduced: usize,
    pub over_deleted: u64,
    pub notice_rounds: u32,
    pub repartitioned: bool,
}

#[derive(Default)]
pub struct StreamOutcome {
    /// Wall of each apply in milliseconds; for `admit`, submit to published
    /// snapshot.
    pub apply_ms: Vec<f64>,
    /// Inserts plus deletes applied.
    pub ops: usize,
    /// Batches rejected, or whose assigned identities differ from the shadow's.
    pub failed: usize,
    pub retracted: usize,
    pub deduced: usize,
    pub over_deleted: u64,
    pub notice_rounds: u64,
    pub repartitions: usize,
    /// First batch submitted to last batch applied.
    pub window_secs: f64,
    pub reader: ReaderOutcome,
}

/// How long a stream runs: until `budget` has passed and `min_batches` are
/// in, but never beyond `max_batches`.
pub struct StreamLength {
    pub budget: Duration,
    pub min_batches: usize,
    pub max_batches: usize,
}

impl StreamLength {
    pub fn exactly(batches: usize) -> StreamLength {
        StreamLength { budget: Duration::ZERO, min_batches: batches, max_batches: batches }
    }
}

/// Feed batches to `apply`, while the
/// reader looks up `probe` tids on `resolver`. `stream_no` tells the streams
/// of one run apart, so that each reader probes its own positions.
pub fn run_stream(
    resolver: &ResidentResolver,
    replay: &mut Replay,
    batch: Batch,
    length: StreamLength,
    (probe, stream_no): (&[Tid], u64),
    mut apply: impl FnMut(UpdateBatch) -> Result<Applied, String>,
) -> StreamOutcome {
    let stop = AtomicBool::new(false);
    let mut out = StreamOutcome::default();
    std::thread::scope(|scope| {
        let reader = std::thread::Builder::new()
            .name("e2e-reader".into())
            .spawn_scoped(scope, || read_loop(resolver, probe, READER_SEED + stream_no, &stop))
            .expect("spawn reader");
        let window = Instant::now();
        while (window.elapsed() < length.budget || out.apply_ms.len() < length.min_batches)
            && out.apply_ms.len() < length.max_batches
        {
            let (batch, expected) = replay.next_batch(batch);
            let ops = batch.inserts.len() + batch.deletes.len();
            let clock = Instant::now();
            let applied = apply(batch);
            out.apply_ms.push(clock.elapsed().as_secs_f64() * 1e3);
            match applied {
                Ok(applied) => {
                    out.ops += ops;
                    out.retracted += applied.retracted;
                    out.deduced += applied.deduced;
                    out.over_deleted += applied.over_deleted;
                    out.notice_rounds += u64::from(applied.notice_rounds);
                    out.repartitions += usize::from(applied.repartitioned);
                    out.failed += usize::from(applied.inserted != expected);
                }
                Err(_) => {
                    // A rejected batch stops the writer; nothing more can land.
                    out.failed += 1;
                    break;
                }
            }
        }
        out.window_secs = window.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        out.reader = reader.join().expect("reader does not panic");
    });
    out
}
