//! The pluggable sink behind all instrumentation: the [`Recorder`] trait,
//! the process-global install point, and the monotonic clock every event is
//! stamped with.
//!
//! The hot-path contract: [`enabled`] is a single relaxed atomic load, and
//! every instrumentation helper checks it *before* touching the clock, any
//! thread-local, or the recorder lock. With no recorder installed, tracing
//! therefore compiles down to "load, branch, return".

use crate::collect::InMemoryCollector;
use crate::span::TrackId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Optional numeric label on a metric — by convention a worker/shard index.
/// `None` is the unlabeled (global) series.
pub type Label = Option<u32>;

/// Which endpoint of a causal flow edge an event marks.
///
/// A flow edge links a *send* point on one track to a *receive* point on
/// another; both endpoints carry the same caller-chosen `id`. In the Chrome
/// trace export [`Begin`](FlowDir::Begin) becomes a `"ph":"s"` event and
/// [`End`](FlowDir::End) a `"ph":"f"` event, which Perfetto renders as an
/// arrow between the slices enclosing the two timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDir {
    /// The sending (source) endpoint.
    Begin,
    /// The receiving (sink) endpoint.
    End,
}

/// A sink for spans, instants and metric updates.
///
/// Implementations must be cheap and non-blocking where possible: they are
/// called from worker hot loops (though only while a recorder is
/// installed). All methods take `&self`; implementations synchronize
/// internally.
pub trait Recorder: Send + Sync {
    /// A closed span: `name` ran on `track` from `start_ns` for `dur_ns`
    /// (monotonic nanoseconds since [`now_ns`]'s epoch), at nesting `depth`
    /// (0 = top level), with an optional numeric argument.
    fn span(
        &self,
        name: &'static str,
        track: TrackId,
        start_ns: u64,
        dur_ns: u64,
        depth: u32,
        arg: Option<(&'static str, u64)>,
    );

    /// An instantaneous event on `track` at `ts_ns`.
    fn instant(&self, name: &'static str, track: TrackId, ts_ns: u64);

    /// Add `value` to counter `name` under `label`.
    fn counter_add(&self, name: &'static str, label: Label, value: u64);

    /// Set gauge `name` under `label` to `value`.
    fn gauge_set(&self, name: &'static str, label: Label, value: f64);

    /// Record `value` into log-bucketed histogram `name` under `label`.
    fn histogram_record(&self, name: &'static str, label: Label, value: u64);

    /// Associate a human-readable name with a track (thread or virtual
    /// worker timeline).
    fn name_track(&self, track: TrackId, name: &str);

    /// One endpoint of a causal flow edge: `dir` says whether `ts_ns` on
    /// `track` is the send ([`FlowDir::Begin`]) or receive
    /// ([`FlowDir::End`]) side; endpoints pair up by `id`. Default is a
    /// no-op so sinks that only aggregate metrics need not care.
    fn flow(&self, name: &'static str, id: u64, track: TrackId, ts_ns: u64, dir: FlowDir) {
        let _ = (name, id, track, ts_ns, dir);
    }

    /// Downcast hook: the installed recorder as an [`InMemoryCollector`],
    /// if that is what it is. Lets `run_dmatch`/`run_update` build a
    /// `RunProfile` from the collected span graph without the caller
    /// threading a concrete collector type through every layer.
    fn as_collector(&self) -> Option<&InMemoryCollector> {
        None
    }
}

/// The recorder that drops everything — the semantic default. Installing it
/// is equivalent to (but marginally slower than) installing nothing, since
/// the enabled flag stays up; it exists for tests and for explicitly
/// silencing a previously installed collector.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn span(
        &self,
        _: &'static str,
        _: TrackId,
        _: u64,
        _: u64,
        _: u32,
        _: Option<(&'static str, u64)>,
    ) {
    }
    fn instant(&self, _: &'static str, _: TrackId, _: u64) {}
    fn counter_add(&self, _: &'static str, _: Label, _: u64) {}
    fn gauge_set(&self, _: &'static str, _: Label, _: f64) {}
    fn histogram_record(&self, _: &'static str, _: Label, _: u64) {}
    fn name_track(&self, _: TrackId, _: &str) {}
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Whether a recorder is currently installed. One relaxed atomic load —
/// the gate every instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `recorder` as the process-global sink, replacing any previous
/// one. Instrumentation becomes live immediately on all threads.
pub fn install(recorder: Arc<dyn Recorder>) {
    *RECORDER.write().expect("recorder lock poisoned") = Some(recorder);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Remove the global recorder (instrumentation goes back to free) and
/// return it, so callers can export what it collected.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::SeqCst);
    RECORDER.write().expect("recorder lock poisoned").take()
}

/// Run `f` against the installed recorder, if any. Callers gate on
/// [`enabled`] first so the lock is only touched while tracing is live.
#[inline]
pub(crate) fn with(f: impl FnOnce(&dyn Recorder)) {
    if let Some(r) = RECORDER.read().expect("recorder lock poisoned").as_ref() {
        f(&**r);
    }
}

/// Run `f` against the installed recorder *if* it is an
/// [`InMemoryCollector`] (via [`Recorder::as_collector`]); `None` when
/// tracing is off or a different sink is installed. This is how the
/// pipeline attaches a `RunProfile` to its report without knowing at the
/// call site which recorder the host process installed.
pub fn with_collector<T>(f: impl FnOnce(&InMemoryCollector) -> T) -> Option<T> {
    if !enabled() {
        return None;
    }
    let guard = RECORDER.read().expect("recorder lock poisoned");
    guard.as_ref().and_then(|r| r.as_collector()).map(f)
}

/// Monotonic nanoseconds since the first observation in this process.
/// All spans and instants share this epoch, so timestamps from different
/// threads interleave correctly in the exported trace.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn noop_recorder_accepts_everything() {
        let r = NoopRecorder;
        r.span("s", TrackId(1), 0, 10, 0, Some(("k", 1)));
        r.instant("i", TrackId(1), 0);
        r.counter_add("c", None, 1);
        r.gauge_set("g", Some(3), 1.5);
        r.histogram_record("h", None, 7);
        r.name_track(TrackId(1), "t");
        r.flow("f", 42, TrackId(1), 0, FlowDir::Begin);
        r.flow("f", 42, TrackId(1), 5, FlowDir::End);
        assert!(r.as_collector().is_none());
    }
}
