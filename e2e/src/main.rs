//! The end-to-end benchmark of `BENCHMARK.json`.
//!
//! One run is one workload in one process: set up (generate, dump CSV, build
//! the session, boot the resident resolver), then rounds of one cold resolve
//! from the CSV files and a few admitted CDC batches beside a reader that
//! looks tuples up, and finally a check of every output. `--trace 0` prints
//! the end-to-end metrics, measured with tracing off. `--trace 1` repeats the
//! work stage by stage with spans on and prints the per-layer metrics. See
//! `README.md`.

mod cold;
mod data;
mod layers;
mod serve;
mod stats;
mod stream;

use cold::{cold_rep, dmatch_config, staged_rep, Staged, STAGES};
use data::{dump_csv, Spec, WORKLOADS};
use dcer_core::{DcerSession, ResidentResolver};
use dcer_obs::{InMemoryCollector, Phase};
use dcer_relation::{Dataset, Tid, UpdateBatch};
use serde_json::{Map, Value};
use serve::{run_stream, Applied, StreamLength, StreamOutcome, GENERATOR_THREADS};
use stats::{mean, proc_status_mib, quantile, sorted, summarize, tail, Summary};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::{Batch, HoldOut, Replay};

/// Set-ups at the start of a run, and again at its end: `setup_s` is taken
/// over both, so that one noisy spell cannot cover them all.
const SETUP_REPS: usize = 2;
/// Share of `--seconds` the traced run gives its cold rounds; the two
/// streams get the rest.
const COLD_SHARE: f64 = 0.4;
/// The stream may move `|D|` by at most this share of the initial load.
const MAX_DRIFT: f64 = 0.01;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Divide every dataset size by this (`run.sh --quick` passes 8).
    shrink: f64,
    /// Append the full result to this JSON Lines file, one line per run.
    set: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--shrink <k>] [--set <file.jsonl>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut shrink, mut set) = (1u64, 28.0, false, 1.0, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--shrink" => shrink = value.parse().map_err(|_| bad("a number"))?,
            "--set" => set = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = *WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    if !(seconds > 0.0 && shrink >= 1.0) {
        return Err("--seconds must be positive and --shrink at least 1".into());
    }
    Ok(Args { spec, seed, seconds, trace, shrink, set })
}

/// Counts every correctness check: `failed / attempted` is the workload's
/// failed-operation share, and any failure makes the run incorrect.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn check(&mut self, ok: bool, what: &str) {
        self.count(1, u64::from(!ok), what);
    }

    fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED {failed} of {attempted}: {what}");
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Median, quartiles and count, where the value is taken over samples.
    spread: Option<Summary>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value, spread: None });
    }

    fn add_median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let s = summarize(samples);
        self.metrics.push(Metric { name, unit, value: s.median, spread: Some(s) });
    }

    /// The better quartile of `samples`: the first of a cost, the third of a
    /// rate. A neighbour on this host slows memory-bound work to a half or a
    /// third for ten to twenty-five seconds at a time (see `README.md`), long
    /// enough to cover most of a run's samples and drag their median along.
    /// The quartile on the quiet side holds until three quarters are hit.
    fn add_quiet(&mut self, name: &'static str, unit: &'static str, samples: &[f64], rate: bool) {
        if samples.is_empty() {
            return self.add(name, unit, 0.0); // the gate has counted why
        }
        let s = summarize(samples);
        let value = if rate { s.q3 } else { s.q1 };
        self.metrics.push(Metric { name, unit, value, spread: Some(s) });
    }
}

/// Everything a run builds before its first timed operation.
struct SetUp {
    hold: HoldOut,
    session: DcerSession,
    resolver: ResidentResolver,
    csv_bytes: u64,
    session_build_ns: f64,
}

fn set_up(spec: &Spec, shrink: f64, dir: &Path) -> Result<SetUp, String> {
    let hold = spec.generate(shrink);
    let csv_bytes = dump_csv(&hold.initial, dir).map_err(|e| format!("CSV dump: {e}"))?;
    let clock = Instant::now();
    let session = spec.session();
    let session_build_ns = clock.elapsed().as_nanos() as f64;
    let resolver = session.resident(&hold.initial, &dmatch_config())?;
    Ok(SetUp { hold, session, resolver, csv_bytes, session_build_ns })
}

/// The tids the reader draws from: the initial rows of the probe relations.
fn probe_tids(spec: &Spec, initial: &Dataset) -> Vec<Tid> {
    spec.probe_rels
        .iter()
        .flat_map(|name| {
            let rel = initial.catalog().rel(name).expect("probe relation exists");
            initial.relation(rel).tuples().iter().map(|t| t.tid)
        })
        .collect()
}

/// Batches after which the stream would have moved `|D|` by [`MAX_DRIFT`].
fn max_batches(replay: &Replay, batch: Batch, live: usize) -> usize {
    match replay.net_growth(batch) {
        0 => usize::MAX,
        net => ((MAX_DRIFT * live as f64) as usize / net).max(1),
    }
}

fn admit(resolver: &ResidentResolver) -> impl FnMut(UpdateBatch) -> Result<Applied, String> + '_ {
    |batch| {
        resolver.admit(batch).map(|r| Applied {
            inserted: r.inserted,
            retracted: r.retracted,
            deduced: r.deduced,
            over_deleted: 0,
            notice_rounds: 0,
            repartitioned: r.repartitioned,
        })
    }
}

/// The checks on a stream's own operations: no batch failed, every lookup
/// saw epochs in order and found its tid among a hit's members.
fn check_stream(gate: &mut Gate, stream: &StreamOutcome, what: &str) {
    gate.count(stream.apply_ms.len() as u64, stream.failed as u64, &format!("{what}: batches"));
    let r = &stream.reader;
    gate.count(r.lookups, r.failed, &format!("{what}: lookups"));
    gate.count(r.explain_ns.len() as u64, r.explain_failed, &format!("{what}: explains"));
}

struct Run<'a> {
    args: &'a Args,
    dir: &'a Path,
    set_up: SetUp,
    gate: Gate,
    report: Report,
    /// Sizes and counts for the result file.
    sizes: Map,
}

impl Run<'_> {
    fn cold_budget(&self) -> Duration {
        Duration::from_secs_f64(self.args.seconds * COLD_SHARE)
    }

    fn stream_budget(&self) -> Duration {
        Duration::from_secs_f64(self.args.seconds * (1.0 - COLD_SHARE))
    }

    fn scratch_clusters(&self, shadow: &Dataset) -> Vec<Vec<Tid>> {
        let mut scratch = self
            .set_up
            .session
            .run_parallel(shadow, &dmatch_config())
            .expect("the workload's models exist");
        scratch.outcome.matches.clusters()
    }

    /// `--trace 0`: the end-to-end metrics, tracing off.
    ///
    /// The run is a sequence of rounds, each one cold resolve followed by a
    /// few admitted batches beside the reader. Every metric so samples the
    /// whole run, and a noisy spell of the host hits a part of each metric's
    /// samples, never all the samples of one.
    fn end_to_end(&mut self) {
        let SetUp { hold, session, resolver, .. } = &self.set_up;
        let spec = &self.args.spec;
        let probe = probe_tids(spec, &hold.initial);
        let mut replay = Replay::new(hold, self.args.seed);
        let max_batches = max_batches(&replay, spec.batch, hold.initial.total_live());

        let reference = cold_rep(session, self.dir); // warm-up
        let budget = Duration::from_secs_f64(self.args.seconds);
        let (mut cold_secs, mut admit_ms) = (Vec::new(), Vec::new());
        let (mut ops_per_s, mut lookups_per_s) = (Vec::new(), Vec::new());
        let (mut lookup_p99_ns, mut explain_p50_us) = (Vec::new(), Vec::new());
        let (mut ops, mut lookups) = (0, 0);
        let mut last = None;
        let clock = Instant::now();
        while clock.elapsed() < budget || cold_secs.len() < 3 {
            let rep = cold_rep(session, self.dir);
            cold_secs.push(rep.secs);
            self.gate.check(rep.clusters == reference.clusters, "cold reps agree");
            last = Some(rep);

            let batches = spec.round_batches.min(max_batches - admit_ms.len());
            if batches == 0 {
                continue; // the stream has moved |D| as far as it may
            }
            let round = cold_secs.len() as u64;
            let length = StreamLength::exactly(batches);
            let stream = run_stream(
                resolver,
                &mut replay,
                spec.batch,
                length,
                (&probe, round),
                admit(resolver),
            );
            check_stream(&mut self.gate, &stream, "stream");
            ops_per_s.push(stream.ops as f64 / (stream.apply_ms.iter().sum::<f64>() / 1e3));
            lookups_per_s.push(stream.reader.lookups as f64 / stream.window_secs);
            lookup_p99_ns.push(quantile(&sorted(&stream.reader.lookup_ns), 0.99));
            if !stream.reader.explain_ns.is_empty() {
                explain_p50_us.push(summarize(&stream.reader.explain_ns).median / 1e3);
            }
            admit_ms.extend(stream.apply_ms);
            ops += stream.ops;
            lookups += stream.reader.lookups;
        }
        let peak_rss_mb = proc_status_mib("VmHWM");
        let last = last.expect("at least three rounds ran");
        self.gate.check(!explain_p50_us.is_empty(), "the reader sampled an explain");

        // Checks, outside every timed section.
        let mut sequential = session.run_sequential(&last.dataset);
        let sequential_agrees = sequential.matches.clusters() == last.clusters;
        self.gate.check(sequential_agrees, "cold clusters equal the sequential reference");
        let scratch = self.scratch_clusters(replay.shadow());
        let snapshot = resolver.snapshot();
        self.gate.check(
            snapshot.clusters() == scratch.as_slice(),
            "final snapshot equals a from-scratch resolve of the shadow dataset",
        );
        let pairs: Vec<(Tid, Tid)> = snapshot
            .clusters()
            .iter()
            .flat_map(|c| {
                c.iter().enumerate().flat_map(|(i, &a)| c[i + 1..].iter().map(move |&b| (a, b)))
            })
            .collect();
        let accuracy = dcer_eval::evaluate_pairs(&pairs, &replay.live_truth(&hold.truth));

        // `run` adds `setup_s` once the set-ups at the far end are in.
        let r = &mut self.report;
        r.add_quiet("cold_resolve_s", "s", &cold_secs, false);
        r.add("f1", "ratio", accuracy.f_measure);
        r.add("peak_rss_mb", "MiB", peak_rss_mb);
        r.add_quiet("admit_q1_ms", "ms", &admit_ms, false);
        r.add_quiet("cdc_ops_per_s", "ops/s", &ops_per_s, true);
        r.add_quiet("lookup_per_s", "ops/s", &lookups_per_s, true);
        r.add_quiet("lookup_p99_ns", "ns", &lookup_p99_ns, false);
        r.add_quiet("explain_q1_us", "us", &explain_p50_us, false);

        let sizes = &mut self.sizes;
        sizes.insert("rounds", Value::from(cold_secs.len()));
        sizes.insert("batches", Value::from(admit_ms.len()));
        sizes.insert("batch", Value::from(format!("{:?}", spec.batch)));
        sizes.insert("cdc_ops", Value::from(ops));
        sizes.insert("lookups", Value::from(lookups));
        sizes.insert("precision", Value::from(accuracy.precision));
        sizes.insert("recall", Value::from(accuracy.recall));
        sizes.insert("final_live_tuples", Value::from(replay.shadow().total_live()));
    }

    /// `--trace 1`: the per-layer metrics.
    fn per_layer(&mut self) {
        let SetUp { hold, session, resolver, csv_bytes, session_build_ns } = &self.set_up;

        // Cold rounds of: one untraced resolve, one traced resolve into a
        // fresh collector (its `RunProfile` is the cross-check), one staged
        // resolve into the collector whose spans are exported.
        let reference = cold_rep(session, self.dir);
        let staged_spans = Arc::new(InMemoryCollector::new());
        let (mut plain, mut traced, mut staged) = (Vec::new(), Vec::new(), Vec::<Staged>::new());
        let mut profile = None;
        let mut last = None;
        let clock = Instant::now();
        while clock.elapsed() < self.cold_budget() || staged.len() < 2 {
            let rep = cold_rep(session, self.dir);
            plain.push(rep.secs);
            self.gate.check(rep.clusters == reference.clusters, "cold reps agree");

            dcer_obs::install(Arc::new(InMemoryCollector::new()));
            let mut rep = cold_rep(session, self.dir);
            dcer_obs::uninstall();
            traced.push(rep.secs);
            self.gate.check(rep.clusters == reference.clusters, "traced resolve agrees");
            profile = rep.report.profile.take().or(profile);
            last = Some(rep);

            dcer_obs::install(staged_spans.clone());
            let rep = staged_rep(session, self.dir);
            dcer_obs::uninstall();
            self.gate
                .check(rep.clusters == reference.clusters, "staged resolve equals run_parallel");
            staged.push(rep);
        }
        let last = last.expect("at least two rounds ran");
        let trace_path = out_dir().join(format!("{}.trace.json", self.args.spec.name));
        if let Err(e) = std::fs::write(&trace_path, staged_spans.chrome_trace()) {
            eprintln!("warning: cannot write {}: {e}", trace_path.display());
        }

        let clock = Instant::now();
        let mut sequential = session.run_sequential(&last.dataset);
        let sequential_clusters = sequential.matches.clusters();
        let sequential_s = clock.elapsed().as_secs_f64();
        self.gate.check(
            sequential_clusters == last.clusters,
            "cold clusters equal the sequential reference",
        );
        let ml_pair_ns = layers::ml_pair_ns(&self.args.spec, session, &last.dataset);

        // The stream through `admit`, then the identical stream through a
        // bare `UpdateSession`, both beside the same reader.
        let batch = self.args.spec.batch;
        let probe = probe_tids(&self.args.spec, &hold.initial);
        let rss_before = proc_status_mib("VmRSS");
        let mut replay = Replay::new(hold, self.args.seed);
        let length = StreamLength {
            budget: self.stream_budget() / 2,
            min_batches: 8,
            max_batches: max_batches(&replay, batch, hold.initial.total_live()),
        };
        let stream = run_stream(resolver, &mut replay, batch, length, (&probe, 0), admit(resolver));
        let rss_growth_mb = proc_status_mib("VmRSS") - rss_before;
        check_stream(&mut self.gate, &stream, "stream");
        let scratch = self.scratch_clusters(replay.shadow());
        let snapshot = resolver.snapshot();
        self.gate.check(
            snapshot.clusters() == scratch.as_slice(),
            "final snapshot equals a from-scratch resolve of the shadow dataset",
        );

        let clock = Instant::now();
        let mut bare = session
            .update_session(&hold.initial, &dmatch_config())
            .expect("the workload's models exist");
        let boot_ns = clock.elapsed().as_nanos() as f64;
        let mut bare_replay = Replay::new(hold, self.args.seed);
        let same = StreamLength::exactly(stream.apply_ms.len());
        let applies = run_stream(resolver, &mut bare_replay, batch, same, (&probe, 0), |batch| {
            bare.run_update(&batch).map(|r| Applied {
                inserted: r.inserted,
                retracted: r.retracted.len(),
                deduced: r.deduced.len(),
                over_deleted: r.over_deleted,
                notice_rounds: r.notice_rounds,
                repartitioned: r.repartitioned,
            })
        });
        self.gate.count(
            applies.apply_ms.len() as u64,
            applies.failed as u64,
            "bare session: batches",
        );
        let mut bare_outcome = bare.outcome();
        self.gate.check(
            bare_outcome.matches.clusters() == scratch,
            "bare session equals a from-scratch resolve of the shadow dataset",
        );
        let reads = layers::read_costs(resolver, &probe);

        // Layer by layer. Times are medians over the staged rounds; counts
        // repeat exactly, so the last round speaks for all.
        let r = &mut self.report;
        let s = staged.last().expect("at least two rounds ran");
        let stage =
            |i: usize| -> Vec<f64> { staged.iter().map(|s| s.stage_ns[i] as f64).collect() };
        let bsp_ns = |f: &dyn Fn(&Staged) -> f64| -> Vec<f64> {
            staged.iter().map(|s| f(s) * 1e9).collect()
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        r.add_median("relation.load_ns", "ns", &stage(0));
        r.add("relation.load_tuples", "count", s.load_tuples as f64);
        r.add("relation.load_bytes", "bytes", *csv_bytes as f64);
        r.add("mrl.session_build_ns", "ns", *session_build_ns);
        r.add_median("mqo.plan_ns", "ns", &stage(1));
        r.add("mqo.hash_fns_saved", "count", s.hash_fns_saved as f64);

        let p = &s.partition;
        let fragments: Vec<f64> = p.fragment_sizes.iter().map(|&n| n as f64).collect();
        let max_fragment = fragments.iter().copied().fold(0.0, f64::max);
        let hashes = (p.hash_memo_hits + p.hash_computations) as f64;
        r.add_median("hypart.partition_ns", "ns", &stage(2));
        r.add("hypart.replication_factor", "ratio", p.replication_factor);
        r.add("hypart.fragment_skew", "ratio", ratio(max_fragment, mean(&fragments)));
        r.add("hypart.hash_memo_hit_ratio", "ratio", ratio(p.hash_memo_hits as f64, hashes));
        r.add("hypart.refinements", "count", f64::from(p.refinements));

        let c = &s.chase;
        r.add_median("chase.engine_build_ns", "ns", &stage(3));
        r.add_median("chase.deduce_max_ns", "ns", &bsp_ns(&|s| s.bsp.step_max_secs[0]));
        r.add_median("chase.deduce_sum_ns", "ns", &bsp_ns(&|s| s.bsp.step_total_secs[0]));
        let later_steps = |s: &Staged| s.bsp.step_max_secs[1..].iter().sum::<f64>();
        r.add_median("chase.incdeduce_ns", "ns", &bsp_ns(&later_steps));
        r.add("chase.valuations", "count", c.valuations as f64);
        r.add("chase.facts_deduced", "count", c.facts_deduced as f64);
        r.add("chase.ml_calls", "count", c.ml_calls as f64);
        let ml_probes = (c.ml_cache_hits + c.ml_calls) as f64;
        r.add("chase.ml_memo_hit_ratio", "ratio", ratio(c.ml_cache_hits as f64, ml_probes));
        r.add("chase.deps_dropped", "count", c.deps_dropped as f64);
        r.add("chase.seeded_joins", "count", bare_outcome.stats.seeded_joins as f64);
        r.add("ml.pair_ns", "ns", ml_pair_ns);

        let b = &s.bsp;
        r.add("bsp.supersteps", "count", b.supersteps as f64);
        r.add("bsp.messages", "count", b.messages as f64);
        r.add("bsp.bytes", "bytes", b.bytes as f64);
        r.add("bsp.deduped_share", "ratio", ratio(b.deduped_facts as f64, b.messages as f64));
        let exchange =
            |s: &Staged| (s.bsp.wall_secs - s.bsp.step_max_secs.iter().sum::<f64>()).max(0.0);
        r.add_median("bsp.exchange_ns", "ns", &bsp_ns(&exchange));
        r.add("pool.tasks", "count", s.pool.tasks as f64);
        r.add("pool.steals", "count", s.pool.steals as f64);
        r.add("pool.parks", "count", s.pool.parks as f64);
        let busiest = b.worker_busy_secs.iter().copied().fold(0.0, f64::max);
        r.add("pool.worker_imbalance", "ratio", ratio(busiest, mean(&b.worker_busy_secs)));

        let unattributed: Vec<f64> = staged
            .iter()
            .map(|s| 1.0 - s.stage_ns.iter().sum::<u64>() as f64 / s.wall_ns as f64)
            .collect();
        // Quiet-side quartiles, as for the end-to-end timings: with a handful
        // of rounds one noisy spell would otherwise decide the ratios.
        let plain_s = summarize(&plain).q1;
        r.add_median("core.pipeline.assemble_ns", "ns", &stage(5));
        r.add("core.pipeline.sequential_s", "s", sequential_s);
        r.add("core.pipeline.parallel_speedup", "ratio", sequential_s / plain_s);
        r.add_median("core.pipeline.unattributed_share", "ratio", &unattributed);

        let apply_ns: Vec<f64> = applies.apply_ms.iter().map(|ms| ms * 1e6).collect();
        r.add("core.update.boot_ns", "ns", boot_ns);
        r.add_median("core.update.apply_p50_ns", "ns", &apply_ns);
        r.add("core.update.apply_mean_ns", "ns", mean(&apply_ns));
        r.add("core.update.slow_share", "ratio", layers::slow_share(&apply_ns));
        r.add("core.update.retracted", "count", applies.retracted as f64);
        r.add("core.update.deduced", "count", applies.deduced as f64);
        r.add("core.update.over_deleted", "count", applies.over_deleted as f64);
        r.add("core.update.notice_rounds", "count", applies.notice_rounds as f64);
        r.add("core.update.repartitions", "count", bare.repartitions() as f64);

        // Publish is what `admit` adds to the bare apply of the same batch.
        let admits = &stream.apply_ms;
        let publish: Vec<f64> =
            admits.iter().zip(&applies.apply_ms).map(|(a, b)| (a - b) * 1e6).collect();
        let (tail_pct, tail_ms) = tail(admits);
        let decile = (admits.len() / 10).max(1);
        let drift = mean(&admits[admits.len() - decile..]) / mean(&admits[..decile]);
        let reader = &stream.reader;
        r.add_median("core.serve.publish_p50_ns", "ns", &publish);
        r.add("core.serve.admit_tail_ms", "ms", tail_ms);
        r.add("core.serve.admit_tail_pct", "%", tail_pct);
        r.add("core.serve.admit_max_ms", "ms", admits.iter().copied().fold(0.0, f64::max));
        r.add("core.serve.drift_ratio", "ratio", drift);
        r.add("core.serve.rss_growth_mb", "MiB", rss_growth_mb);
        r.add("core.serve.snapshot_load_ns", "ns", reads.snapshot_load_ns);
        r.add("core.serve.cluster_of_ns", "ns", reads.cluster_of_ns);
        r.add("core.serve.members_ns", "ns", reads.members_ns);
        r.add("core.serve.explain_ns", "ns", reads.explain_ns);
        r.add("core.serve.explain_steps", "count", reads.explain_steps);
        r.add("core.serve.snapshot_clusters", "count", snapshot.clusters().len() as f64);
        r.add("core.serve.snapshot_prov_entries", "count", snapshot.provenance().len() as f64);
        let miss_share = ratio(reader.misses as f64, reader.lookups as f64);
        r.add("core.serve.lookup_miss_share", "ratio", miss_share);
        r.add("core.serve.reader_epochs_seen", "count", reader.epochs_seen as f64);

        r.add("obs.trace_overhead_ratio", "ratio", summarize(&traced).q1 / plain_s);
        let profile = profile.expect("a collector was installed, so the report carries a profile");
        let phase = |p: Phase| profile.phase_ns.get(&p).copied().unwrap_or(0) as f64;
        r.add("obs.profile.partition_ns", "ns", phase(Phase::Partition));
        r.add("obs.profile.index_build_ns", "ns", phase(Phase::IndexBuild));
        r.add("obs.profile.deduce_ns", "ns", phase(Phase::Deduce));
        r.add("obs.profile.exchange_ns", "ns", phase(Phase::Exchange));
        r.add("obs.profile.barrier_wait_ns", "ns", phase(Phase::BarrierWait));
        r.add("obs.profile.assemble_ns", "ns", phase(Phase::Assemble));
        r.add("obs.profile.other_ns", "ns", phase(Phase::Other));

        // The staged numbers and the program's own profile measure the same
        // resolve from two sides; say so when they part ways.
        let median = |i: usize| summarize(&stage(i)).median;
        let builds = phase(Phase::Partition) + phase(Phase::IndexBuild) + phase(Phase::Assemble);
        let steps = phase(Phase::Deduce) + phase(Phase::Exchange) + phase(Phase::BarrierWait);
        for (what, ours, theirs) in
            [("partition + build", median(2) + median(3), builds), ("bsp", median(4), steps)]
        {
            if (ours - theirs).abs() > 0.10 * ours.max(theirs) {
                eprintln!(
                    "warning: staged {what} takes {ours:.0} ns, the RunProfile says \
                     {theirs:.0} ns: a gap over 10%"
                );
            }
        }

        let staged_wall: Vec<f64> = staged.iter().map(|s| s.wall_ns as f64).collect();
        let stages: Vec<Value> = STAGES.iter().map(|&s| Value::from(s)).collect();
        let sizes = &mut self.sizes;
        sizes.insert("cold_rounds", Value::from(staged.len()));
        sizes.insert("staged_wall_ns", Value::from(summarize(&staged_wall).median));
        sizes.insert("stages", Value::from(stages));
        sizes.insert("batches", Value::from(admits.len()));
        sizes.insert("batch", Value::from(format!("{batch:?}")));
        sizes.insert("lookups", Value::from(reader.lookups));
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `value` and `unit` of every metric, plus median, quartiles and count if `full`.
fn metrics_json(report: &Report, full: bool) -> Value {
    let mut metrics = Map::new();
    for m in &report.metrics {
        let mut entry = Map::new();
        entry.insert("value", Value::from(m.value));
        entry.insert("unit", Value::from(m.unit));
        if let (true, Some(s)) = (full, m.spread) {
            entry.insert("median", Value::from(s.median));
            entry.insert("q1", Value::from(s.q1));
            entry.insert("q3", Value::from(s.q3));
            entry.insert("n", Value::from(s.n));
        }
        metrics.insert(m.name, Value::Object(entry));
    }
    Value::Object(metrics)
}

/// [`SETUP_REPS`] set-ups in a row, each timed; the last one is handed back.
fn timed_set_ups(args: &Args, dir: &Path, secs: &mut Vec<f64>) -> Result<SetUp, String> {
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let clock = Instant::now();
        kept = Some(set_up(&args.spec, args.shrink, dir)?);
        secs.push(clock.elapsed().as_secs_f64());
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

fn run(args: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if GENERATOR_THREADS > nproc {
        return Err(format!(
            "{GENERATOR_THREADS} generator threads need as many cores and this box has {nproc}: \
             the generator would measure itself"
        ));
    }
    let dir = out_dir().join(format!("csv-{}", std::process::id()));
    let mut setup_secs = Vec::new();
    let set_up = timed_set_ups(args, &dir, &mut setup_secs)?;

    let initial = &set_up.hold.initial;
    let mut sizes = Map::new();
    sizes.insert("live_tuples", Value::from(initial.total_live()));
    sizes.insert("held_out_rows", Value::from(set_up.hold.held.len()));
    sizes.insert("csv_bytes", Value::from(set_up.csv_bytes));
    for relation in initial.relations() {
        let name = &initial.catalog().schema(relation.rel_id()).name;
        sizes.insert(format!("rows.{name}"), Value::from(relation.len()));
    }
    let live_tuples = initial.total_live();
    let pool_lanes = set_up.session.pool().size();

    let (gate, report) = (Gate::default(), Report::default());
    let mut run = Run { args, dir: &dir, set_up, gate, report, sizes };
    if args.trace {
        run.per_layer();
    } else {
        run.end_to_end();
    }
    // Dropping the set-up joins the resolver's writer thread.
    let Run { set_up, gate, mut report, sizes, .. } = run;
    drop(set_up);
    if !args.trace {
        // The set-ups at the far end of the run, with nothing else alive.
        drop(timed_set_ups(args, &dir, &mut setup_secs)?);
        report.add_quiet("setup_s", "s", &setup_secs, false);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let failed_share = gate.failed as f64 / gate.attempted.max(1) as f64;
    println!(
        "{} seed {} trace {}: {live_tuples} live tuples on {nproc} cores",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
    );
    for m in &report.metrics {
        print!("{:<36} {:>18.4} {:<6}", m.name, m.value, m.unit);
        match m.spread {
            Some(s) => println!(
                " median {:.4}, quartiles {:.4} .. {:.4}, n = {}",
                s.median, s.q1, s.q3, s.n
            ),
            None => println!(),
        }
    }
    println!(
        "{:<36} {:>18.4} {:<6} {} of {} checks",
        "failed_ops_share", failed_share, "ratio", gate.failed, gate.attempted
    );

    if let Some(path) = &args.set {
        let from_env =
            |key: &str| Value::from(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
        let mut env = Map::new();
        env.insert("nproc", Value::from(nproc));
        env.insert("pool_lanes", Value::from(pool_lanes));
        env.insert("generator_threads", Value::from(GENERATOR_THREADS));
        env.insert("bsp_workers", Value::from(cold::WORKERS));
        env.insert("rustc", from_env("E2E_RUSTC"));
        env.insert("commit", from_env("E2E_COMMIT"));
        env.insert("seed", Value::from(args.seed));
        env.insert("data_seed", Value::from(args.spec.data_seed));
        env.insert("seconds", Value::from(args.seconds));
        env.insert("shrink", Value::from(args.shrink));
        env.insert("setup_reps", Value::from(setup_secs.len()));
        let mut result = Map::new();
        result.insert("workload", Value::from(args.spec.name));
        result.insert("trace", Value::from(u64::from(args.trace)));
        result.insert("env", Value::Object(env));
        result.insert("sizes", Value::Object(sizes));
        result.insert("attempted", Value::from(gate.attempted));
        result.insert("failed", Value::from(gate.failed));
        result.insert("failed_ops_share", Value::from(failed_share));
        result.insert("metrics", metrics_json(&report, true));
        let append = |line: String| -> std::io::Result<()> {
            let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
            writeln!(file, "{line}")
        };
        append(Value::Object(result).to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
    let mut line = Map::new();
    line.insert("correct", Value::from(gate.failed == 0));
    line.insert("attempted", Value::from(gate.attempted));
    line.insert("failed", Value::from(gate.failed));
    line.insert("metrics", metrics_json(&report, false));
    println!("{}", Value::Object(line));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Whether the outputs were correct is in the result line; the exit code
    // says whether the benchmark itself ran.
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
