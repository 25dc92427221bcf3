//! `DMatch`: the parallel algorithm as one cold boot of an
//! [`UpdateSession`] — HyPart partition, per-shard `Deduce`, broadcast
//! exchange of [`dcer_chase::DeltaBatch`]es, `IncDeduce` to global
//! quiescence.

use crate::update::UpdateSession;
use dcer_bsp::{BspStats, ExecutionMode, FaultConfig};
use dcer_chase::{BatchStats, ChaseConfig, ChaseOutcome, ChaseStats};
use dcer_hypart::PartitionStats;
use dcer_ml::MlRegistry;
use dcer_mrl::RuleSet;
use dcer_relation::Dataset;
use std::time::Instant;

/// Configuration for a `DMatch` run.
#[derive(Debug, Clone)]
pub struct DmatchConfig {
    /// Number of workers `n` (at least one).
    pub workers: usize,
    /// Threaded or simulated execution.
    pub execution: ExecutionMode,
    /// Use MQO hash sharing in HyPart and ML-result sharing across rules
    /// (`false` = the `DMatch_noMQO` baseline of the paper's evaluation).
    pub use_mqo: bool,
    /// Per-worker chase configuration.
    pub chase: ChaseConfig,
    /// Virtual-block factor for HyPart (default `workers`, i.e. `n²` cells).
    pub virtual_factor: Option<usize>,
    /// Fault-tolerance configuration: superstep checkpointing, injected
    /// faults, retry policy. Inactive (zero-overhead) by default.
    pub faults: FaultConfig,
    /// Shared work-stealing pool for every parallel region (HyPart scan,
    /// fleet build, threaded BSP workers); `None` (default) creates one
    /// with a lane per available core. Never changes results.
    pub pool: Option<std::sync::Arc<dcer_pool::WorkPool>>,
}

impl DmatchConfig {
    /// Sensible defaults for `n` workers (simulated execution, MQO on).
    pub fn new(workers: usize) -> DmatchConfig {
        DmatchConfig {
            workers,
            execution: ExecutionMode::Simulated,
            use_mqo: true,
            chase: ChaseConfig::default(),
            virtual_factor: None,
            faults: FaultConfig::none(),
            pool: None,
        }
    }

    /// Switch to threaded execution.
    pub fn threaded(mut self) -> DmatchConfig {
        self.execution = ExecutionMode::Threaded;
        self
    }

    /// Run under a fault-tolerance configuration (checkpointing and/or an
    /// injected fault plan).
    pub fn with_faults(mut self, faults: FaultConfig) -> DmatchConfig {
        self.faults = faults;
        self
    }
}

/// The full report of a `DMatch` run.
#[derive(Debug)]
pub struct DmatchReport {
    /// The global `Γ`: matches + validated predictions + aggregated
    /// chase counters.
    pub outcome: ChaseOutcome,
    /// HyPart statistics.
    pub partition: PartitionStats,
    /// BSP statistics (supersteps, batches, per-shard bytes, makespan).
    pub bsp: BspStats,
    /// Per-worker chase statistics.
    pub worker_stats: Vec<ChaseStats>,
    /// Batch construction/merge counters over the exchange.
    pub batch: BatchStats,
    /// Wall time spent partitioning.
    pub partition_secs: f64,
    /// Wall time of the parallel phase.
    pub er_secs: f64,
    /// Simulated parallel ER time (partitioning excluded), i.e. the
    /// makespan a real `n`-worker cluster would see.
    pub simulated_er_secs: f64,
    /// Fault-free reruns forced by exhausted delivery retries (graceful
    /// degradation); `0` on every run that recovered in place.
    pub fault_reruns: u32,
    /// Causal profile of the run — makespan decomposition, per-worker
    /// utilization, straggler indices and the critical path — built from
    /// the installed [`dcer_obs::InMemoryCollector`]'s span graph. `None`
    /// unless tracing into a collector is enabled for the run. Covers
    /// everything the collector has seen since install, so install a fresh
    /// collector per run for a per-run profile.
    pub profile: Option<dcer_obs::RunProfile>,
}

/// Run `DMatch` end to end: boot an [`UpdateSession`] (HyPart partition,
/// fleet build, the batched BSP fixpoint) and report its boot run.
pub fn run_dmatch(
    dataset: &Dataset,
    rules: &RuleSet,
    registry: &MlRegistry,
    config: &DmatchConfig,
) -> Result<DmatchReport, String> {
    let started = Instant::now();
    let (session, boot) =
        UpdateSession::boot(dataset, rules.clone(), registry.clone(), config.clone())?;
    let worker_stats: Vec<ChaseStats> = session.engines().iter().map(|e| e.stats()).collect();
    let mut stats = ChaseStats::default();
    for (i, ws) in worker_stats.iter().enumerate() {
        stats.add(ws);
        ws.publish(Some(i as u32));
    }
    stats.publish(None);
    boot.batch.publish();
    dcer_obs::gauge_set("pipeline.partition_secs", boot.partition_secs);
    dcer_obs::gauge_set("pipeline.er_secs", boot.er_secs);
    dcer_obs::gauge_set("pipeline.simulated_er_secs", boot.bsp.makespan_secs);
    let fault_reruns = session.fault_reruns();
    let wall_ns = started.elapsed().as_nanos() as u64;
    // Broadcast exchange: every replica holds the global Γ.
    let state = session.into_state();
    Ok(DmatchReport {
        outcome: ChaseOutcome { matches: state.matches, validated: state.validated, stats },
        partition: boot.partition,
        simulated_er_secs: boot.bsp.makespan_secs,
        bsp: boot.bsp,
        worker_stats,
        batch: boot.batch,
        partition_secs: boot.partition_secs,
        er_secs: boot.er_secs,
        fault_reruns,
        profile: dcer_obs::with_collector(|c| dcer_obs::RunProfile::build(c, wall_ns)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DcerSession;
    use dcer_bsp::FaultPlan;
    use dcer_chase::{run_match, Fact};
    use dcer_ml::{EqualTextClassifier, NgramCosineClassifier};
    use dcer_relation::{Catalog, RelationSchema, ValueType};
    use std::collections::BTreeSet;
    use std::sync::Arc;

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

    fn dataset(n: usize) -> Dataset {
        let mut d = Dataset::new(catalog());
        for i in 0..n {
            d.insert(
                0,
                vec![
                    format!("k{}", i % 5).into(),
                    format!("x{}", i % 4).into(),
                    format!("f{}", i % 6).into(),
                ],
            )
            .unwrap();
        }
        for i in 0..n / 2 {
            d.insert(1, vec![format!("f{}", i % 6).into(), format!("y{}", i % 3).into()]).unwrap();
        }
        d
    }

    fn rules() -> RuleSet {
        dcer_mrl::parse_rules(
            &catalog(),
            "match md: P(t), P(s), t.k = s.k -> t.id = s.id;
             match deep: P(t), P(s), P(u), t.id = s.id, s.x = u.x -> t.id = u.id;
             match coll: P(t), P(s), Q(a), Q(b), t.fk = a.fk, s.fk = b.fk, a.y = b.y -> t.id = s.id;
             match val: P(t), P(s), t.x = s.x -> m(t.k, s.k);
             match use: P(t), P(s), m(t.k, s.k) -> t.id = s.id",
        )
        .unwrap()
    }

    fn registry() -> MlRegistry {
        let mut r = MlRegistry::new();
        r.register("m", Arc::new(EqualTextClassifier));
        r.register("sim", Arc::new(NgramCosineClassifier::new(0.5)));
        r
    }

    /// Proposition 8: DMatch deduces exactly the matches of the sequential
    /// Match, for any worker count and in both execution modes.
    #[test]
    fn dmatch_equals_sequential_match() {
        let d = dataset(24);
        let rs = rules();
        let reg = registry();
        let mut seq = run_match(&d, &rs, &reg, &ChaseConfig::default()).unwrap();
        let expected = seq.matches.clusters();
        let expected_ml: std::collections::BTreeSet<Fact> = seq.validated.iter().copied().collect();
        assert!(!expected.is_empty(), "test data must produce matches");

        for workers in [1, 2, 3, 4, 8] {
            for mode in [ExecutionMode::Simulated, ExecutionMode::Threaded] {
                let mut cfg = DmatchConfig::new(workers);
                cfg.execution = mode;
                let mut report = run_dmatch(&d, &rs, &reg, &cfg).unwrap();
                assert_eq!(
                    report.outcome.matches.clusters(),
                    expected,
                    "workers={workers} mode={mode:?}"
                );
                let got_ml: std::collections::BTreeSet<Fact> =
                    report.outcome.validated.iter().copied().collect();
                assert_eq!(got_ml, expected_ml, "workers={workers} mode={mode:?}");
            }
        }
    }

    #[test]
    fn dmatch_agrees_under_no_mqo_and_tiny_dep_cache() {
        let d = dataset(18);
        let rs = rules();
        let reg = registry();
        let mut seq = run_match(&d, &rs, &reg, &ChaseConfig::default()).unwrap();
        let expected = seq.matches.clusters();

        let mut cfg = DmatchConfig::new(3);
        cfg.use_mqo = false;
        cfg.chase = ChaseConfig { dep_capacity: 1, ..Default::default() };
        let mut report = run_dmatch(&d, &rs, &reg, &cfg).unwrap();
        assert_eq!(report.outcome.matches.clusters(), expected);
    }

    #[test]
    fn report_is_fully_populated() {
        let d = dataset(16);
        let report = run_dmatch(&d, &rules(), &registry(), &DmatchConfig::new(4)).unwrap();
        assert_eq!(report.partition.workers, 4);
        assert!(report.bsp.supersteps >= 1);
        assert_eq!(report.worker_stats.len(), 4);
        assert!(report.partition_secs >= 0.0);
        assert!(report.simulated_er_secs > 0.0);
        assert!(report.outcome.stats.valuations > 0);
        assert!(report.batch.built >= 4, "every shard built its Deduce batch");
    }

    #[test]
    fn single_worker_needs_no_communication() {
        let d = dataset(16);
        let report = run_dmatch(&d, &rules(), &registry(), &DmatchConfig::new(1)).unwrap();
        assert_eq!(report.bsp.messages, 0);
        assert_eq!(report.bsp.supersteps, 1);
    }

    #[test]
    fn only_facts_travel_never_tuples() {
        // The exchange carries `Fact`s (16-18 bytes each) inside batches;
        // total bytes must be bounded by facts * the largest fact size
        // regardless of tuple sizes.
        let d = dataset(24);
        let report = run_dmatch(&d, &rules(), &registry(), &DmatchConfig::new(4)).unwrap();
        assert!(report.bsp.bytes <= report.bsp.messages * Fact::ML_WIRE_BYTES as u64);
    }

    /// A one-relation fixture with key, recursive and ML-validated rules,
    /// small enough for the naive chase.
    fn small() -> (DcerSession, Dataset) {
        let catalog = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of(
                "R",
                &[("k", ValueType::Str), ("x", ValueType::Str)],
            )])
            .unwrap(),
        );
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(EqualTextClassifier));
        let session = DcerSession::from_source(
            catalog.clone(),
            "match md: R(t), R(s), t.k = s.k -> t.id = s.id;
             match deep: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id;
             match val: R(t), R(s), t.x = s.x -> m(t.k, s.k);
             match use: R(t), R(s), m(t.k, s.k) -> t.id = s.id",
            reg,
        )
        .unwrap();
        let mut data = Dataset::new(catalog);
        for (k, x) in
            [("a", "1"), ("a", "2"), ("b", "2"), ("b", "3"), ("c", "9"), ("d", "9"), ("e", "7")]
        {
            data.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        (session, data)
    }

    fn run(s: &DcerSession, data: &Dataset, cfg: &DmatchConfig) -> DmatchReport {
        run_dmatch(data, s.rules(), s.registry(), cfg).unwrap()
    }

    /// Sequential `Match`, the naive chase and `DMatch` at several worker
    /// counts produce identical match sets and validated predictions.
    #[test]
    fn executors_agree_through_one_code_path() {
        let (s, data) = small();
        let mut baseline = s.run_sequential(&data);
        let clusters = baseline.matches.clusters();
        let ml: BTreeSet<Fact> = baseline.validated.iter().copied().collect();
        assert!(!clusters.is_empty());

        let mut naive = s.run_naive(&data).unwrap();
        assert_eq!(naive.matches.clusters(), clusters);
        assert_eq!(naive.validated.iter().copied().collect::<BTreeSet<_>>(), ml);

        for workers in [2, 3, 5] {
            let mut par = run(&s, &data, &DmatchConfig::new(workers));
            assert_eq!(par.outcome.matches.clusters(), clusters, "workers={workers}");
            assert_eq!(
                par.outcome.validated.iter().copied().collect::<BTreeSet<_>>(),
                ml,
                "workers={workers}"
            );
            assert_eq!(par.partition.workers, workers);
        }
    }

    #[test]
    fn parallel_exchange_moves_batches_not_copies() {
        let (s, data) = small();
        let report = run(&s, &data, &DmatchConfig::new(4));
        assert!(report.bsp.batches > 0);
        // Broadcast routing: every delivered batch is one of the emitted
        // batches handed to `shards - 1` peers, so deliveries divide evenly.
        assert_eq!(report.bsp.batches % 3, 0);
        assert_eq!(report.bsp.shard_bytes.len(), 4);
        assert_eq!(report.bsp.shard_bytes.iter().sum::<u64>(), report.bsp.bytes);
    }

    #[test]
    fn crashed_shard_recovers_to_the_same_fixpoint() {
        let (s, data) = small();
        let clusters = s.run_sequential(&data).matches.clusters();
        for mode in [ExecutionMode::Simulated, ExecutionMode::Threaded] {
            let mut cfg =
                DmatchConfig::new(3).with_faults(FaultConfig::with_plan(FaultPlan::crash(1, 1)));
            cfg.execution = mode;
            let mut report = run(&s, &data, &cfg);
            assert_eq!(report.outcome.matches.clusters(), clusters, "{mode:?}");
            assert_eq!(report.bsp.recovery.crashes, 1, "{mode:?}");
            assert_eq!(report.bsp.recovery.recoveries, 1, "{mode:?}");
            assert_eq!(report.fault_reruns, 0, "{mode:?}: recovery happened in place");
            assert!(report.bsp.recovery.checkpoints > 0, "{mode:?}");
        }
    }

    #[test]
    fn exhausted_retries_degrade_to_a_fault_free_rerun() {
        let (s, data) = small();
        let clusters = s.run_sequential(&data).matches.clusters();
        // Drop the 0->1 deposit of step 0 and every scheduled retry
        // (backoff base 1: steps 1, 3, 7) — the run must abort and the
        // session must fall back to a clean rerun with the same answer.
        let plan = FaultPlan::parse("drop 0->1@0; drop 0->1@1; drop 0->1@3; drop 0->1@7").unwrap();
        let cfg = DmatchConfig::new(2).with_faults(FaultConfig::with_plan(plan));
        let mut report = run(&s, &data, &cfg);
        assert_eq!(report.fault_reruns, 1, "retry exhaustion must force the rerun");
        assert_eq!(report.outcome.matches.clusters(), clusters);
        assert_eq!(report.bsp.recovery.dropped_batches, 4, "aborted attempt's counters kept");
    }

    #[test]
    fn zero_workers_is_an_error_not_a_panic() {
        let (s, data) = small();
        let err = run_dmatch(&data, s.rules(), s.registry(), &DmatchConfig::new(0)).unwrap_err();
        assert!(err.contains("at least one worker"), "{err}");
        assert!(s.run_parallel(&data, &DmatchConfig::new(0)).is_err());
        assert!(s.update_session(&data, &DmatchConfig::new(0)).is_err());
        assert!(s.resident(&data, &DmatchConfig::new(0)).is_err());
    }
}
