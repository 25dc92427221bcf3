//! `DMatch`: the parallel executor as a configuration of the unified
//! [pipeline](crate::pipeline) — HyPart partition, per-shard `Deduce`,
//! broadcast exchange of [`dcer_chase::DeltaBatch`]es, `IncDeduce` to
//! global quiescence.

use crate::pipeline::{run_pipeline, ExecutorKind, PipelineConfig, PipelineReport};
use dcer_bsp::{BspStats, CostModel, ExecutionMode, FaultConfig};
use dcer_chase::{BatchStats, ChaseConfig, ChaseOutcome, ChaseStats};
use dcer_hypart::PartitionStats;
use dcer_ml::MlRegistry;
use dcer_mrl::RuleSet;
use dcer_relation::Dataset;

/// Configuration for a `DMatch` run.
#[derive(Debug, Clone)]
pub struct DmatchConfig {
    /// Number of workers `n`.
    pub workers: usize,
    /// Threaded or simulated execution.
    pub execution: ExecutionMode,
    /// Use MQO hash sharing in HyPart (`false` = the `DMatch_noMQO`
    /// baseline of the paper's evaluation).
    pub use_mqo: bool,
    /// Per-worker chase configuration.
    pub chase: ChaseConfig,
    /// Communication cost model for the simulated cluster.
    pub cost: CostModel,
    /// Virtual-block factor for HyPart (default `workers`, i.e. `n²` cells).
    pub virtual_factor: Option<usize>,
    /// Fault-tolerance configuration: superstep checkpointing, injected
    /// faults, retry policy. Inactive (zero-overhead) by default.
    pub faults: FaultConfig,
    /// Thread count for every parallel region (HyPart scan, fleet build,
    /// threaded BSP workers); `0` = one per available core. Never changes
    /// results.
    pub threads: usize,
    /// Shared work-stealing pool to run all of those regions on; `None`
    /// (default) creates a transient pool per run. Its size supersedes
    /// `threads` when set. See [`PipelineConfig::pool`].
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
            cost: CostModel::default(),
            virtual_factor: None,
            faults: FaultConfig::none(),
            threads: 0,
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

    /// The equivalent pipeline configuration.
    pub fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            executor: ExecutorKind::Parallel,
            workers: self.workers,
            execution: self.execution,
            use_mqo: self.use_mqo,
            chase: self.chase.clone(),
            cost: self.cost,
            virtual_factor: self.virtual_factor,
            faults: self.faults.clone(),
            threads: self.threads,
            pool: self.pool.clone(),
        }
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
    /// Causal profile of the run (see [`PipelineReport::profile`]).
    pub profile: Option<dcer_obs::RunProfile>,
}

impl From<PipelineReport> for DmatchReport {
    fn from(r: PipelineReport) -> DmatchReport {
        DmatchReport {
            outcome: r.outcome,
            partition: r.partition.expect("parallel pipeline always partitions"),
            bsp: r.bsp,
            worker_stats: r.worker_stats,
            batch: r.batch,
            partition_secs: r.partition_secs,
            er_secs: r.er_secs,
            simulated_er_secs: r.simulated_er_secs,
            fault_reruns: r.fault_reruns,
            profile: r.profile,
        }
    }
}

/// Run `DMatch` end to end: HyPart partition, then the batched BSP
/// fixpoint, all through the unified pipeline.
pub fn run_dmatch(
    dataset: &Dataset,
    rules: &RuleSet,
    registry: &MlRegistry,
    config: &DmatchConfig,
) -> Result<DmatchReport, String> {
    run_pipeline(dataset, rules, registry, &config.pipeline()).map(DmatchReport::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_chase::{run_match, Fact};
    use dcer_ml::{EqualTextClassifier, NgramCosineClassifier};
    use dcer_relation::{Catalog, RelationSchema, ValueType};
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
}
