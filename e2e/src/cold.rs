//! Cold resolve: CSV files in, clusters out — as one call, and stage by stage.

use crate::data::load_csv;
use dcer_bsp::{run_bsp_on, BspStats, CostModel, ExecutionMode, FaultConfig};
use dcer_chase::{ChaseConfig, ChaseEngine, ChaseStats};
use dcer_core::{DcerSession, Deducer, DmatchConfig, DmatchReport, EngineDeducer, ShardWorker};
use dcer_hypart::{partition, HyPartConfig, PartitionStats};
use dcer_mqo::{assign_hashes, QueryPlan};
use dcer_pool::PoolStats;
use dcer_relation::{Dataset, Tid};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// BSP workers of every resolve, on a pool with one lane per core.
pub const WORKERS: usize = 4;

pub fn dmatch_config() -> DmatchConfig {
    DmatchConfig::new(WORKERS).threaded()
}

/// One cold resolve through the program's own entry point.
pub struct ColdRep {
    /// CSV files to materialised clusters.
    pub secs: f64,
    pub clusters: Vec<Vec<Tid>>,
    pub report: DmatchReport,
    /// Handed back so that freeing it falls outside the timed section.
    pub dataset: Dataset,
}

pub fn cold_rep(session: &DcerSession, dir: &Path) -> ColdRep {
    let t = Instant::now();
    let dataset = load_csv(session, dir);
    let mut report =
        session.run_parallel(&dataset, &dmatch_config()).expect("the workload's models exist");
    let clusters = report.outcome.matches.clusters();
    ColdRep { secs: t.elapsed().as_secs_f64(), clusters, report, dataset }
}

/// The stages of a cold resolve, in order.
pub const STAGES: [&str; 6] =
    ["e2e.load", "e2e.plan", "e2e.partition", "e2e.engine_build", "e2e.bsp", "e2e.assemble"];

/// One cold resolve driven stage by stage through the layers' public calls,
/// with a span and a timer around each — the same steps `run_parallel` takes.
pub struct Staged {
    /// Nanoseconds per stage, in [`STAGES`] order.
    pub stage_ns: [u64; 6],
    pub wall_ns: u64,
    pub clusters: Vec<Vec<Tid>>,
    pub load_tuples: usize,
    pub hash_fns_saved: usize,
    pub partition: PartitionStats,
    pub bsp: BspStats,
    pub chase: ChaseStats,
    pub pool: PoolStats,
}

fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let _span = dcer_obs::span(name);
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

pub fn staged_rep(session: &DcerSession, dir: &Path) -> Staged {
    let pool = session.pool();
    let pool_before = pool.stats();
    let rules = session.rules();
    let wall = Instant::now();

    let (dataset, load_ns) = timed(STAGES[0], || load_csv(session, dir));
    let (mqo, plan_ns) = timed(STAGES[1], || assign_hashes(rules, &QueryPlan::build(rules), true));
    let (part, partition_ns) = timed(STAGES[2], || {
        let mut hp = HyPartConfig::new(WORKERS);
        hp.threads = pool.size();
        hp.pool = Some(Arc::clone(pool));
        partition(&dataset, rules, &hp)
    });
    let partition_stats = part.stats;
    // As the pipeline builds its fleet: one engine per fragment, scoped to
    // the rules HyPart distributed there, built as one weighted pool batch.
    let (engines, engine_build_ns) = timed(STAGES[3], || {
        let chase = ChaseConfig { share_ml_across_rules: true, ..ChaseConfig::default() };
        let weights: Vec<u64> = part.fragments.iter().map(|f| f.total_tuples() as u64).collect();
        let tasks: Vec<_> = part
            .fragments
            .into_iter()
            .zip(part.rule_masks)
            .map(|(fragment, masks)| {
                let chase = &chase;
                move || {
                    let mut engine = ChaseEngine::new(fragment, rules, session.registry(), chase)
                        .expect("the workload's models exist");
                    engine.set_rule_scope(Arc::new(masks));
                    engine.set_pool(Arc::clone(pool));
                    engine.prebuild_indexes(1);
                    engine
                }
            })
            .collect();
        pool.run(tasks, Some(&weights))
    });
    let ((shards, bsp), bsp_ns) = timed(STAGES[4], || {
        let n = engines.len();
        let workers = engines
            .into_iter()
            .enumerate()
            .map(|(i, e)| ShardWorker::new(i, n, EngineDeducer::new(e)))
            .collect();
        run_bsp_on(
            pool,
            workers,
            ExecutionMode::Threaded,
            &CostModel::default(),
            &FaultConfig::none(),
        )
        .expect("no fault plan, no abort")
    });
    let ((clusters, chase), assemble_ns) = timed(STAGES[5], || {
        let mut deducers: Vec<EngineDeducer> =
            shards.into_iter().map(ShardWorker::into_deducer).collect();
        let mut chase = ChaseStats::default();
        for d in &deducers {
            chase.add(&d.stats());
        }
        // Every replica holds the global Γ after the broadcast exchange.
        (deducers[0].take_state().matches.clusters(), chase)
    });

    let wall_ns = wall.elapsed().as_nanos() as u64;
    let after = pool.stats();
    Staged {
        stage_ns: [load_ns, plan_ns, partition_ns, engine_build_ns, bsp_ns, assemble_ns],
        wall_ns,
        clusters,
        load_tuples: dataset.total_tuples(),
        hash_fns_saved: mqo.stats.hash_fns_saved(),
        partition: partition_stats,
        bsp,
        chase,
        pool: PoolStats {
            tasks: after.tasks - pool_before.tasks,
            steals: after.steals - pool_before.steals,
            parks: after.parks - pool_before.parks,
        },
    }
}
