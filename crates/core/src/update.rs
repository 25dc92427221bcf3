//! [`UpdateSession`]: the one code path that runs `DMatch` — the cold
//! resolve is its boot, and every CDC batch after it is an incremental
//! admit.
//!
//! A session is a *materialized* `DMatch` run that stays resident: the
//! HyPart partition (with its [`DeltaRouter`] geometry cache), one
//! [`ChaseEngine`] per worker (indexes, compiled rule programs, dependency
//! store, support log), and the master dataset. Booting partitions
//! the dataset, builds the fleet and runs the BSP exchange to the global
//! fixpoint; [`crate::dmatch::run_dmatch`] is that boot, reported. Applying
//! an [`UpdateBatch`] then costs work proportional to the delta, not to
//! `|D|`:
//!
//! 1. **Route** — inserts walk the cached per-rule hypercube geometry
//!    ([`DeltaRouter::route_insert`]), landing on exactly the cells a full
//!    re-partition would choose, so Lemma 6 locality keeps holding for
//!    valuations that mix resident and routed tuples. Deletes release their
//!    cells' load. When accumulated churn skews the frozen grid past the
//!    refinement threshold ([`DeltaRouter::drifted`]), the session falls
//!    back to a full re-partition and fleet rebuild.
//! 2. **Retract** — each worker stages its local delta
//!    ([`ChaseEngine::stage_update`]): tombstone deletes, patch indexes
//!    incrementally, run the DRed cascade over its support log. Retracted
//!    facts are exchanged as *retraction notices* round by round — a fact
//!    another worker holds with [`dcer_chase::support::Provenance::External`]
//!    provenance dies only by notice — until no worker drops anything new.
//! 3. **Rederive** — the boot's BSP exchange: superstep 0 runs
//!    [`ChaseEngine::update_fixpoint`], which is the full `Deduce` on a new
//!    engine and here the staged delta (seeded joins for inserts, full
//!    rederive after a cascade, nothing when untouched). Checkpointing and
//!    crash recovery ride the [`dcer_bsp::Worker`] hooks.
//!
//! One failure policy covers boot and admits: an exchange that aborts
//! (delivery retries exhausted) has consumed the fleet, so the session
//! rebuilds it from the master dataset and reruns fault-free.
//!
//! The invariant (pinned by the equivalence proptests): after any sequence
//! of `run_update` calls, every worker's replica of `Γ` equals the closure
//! a from-scratch run over the final dataset computes.

use crate::dmatch::DmatchConfig;
use crate::pipeline::{build_fleet, EngineDeducer, ShardWorker};
use dcer_bsp::{run_bsp_on, BspAbort, BspStats, CostModel, FaultConfig};
use dcer_chase::{BatchStats, ChaseEngine, ChaseOutcome, ChaseState, ChaseStats, Fact};
use dcer_hypart::{partition_with_router, DeltaRouter, HyPartConfig, PartitionStats};
use dcer_ml::MlRegistry;
use dcer_mrl::RuleSet;
use dcer_pool::WorkPool;
use dcer_relation::{Dataset, Tid, Tuple, UpdateBatch};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// A resident incremental-maintenance session over one dataset.
pub struct UpdateSession {
    rules: RuleSet,
    registry: MlRegistry,
    config: DmatchConfig,
    /// The authoritative full dataset (tombstones retained: a delete's
    /// routing geometry needs the dead tuple's values).
    master: Dataset,
    /// The session's work-stealing pool, reused across every re-partition,
    /// fleet rebuild and exchange.
    pool: Arc<WorkPool>,
    engines: Vec<ChaseEngine>,
    router: DeltaRouter,
    updates_applied: u64,
    repartitions: u64,
    fault_reruns: u32,
}

/// What one [`UpdateSession::run_update`] call changed.
#[derive(Debug)]
pub struct UpdateRunReport {
    /// The global `Γ` after the update (read off worker 0's replica; the
    /// broadcast exchange makes every replica identical).
    pub outcome: ChaseOutcome,
    /// Identities assigned to the batch's inserts.
    pub inserted: Vec<Tid>,
    /// Identities that were live and are now tombstoned.
    pub deleted: Vec<Tid>,
    /// Facts gone from `Γ` (net of rederivations): `Γ_after = Γ_before −
    /// retracted ∪ deduced`, with the two sets disjoint. Empty when the
    /// fleet was rebuilt (see `repartitioned`): no per-fact delta is
    /// tracked then.
    pub retracted: Vec<Fact>,
    /// Facts newly in `Γ` (net of over-deletions; see `retracted`).
    pub deduced: Vec<Fact>,
    /// Facts transiently over-deleted by the DRed cascade and restored by
    /// rederivation — the cost of logging only first derivations.
    pub over_deleted: u64,
    /// Retraction-notice exchange rounds until the cascade quiesced.
    pub notice_rounds: u32,
    /// Whether the fleet was re-partitioned and rebuilt from the master
    /// dataset: churn drift, or an exchange aborted under a fault plan.
    pub repartitioned: bool,
    /// Statistics of the rederive exchange (or of the rebuilt fleet's full
    /// run, after a re-partition).
    pub bsp: BspStats,
    /// Causal profile built from the installed collector's span graph
    /// (see [`crate::DmatchReport::profile`]); `None` unless tracing into a
    /// collector is enabled.
    pub profile: Option<dcer_obs::RunProfile>,
}

/// A session's boot run: what `DMatch` reports beside `Γ`.
pub(crate) struct BootRun {
    pub partition: PartitionStats,
    pub partition_secs: f64,
    pub bsp: BspStats,
    pub batch: BatchStats,
    pub er_secs: f64,
}

/// A partitioned, built fleet before its first exchange.
struct Fleet {
    engines: Vec<ChaseEngine>,
    router: DeltaRouter,
    partition: PartitionStats,
    partition_secs: f64,
}

/// One exchange to global quiescence.
struct Exchange {
    bsp: BspStats,
    batch: BatchStats,
    /// Every fact the shards deduced, duplicates across shards included.
    deduced: Vec<Fact>,
    /// The fleet was rebuilt from the master dataset (churn drift, or an
    /// aborted exchange), so `deduced` is all of `Γ` rather than a delta.
    rebuilt: bool,
}

impl UpdateSession {
    /// Build a session: partition `dataset`, build the engine fleet, run
    /// the initial BSP fixpoint. `config.workers == 1` degenerates to a
    /// resident sequential `Match` with the same update API; `0` is an
    /// error.
    pub fn new(
        dataset: &Dataset,
        rules: RuleSet,
        registry: MlRegistry,
        config: DmatchConfig,
    ) -> Result<UpdateSession, String> {
        Ok(Self::boot(dataset, rules, registry, config)?.0)
    }

    /// [`UpdateSession::new`], also reporting the boot run.
    pub(crate) fn boot(
        dataset: &Dataset,
        rules: RuleSet,
        registry: MlRegistry,
        config: DmatchConfig,
    ) -> Result<(UpdateSession, BootRun), String> {
        if config.workers == 0 {
            return Err("DMatch needs at least one worker".into());
        }
        let _span = dcer_obs::span("update.bootstrap").with_arg("workers", config.workers as u64);
        let pool = config.pool.clone().unwrap_or_else(|| {
            Arc::new(WorkPool::new(std::thread::available_parallelism().map_or(1, |n| n.get())))
        });
        let fleet = Self::materialize(dataset, &rules, &registry, &config, &pool)?;
        let mut session = UpdateSession {
            rules,
            registry,
            config,
            master: dataset.clone(),
            pool,
            engines: fleet.engines,
            router: fleet.router,
            updates_applied: 0,
            repartitions: 0,
            fault_reruns: 0,
        };
        let t0 = Instant::now();
        let exchange = session.exchange()?;
        let boot = BootRun {
            partition: fleet.partition,
            partition_secs: fleet.partition_secs,
            bsp: exchange.bsp,
            batch: exchange.batch,
            er_secs: t0.elapsed().as_secs_f64(),
        };
        Ok((session, boot))
    }

    /// Re-partition the master dataset and rebuild the fleet in place; the
    /// caller runs the exchange.
    fn rebuild(&mut self) -> Result<(), String> {
        let fleet =
            Self::materialize(&self.master, &self.rules, &self.registry, &self.config, &self.pool)?;
        self.engines = fleet.engines;
        self.router = fleet.router;
        Ok(())
    }

    /// Partition (with a delta router) and build the engine fleet.
    fn materialize(
        dataset: &Dataset,
        rules: &RuleSet,
        registry: &MlRegistry,
        config: &DmatchConfig,
        pool: &Arc<WorkPool>,
    ) -> Result<Fleet, String> {
        let t0 = Instant::now();
        let mut hp = HyPartConfig::new(config.workers);
        hp.use_mqo = config.use_mqo;
        hp.pool = Some(Arc::clone(pool));
        if let Some(v) = config.virtual_factor {
            hp.virtual_factor = v;
        }
        let (part, router) = {
            let _span = dcer_obs::span("partition").with_arg("workers", config.workers as u64);
            partition_with_router(dataset, rules, &hp)
        };
        let partition_secs = t0.elapsed().as_secs_f64();
        // MQO also shares ML classifier results across rules with the same
        // predicate signature; the noMQO baseline pays per rule.
        let mut chase_cfg = config.chase.clone();
        chase_cfg.share_ml_across_rules = config.use_mqo;
        let shards =
            part.fragments.into_iter().zip(part.rule_masks.into_iter().map(Arc::new)).collect();
        let engines = build_fleet(shards, rules, registry, &chase_cfg, pool)?;
        Ok(Fleet { engines, router, partition: part.stats, partition_secs })
    }

    /// Wrap the resident engines in BSP shards, run one exchange to global
    /// quiescence, unwrap them again.
    ///
    /// The session's one failure policy: a [`BspAbort`] (exhausted delivery
    /// retries under an injected fault plan) consumes the fleet, so rebuild
    /// it from the master dataset and rerun fault-free. Matches are monotone
    /// evidence over the accepted prefix, so the rerun reaches the same
    /// closure. The returned statistics keep the aborted attempt's recovery
    /// counters.
    fn exchange(&mut self) -> Result<Exchange, String> {
        let (shards, bsp, rebuilt) = match self.run_bsp(true) {
            Ok((shards, bsp)) => (shards, bsp, false),
            Err(abort) => {
                dcer_obs::instant("bsp.recovery.degraded_rerun");
                dcer_obs::counter_add("bsp.recovery.degraded_reruns", 1);
                self.fault_reruns += 1;
                self.rebuild()?;
                let (shards, mut bsp) = self
                    .run_bsp(false)
                    .unwrap_or_else(|_| unreachable!("an inactive FaultConfig never aborts"));
                bsp.recovery = abort.stats.recovery;
                (shards, bsp, true)
            }
        };
        let mut batch = BatchStats::default();
        let mut deduced = Vec::new();
        self.engines = shards
            .into_iter()
            .map(|s| {
                batch.add(s.batch_stats());
                let (engine, emitted) = s.into_deducer().into_parts();
                deduced.extend(emitted);
                engine
            })
            .collect();
        Ok(Exchange { bsp, batch, deduced, rebuilt })
    }

    /// One BSP run over the fleet, under the configured fault plan or none.
    fn run_bsp(
        &mut self,
        faulty: bool,
    ) -> Result<(Vec<ShardWorker<EngineDeducer>>, BspStats), BspAbort> {
        let n = self.engines.len();
        let workers = self
            .engines
            .drain(..)
            .enumerate()
            .map(|(i, engine)| ShardWorker::new(i, n, EngineDeducer::new(engine)))
            .collect();
        let none = FaultConfig::none();
        let faults = if faulty { &self.config.faults } else { &none };
        run_bsp_on(&self.pool, workers, self.config.execution, &CostModel::default(), faults)
    }

    /// Apply one CDC batch and drive the fleet to the new global fixpoint.
    pub fn run_update(&mut self, batch: &UpdateBatch) -> Result<UpdateRunReport, String> {
        let wall = Instant::now();
        let _span = dcer_obs::span("update.run").with_arg("run", self.updates_applied);
        dcer_obs::counter_add("update.runs", 1);
        let report = self.master.apply_update(batch).map_err(|e| e.to_string())?;
        self.updates_applied += 1;

        // Route the delta through the cached partition geometry.
        let n = self.engines.len();
        let mut worker_inserts: Vec<Vec<Tuple>> = vec![Vec::new(); n];
        let mut worker_masks: Vec<Vec<(Tid, u128)>> = vec![Vec::new(); n];
        for &tid in &report.inserted {
            let tuple = self.master.tuple(tid).expect("just inserted").clone();
            for (w, mask) in self.router.route_insert(&tuple) {
                worker_masks[w as usize].push((tid, mask));
                worker_inserts[w as usize].push(tuple.clone());
            }
        }
        for &tid in &report.deleted {
            // Tombstoned rows stay resident, so the dead tuple's values are
            // still there to replay its grid walk.
            let tuple = self.master.tuple(tid).expect("tombstones retained").clone();
            self.router.note_delete(&tuple);
        }

        let mut seen: HashSet<Fact> = HashSet::new();
        let mut notice_rounds = 0u32;
        let exchange = if self.router.drifted() {
            // Churn skewed the frozen cell grid past the refinement
            // threshold: delta routing would keep piling load onto hot
            // cells, so re-partition from scratch and rebuild the fleet.
            dcer_obs::instant("update.repartition");
            dcer_obs::counter_add("update.repartitions", 1);
            self.repartitions += 1;
            self.rebuild()?;
            Exchange { rebuilt: true, ..self.exchange()? }
        } else {
            // Phase A — stage everywhere, then exchange retraction notices
            // to a global fixpoint. Deletes go to every worker (fragments
            // tolerate deletes of tuples they don't host); a worker holding
            // a dropped fact under External provenance only learns of its
            // death here.
            let mut frontier: Vec<Fact> = Vec::new();
            for (i, engine) in self.engines.iter_mut().enumerate() {
                engine.extend_rule_scope(&worker_masks[i]);
                let staged =
                    engine.stage_update(std::mem::take(&mut worker_inserts[i]), &report.deleted);
                frontier.extend(staged.into_iter().filter(|&f| seen.insert(f)));
            }
            while !frontier.is_empty() {
                notice_rounds += 1;
                let notices = std::mem::take(&mut frontier);
                for engine in &mut self.engines {
                    let dropped = engine.retract_notices(&notices);
                    frontier.extend(dropped.into_iter().filter(|&f| seen.insert(f)));
                }
            }
            dcer_obs::histogram_record("update.notice_rounds", notice_rounds as u64);
            // Phase B — rederive and deduce to the new global fixpoint.
            self.exchange()?
        };

        // Net delta: a fact both retracted and rederived was only
        // transiently over-deleted and cancels out.
        let (mut retracted, mut deduced, mut over_deleted) = (Vec::new(), Vec::new(), 0);
        if !exchange.rebuilt {
            let deduced_set: BTreeSet<Fact> = exchange.deduced.into_iter().collect();
            let retracted_set: BTreeSet<Fact> = seen.into_iter().collect();
            over_deleted = retracted_set.intersection(&deduced_set).count() as u64;
            retracted = retracted_set.difference(&deduced_set).copied().collect();
            deduced = deduced_set.difference(&retracted_set).copied().collect();
            dcer_obs::histogram_record("update.retracted", retracted.len() as u64);
            dcer_obs::histogram_record("update.deduced", deduced.len() as u64);
        }
        let profile = dcer_obs::with_collector(|c| {
            dcer_obs::RunProfile::build(c, wall.elapsed().as_nanos() as u64)
        });
        Ok(UpdateRunReport {
            outcome: self.outcome(),
            inserted: report.inserted,
            deleted: report.deleted,
            retracted,
            deduced,
            over_deleted,
            notice_rounds,
            repartitioned: exchange.rebuilt,
            bsp: exchange.bsp,
            profile,
        })
    }

    /// The current global `Γ` (worker 0's replica) with stats aggregated
    /// over the fleet.
    pub fn outcome(&mut self) -> ChaseOutcome {
        let state = self.engines[0].state_mut().clone();
        let mut stats = ChaseStats::default();
        for e in &self.engines {
            stats.add(&e.stats());
        }
        ChaseOutcome { matches: state.matches, validated: state.validated, stats }
    }

    /// Consume the session, moving out worker 0's replica of `Γ`.
    pub(crate) fn into_state(mut self) -> ChaseState {
        std::mem::replace(self.engines[0].state_mut(), ChaseState::new())
    }

    /// The authoritative dataset as of the last update (tombstones
    /// included; `total_live()` is the paper's `|D|`).
    pub fn dataset(&self) -> &Dataset {
        &self.master
    }

    /// Number of update batches applied.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Number of drift-triggered full re-partitions.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Number of fault-free reruns forced by aborted exchanges, the boot's
    /// included.
    pub fn fault_reruns(&self) -> u32 {
        self.fault_reruns
    }

    /// `(inserts routed, deletes noted)` by the delta router since the last
    /// (re-)partition.
    pub fn router_counters(&self) -> (u64, u64) {
        self.router.counters()
    }

    /// The resident engine fleet, in worker order — the serving layer
    /// reads each worker's support log off these at snapshot-publish time.
    pub(crate) fn engines(&self) -> &[ChaseEngine] {
        &self.engines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_bsp::FaultPlan;
    use dcer_chase::{run_match, ChaseConfig};
    use dcer_ml::EqualTextClassifier;
    use dcer_relation::{Catalog, RelationSchema, ValueType};
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of(
                "R",
                &[("k", ValueType::Str), ("x", ValueType::Str)],
            )])
            .unwrap(),
        )
    }

    fn rules() -> RuleSet {
        dcer_mrl::parse_rules(
            &catalog(),
            "match md: R(t), R(s), t.k = s.k -> t.id = s.id;
             match deep: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id;
             match val: R(t), R(s), t.x = s.x -> m(t.k, s.k);
             match use: R(t), R(s), m(t.k, s.k) -> t.id = s.id",
        )
        .unwrap()
    }

    fn registry() -> MlRegistry {
        let mut r = MlRegistry::new();
        r.register("m", Arc::new(EqualTextClassifier));
        r
    }

    fn dataset(rows: &[(&str, &str)]) -> Dataset {
        let mut d = Dataset::new(catalog());
        for &(k, x) in rows {
            d.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        d
    }

    /// From-scratch closure over `d`: the sequential `Match`, which shares
    /// no code with the session's partition, fleet or exchange.
    fn scratch(d: &Dataset, rules: &RuleSet) -> ChaseOutcome {
        run_match(d, rules, &registry(), &ChaseConfig::default()).unwrap()
    }

    fn assert_matches_scratch(session: &mut UpdateSession, ctx: &str) {
        let mut expected = scratch(session.dataset(), &rules());
        let mut got = session.outcome();
        assert_eq!(got.matches.clusters(), expected.matches.clusters(), "{ctx}: clusters");
        assert_eq!(
            got.validated.iter().copied().collect::<BTreeSet<_>>(),
            expected.validated.iter().copied().collect::<BTreeSet<_>>(),
            "{ctx}: validated"
        );
    }

    #[test]
    fn insert_then_delete_batches_converge_to_scratch_closure() {
        let rows =
            [("a", "1"), ("a", "2"), ("b", "2"), ("b", "3"), ("c", "9"), ("d", "9"), ("e", "7")];
        for workers in [1, 2, 4] {
            let d = dataset(&rows);
            let mut session =
                UpdateSession::new(&d, rules(), registry(), DmatchConfig::new(workers)).unwrap();
            assert_matches_scratch(&mut session, "bootstrap");

            // Insert a bridge ("e","9") linking e to the c/d component, and
            // delete a tuple of the a/b chain.
            let mut batch = UpdateBatch::new();
            batch.insert(0, vec!["e".into(), "9".into()]).delete(Tid::new(0, 2));
            let report = session.run_update(&batch).unwrap();
            assert_eq!(report.inserted.len(), 1);
            assert_eq!(report.deleted, vec![Tid::new(0, 2)]);
            assert_matches_scratch(&mut session, &format!("update1 workers={workers}"));

            // Second batch: delete the bridge again plus a ghost id; repeat
            // a delete of the already-dead tuple.
            let mut batch2 = UpdateBatch::new();
            batch2
                .delete(report.inserted[0])
                .delete(Tid::new(0, 2))
                .delete(Tid::new(0, 999))
                .insert(0, vec!["f".into(), "7".into()]);
            let report2 = session.run_update(&batch2).unwrap();
            assert_eq!(report2.deleted, vec![report.inserted[0]]);
            assert_matches_scratch(&mut session, &format!("update2 workers={workers}"));
            assert_eq!(session.updates_applied(), 2);
        }
    }

    #[test]
    fn retraction_notices_kill_externally_held_facts() {
        // Two keyed pairs chained by x-values; deleting the middle tuple
        // must retract matches on every worker replica, including ones that
        // hold them only via External provenance.
        let rows = [("a", "1"), ("a", "2"), ("b", "2"), ("b", "3")];
        let d = dataset(&rows);
        let mut session =
            UpdateSession::new(&d, rules(), registry(), DmatchConfig::new(2)).unwrap();
        let mut before = session.outcome();
        assert_eq!(before.matches.clusters().len(), 1, "chain a~b closed");

        let mut batch = UpdateBatch::new();
        batch.delete(Tid::new(0, 1)); // ("a","2"): the bridge
        let report = session.run_update(&batch).unwrap();
        assert!(!report.retracted.is_empty(), "bridge deletion must retract matches");
        assert_matches_scratch(&mut session, "post-delete");
        // The net delta really is a delta: nothing reported both ways.
        let r: BTreeSet<Fact> = report.retracted.iter().copied().collect();
        let a: BTreeSet<Fact> = report.deduced.iter().copied().collect();
        assert!(r.is_disjoint(&a));
    }

    #[test]
    fn empty_and_ghost_only_batches_are_cheap_noops() {
        let d = dataset(&[("a", "1"), ("b", "1")]);
        let mut session =
            UpdateSession::new(&d, rules(), registry(), DmatchConfig::new(2)).unwrap();
        let before = session.outcome().matches.clusters();
        let report = session.run_update(&UpdateBatch::new()).unwrap();
        assert!(report.retracted.is_empty() && report.deduced.is_empty());
        assert_eq!(report.notice_rounds, 0);
        let mut ghosts = UpdateBatch::new();
        ghosts.delete(Tid::new(0, 77)).delete(Tid::new(0, 78));
        let report = session.run_update(&ghosts).unwrap();
        assert!(report.deleted.is_empty(), "ghost deletes change nothing");
        assert_eq!(session.outcome().matches.clusters(), before);
    }

    #[test]
    fn drift_triggers_full_repartition_and_stays_correct() {
        // Hot-key churn on a fine grid (cf. the router's drift test): a
        // key-hash rule over many virtual cells concentrates every
        // hot-keyed insert on the same cells, so the frozen assignment
        // skews, the session falls back to a full re-partition — and still
        // agrees with a from-scratch run. A single two-variable rule keeps
        // replication narrow (broadcast-heavy rules spread load so evenly
        // no churn pattern can skew a small grid).
        let md_only =
            dcer_mrl::parse_rules(&catalog(), "match md: R(t), R(s), t.k = s.k -> t.id = s.id")
                .unwrap();
        let mut d = Dataset::new(catalog());
        for i in 0..24 {
            d.insert(0, vec![format!("k{i}").into(), format!("x{i}").into()]).unwrap();
        }
        let mut cfg = DmatchConfig::new(2);
        cfg.virtual_factor = Some(16);
        let mut session = UpdateSession::new(&d, md_only.clone(), registry(), cfg).unwrap();

        let mut repartitioned = false;
        for round in 0..10 {
            let mut batch = UpdateBatch::new();
            for j in 0..100 {
                batch.insert(0, vec!["hot".into(), format!("h{}", (round * 100 + j) % 5).into()]);
            }
            let report = session.run_update(&batch).unwrap();
            repartitioned |= report.repartitioned;
            if report.repartitioned {
                break;
            }
        }
        assert!(repartitioned, "hot-key churn must eventually trip the drift fallback");
        assert!(session.repartitions() >= 1);
        let mut expected = scratch(session.dataset(), &md_only);
        let mut got = session.outcome();
        assert_eq!(got.matches.clusters(), expected.matches.clusters(), "post-repartition");
    }

    #[test]
    fn routed_tuples_join_resident_tuples_across_updates() {
        // A routed insert must be able to close a match with a resident
        // tuple through every rule — including the ML-validated path.
        let d = dataset(&[("p", "1"), ("q", "2"), ("r", "3")]);
        let mut session =
            UpdateSession::new(&d, rules(), registry(), DmatchConfig::new(4)).unwrap();
        assert_eq!(session.outcome().matches.clusters().len(), 0);
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec!["p".into(), "2".into()]); // joins p (key) and q (x-value)
        let report = session.run_update(&batch).unwrap();
        assert!(!report.deduced.is_empty());
        assert_matches_scratch(&mut session, "routed join");
        let (ins, del) = session.router_counters();
        assert_eq!((ins, del), (1, 0));
    }

    #[test]
    fn rejected_batch_leaves_the_session_unchanged() {
        let rows = [("a", "1"), ("a", "2"), ("b", "2"), ("b", "3")];
        for workers in [1, 2] {
            let mut session = UpdateSession::new(
                &dataset(&rows),
                rules(),
                registry(),
                DmatchConfig::new(workers),
            )
            .unwrap();
            let before = session.outcome().matches.clusters();
            // A delete and a good insert ride with a bad-arity insert.
            let mut bad = UpdateBatch::new();
            bad.delete(Tid::new(0, 0))
                .insert(0, vec!["c".into(), "3".into()])
                .insert(0, vec!["arity".into()]);
            assert!(session.run_update(&bad).is_err());
            assert!(session.dataset().is_live(Tid::new(0, 0)), "the delete must not apply");
            assert_eq!(session.dataset().total_tuples(), rows.len(), "nor the good insert");
            assert_eq!(session.updates_applied(), 0);
            assert_eq!(session.outcome().matches.clusters(), before);

            let mut good = UpdateBatch::new();
            good.insert(0, vec!["c".into(), "3".into()]);
            session.run_update(&good).unwrap();
            assert_matches_scratch(
                &mut session,
                &format!("after a rejected batch, workers={workers}"),
            );
        }
    }

    #[test]
    fn admit_survives_exhausted_retries() {
        // Drop worker 0's step-0 deposit to worker 1 and every retry: each
        // exchange that sends 0->1 at step 0 aborts, and the session must
        // rebuild from its master dataset instead of losing the fleet.
        let plan = FaultPlan::parse("drop 0->1@0; drop 0->1@1; drop 0->1@3; drop 0->1@7").unwrap();
        let cfg = DmatchConfig::new(2).with_faults(FaultConfig::with_plan(plan));
        let rows = [("a", "1"), ("a", "2"), ("b", "2"), ("b", "3"), ("c", "9"), ("d", "9")];
        let mut session = UpdateSession::new(&dataset(&rows), rules(), registry(), cfg).unwrap();
        assert_eq!(session.fault_reruns(), 1, "the boot exchange aborts and reruns");
        assert_matches_scratch(&mut session, "boot");

        let mut batch = UpdateBatch::new();
        batch.insert(0, vec!["e".into(), "9".into()]).delete(Tid::new(0, 2));
        let report = session.run_update(&batch).unwrap();
        assert_eq!(session.fault_reruns(), 2, "the first admit's exchange aborts too");
        assert!(report.repartitioned, "an aborted admit rebuilds from the master dataset");
        assert_matches_scratch(&mut session, "admit 1");
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec!["a".into(), "7".into()]).insert(0, vec!["f".into(), "3".into()]);
        session.run_update(&batch).unwrap();
        assert_matches_scratch(&mut session, "admit 2");
        assert_eq!(session.updates_applied(), 2);
    }
}
