//! [`DcerSession`]: the high-level entry point binding a catalog, a rule
//! set and an ML model registry, with sequential, naive and parallel
//! execution plus the rule-subset variants used in the paper's evaluation
//! (`DMatch_C`, `DMatch_D`).

use crate::dmatch::{run_dmatch, DmatchConfig, DmatchReport};
use dcer_chase::{naive_chase, ChaseConfig, ChaseOutcome};
use dcer_ml::MlRegistry;
use dcer_mrl::RuleSet;
use dcer_pool::WorkPool;
use dcer_relation::{Catalog, Dataset};
use std::sync::Arc;

/// A configured deep-and-collective-ER session.
#[derive(Clone)]
pub struct DcerSession {
    catalog: Arc<Catalog>,
    rules: RuleSet,
    registry: MlRegistry,
    chase: ChaseConfig,
    /// The session's work-stealing pool (one lane per available core),
    /// threaded through every run so partitioning, index/fleet builds and
    /// threaded BSP workers all share one set of threads. Clones share it.
    pool: Arc<WorkPool>,
}

impl DcerSession {
    /// Create a session. The rule set must be defined over `catalog`.
    pub fn new(catalog: Arc<Catalog>, rules: RuleSet, registry: MlRegistry) -> DcerSession {
        let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
        DcerSession {
            catalog,
            rules,
            registry,
            chase: ChaseConfig::default(),
            pool: Arc::new(WorkPool::new(lanes)),
        }
    }

    /// Parse rules from MRL source text and create a session.
    pub fn from_source(
        catalog: Arc<Catalog>,
        rule_src: &str,
        registry: MlRegistry,
    ) -> Result<DcerSession, String> {
        let rules = dcer_mrl::parse_rules(&catalog, rule_src).map_err(|e| e.to_string())?;
        Ok(DcerSession::new(catalog, rules, registry))
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The session's rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The session's model registry.
    pub fn registry(&self) -> &MlRegistry {
        &self.registry
    }

    /// The session's shared work-stealing pool.
    pub fn pool(&self) -> &Arc<WorkPool> {
        &self.pool
    }

    /// Override the chase configuration.
    pub fn with_chase_config(mut self, chase: ChaseConfig) -> DcerSession {
        self.chase = chase;
        self
    }

    /// Sequential `Match` (Section V-A). Panics on unregistered models —
    /// use [`DcerSession::try_run_sequential`] to handle that gracefully.
    pub fn run_sequential(&self, dataset: &Dataset) -> ChaseOutcome {
        self.try_run_sequential(dataset).expect("session models registered")
    }

    /// Sequential `Match`, fallible: one [`dcer_chase::ChaseEngine`] over
    /// the whole dataset, its indexes built on the session pool, run to
    /// fixpoint.
    pub fn try_run_sequential(&self, dataset: &Dataset) -> Result<ChaseOutcome, String> {
        let _span = dcer_obs::span("session.sequential");
        let mut engine = self.incremental_engine(dataset)?;
        engine.prebuild_indexes_on(&self.pool);
        engine.update_fixpoint();
        Ok(engine.into_outcome())
    }

    /// The naive reference chase (test/verification use; exponential).
    pub fn run_naive(&self, dataset: &Dataset) -> Result<ChaseOutcome, String> {
        let _span = dcer_obs::span("session.naive");
        let state = naive_chase(dataset, &self.rules, &self.registry)?;
        Ok(ChaseOutcome {
            matches: state.matches,
            validated: state.validated,
            stats: Default::default(),
        })
    }

    /// Build a long-lived incremental engine over `dataset`: run
    /// [`dcer_chase::ChaseEngine::update_fixpoint`] once, then feed CDC
    /// insert/delete batches through
    /// [`dcer_chase::ChaseEngine::apply_update`] — the ΔD extension of
    /// Section V-A's remark. The engine starts fully dirty, so the first
    /// `apply_update` also runs the full `Deduce` if `update_fixpoint` was
    /// skipped.
    pub fn incremental_engine(&self, dataset: &Dataset) -> Result<dcer_chase::ChaseEngine, String> {
        let mut engine = dcer_chase::ChaseEngine::new(
            dataset.clone(),
            &self.rules,
            &self.registry,
            &self.chase,
        )?;
        engine.set_pool(Arc::clone(&self.pool));
        Ok(engine)
    }

    /// Build a resident incremental-maintenance session over `dataset`:
    /// partition, build the engine fleet, run the initial fixpoint, then
    /// feed CDC insert/delete batches through
    /// [`crate::update::UpdateSession::run_update`] — the distributed
    /// extension of [`DcerSession::incremental_engine`].
    pub fn update_session(
        &self,
        dataset: &Dataset,
        config: &DmatchConfig,
    ) -> Result<crate::update::UpdateSession, String> {
        let mut cfg = config.clone();
        cfg.chase = self.chase.clone();
        cfg.pool.get_or_insert_with(|| Arc::clone(&self.pool));
        crate::update::UpdateSession::new(dataset, self.rules.clone(), self.registry.clone(), cfg)
    }

    /// Boot a resident serving resolver over `dataset`: build an
    /// [`crate::update::UpdateSession`], publish its fixpoint as the
    /// epoch-0 snapshot and hand the session to a dedicated writer thread
    /// that drains admitted CDC batches — the serving extension of
    /// [`DcerSession::update_session`]. Readers query the returned
    /// [`crate::serve::ResidentResolver`] concurrently; each read clones
    /// the current snapshot's `Arc` out of one `Mutex<Arc<_>>`, so it never
    /// waits for an in-flight admit.
    pub fn resident(
        &self,
        dataset: &Dataset,
        config: &DmatchConfig,
    ) -> Result<crate::serve::ResidentResolver, String> {
        Ok(crate::serve::ResidentResolver::start(self.update_session(dataset, config)?))
    }

    /// Parallel `DMatch` (Section V-B).
    pub fn run_parallel(
        &self,
        dataset: &Dataset,
        config: &DmatchConfig,
    ) -> Result<DmatchReport, String> {
        let _span = dcer_obs::span("session.parallel");
        let mut cfg = config.clone();
        cfg.chase = self.chase.clone();
        cfg.pool.get_or_insert_with(|| Arc::clone(&self.pool));
        run_dmatch(dataset, &self.rules, &self.registry, &cfg)
    }

    /// `DMatch_C`: collective ER only — keep rules *without* id predicates
    /// in their preconditions (no recursion).
    pub fn collective_only(&self) -> DcerSession {
        let mut s = self.clone();
        s.rules = self.rules.filtered(|r| !r.has_id_precondition());
        s
    }

    /// `DMatch_D`: deep ER only — keep rules with at most `max_vars` tuple
    /// variables (the paper uses 4, citing that real-life quality rules
    /// rarely exceed 3).
    pub fn deep_only(&self, max_vars: usize) -> DcerSession {
        let mut s = self.clone();
        s.rules = self.rules.filtered(|r| r.num_vars() <= max_vars);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_ml::EqualTextClassifier;
    use dcer_relation::{RelationSchema, ValueType};

    fn session() -> DcerSession {
        let catalog = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of(
                "R",
                &[("k", ValueType::Str), ("x", ValueType::Str)],
            )])
            .unwrap(),
        );
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(EqualTextClassifier));
        DcerSession::from_source(
            catalog,
            "match md: R(t), R(s), t.k = s.k -> t.id = s.id;
             match deep: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id",
            reg,
        )
        .unwrap()
    }

    fn data() -> Dataset {
        let mut d = Dataset::new(session().catalog().clone());
        for (k, x) in [("a", "1"), ("a", "2"), ("b", "2"), ("b", "3"), ("c", "9")] {
            d.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        d
    }

    #[test]
    fn sequential_parallel_naive_agree() {
        let s = session();
        let d = data();
        let mut seq = s.run_sequential(&d);
        let mut naive = s.run_naive(&d).unwrap();
        let mut par = s.run_parallel(&d, &DmatchConfig::new(3)).unwrap();
        assert_eq!(seq.matches.clusters(), naive.matches.clusters());
        assert_eq!(seq.matches.clusters(), par.outcome.matches.clusters());
        assert_eq!(seq.matches.clusters().len(), 1, "recursion links a,b,c keys");
    }

    #[test]
    fn collective_only_drops_recursive_rules() {
        let s = session();
        assert_eq!(s.rules().len(), 2);
        let c = s.collective_only();
        assert_eq!(c.rules().len(), 1);
        assert_eq!(c.rules().rules()[0].name, "md");
        // Without recursion the chain a-b-c via x cannot close.
        let mut out = c.run_sequential(&data());
        assert!(out.matches.clusters().len() > 1);
    }

    #[test]
    fn deep_only_caps_variable_count() {
        let s = session();
        let d2 = s.deep_only(2);
        assert_eq!(d2.rules().len(), 1);
        let d3 = s.deep_only(3);
        assert_eq!(d3.rules().len(), 2);
    }

    #[test]
    fn from_source_surfaces_parse_errors() {
        let catalog = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of("R", &[("k", ValueType::Str)])]).unwrap(),
        );
        let err = DcerSession::from_source(catalog, "match broken: R(t) -> ", MlRegistry::new());
        assert!(err.is_err());
    }

    #[test]
    fn missing_model_is_reported_not_panicking_via_try() {
        let catalog = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of("R", &[("k", ValueType::Str)])]).unwrap(),
        );
        let s = DcerSession::from_source(
            catalog.clone(),
            "match r: R(t), R(s), nosuch(t.k, s.k) -> t.id = s.id",
            MlRegistry::new(),
        )
        .unwrap();
        let d = Dataset::new(catalog);
        assert!(s.try_run_sequential(&d).is_err());
    }
}
