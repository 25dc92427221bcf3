//! The sequential `Match` algorithm (paper Fig. 3) and its incremental core
//! `IncDeduce` (Fig. 4) — which double as the per-worker partial-evaluation
//! (`A`) and incremental (`A_Δ`) algorithms of the parallel `DMatch`.
//!
//! ## How the two phases divide the work
//!
//! Because the *data* never changes during the chase — only the id/ML fact
//! set `Γ` grows — the support valuations (those satisfying the atoms,
//! constant and equality predicates) are fixed. `Deduce` enumerates them
//! once with inverted indices:
//!
//! - valuations whose recursive predicates all hold **fire** their head;
//! - valuations blocked only on *waitable* recursive predicates (id
//!   predicates, or ML predicates some rule head can validate) are recorded
//!   in the dependency store `H` as `l₁ ∧ … ∧ l_n → l`;
//! - valuations blocked on an unwaitable false ML predicate are dead and
//!   pruned during enumeration.
//!
//! `IncDeduce` then never re-runs full joins: it fires dependencies whose
//! antecedents became valid. Only if `H` overflowed its capacity `K` does it
//! fall back to update-driven join re-evaluation seeded by the new facts in
//! `ΔΓ` — exactly the two strategies of Fig. 4 (lines 2-3 vs lines 4-7).

use crate::batch::DeltaBatch;
use crate::deps::{DepStore, Pending, Ready};
use crate::eval::{enumerate_with_program, EvalScratch, ValuationSink};
use crate::facts::{ChaseState, Fact, MlOracle, MlSigTable};
use crate::plan::{CompiledHead, CompiledRule, RecPred};
use crate::program::RuleProgram;
use crate::support::{Provenance, SupportLog};
use crate::union_find::MatchSet;
use dcer_ml::MlRegistry;
use dcer_mrl::{RuleSet, TupleVar};
use dcer_relation::{Dataset, IndexSet, RelId, Tid, Tuple};
use std::collections::{HashMap, HashSet, VecDeque};

/// Tuning knobs for the engine.
#[derive(Debug, Clone)]
pub struct ChaseConfig {
    /// Capacity `K` of the dependency store `H`. Correctness never depends
    /// on it; small values exercise the update-driven fallback, and `0`
    /// keeps no dependencies at all: once any valuation has to wait, every
    /// later `IncDeduce` round re-joins seeded on `ΔΓ`.
    pub dep_capacity: usize,
    /// Share one ML memo scope across every rule, so rules with the same
    /// predicate signature never re-score a pair (an MQO-style evaluation
    /// sharing). `false` reproduces the per-rule evaluation of
    /// `DMatch_noMQO`.
    pub share_ml_across_rules: bool,
    /// Candidate window width of the enumerator
    /// ([`crate::eval::enumerate_with_program`]), clamped to ≥ 1: ML and id
    /// predicates are evaluated over windows of up to this many
    /// candidates. Every width yields bit-identical outcomes, counters
    /// included; 1 is per-candidate evaluation.
    pub batch_size: usize,
}

impl Default for ChaseConfig {
    fn default() -> ChaseConfig {
        ChaseConfig { dep_capacity: 1 << 20, share_ml_across_rules: true, batch_size: 1024 }
    }
}

/// Counters reported by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ChaseStats {
    /// Complete support valuations visited.
    pub valuations: u64,
    /// Facts newly deduced (id matches + validated predictions).
    pub facts_deduced: u64,
    /// Dependencies recorded in `H`.
    pub deps_recorded: u64,
    /// Dependencies fired from `H`.
    pub deps_fired: u64,
    /// Dependencies dropped because `H` was full.
    pub deps_dropped: u64,
    /// Seeded (update-driven) join re-evaluations.
    pub seeded_joins: u64,
    /// Real ML classifier invocations.
    pub ml_calls: u64,
    /// ML memo-cache hits.
    pub ml_cache_hits: u64,
    /// Answers held in the ML memo (never evicted, so this is also the
    /// memo's share of memory in entries).
    pub ml_memo_entries: u64,
    /// `IncDeduce` rounds executed.
    pub rounds: u64,
    /// Facts received from peers via `IncDeduce`.
    pub facts_received: u64,
    /// Received facts already known locally (absorbed, not re-applied).
    pub facts_absorbed: u64,
}

impl ChaseStats {
    /// Pointwise sum (aggregating worker stats).
    pub fn add(&mut self, other: &ChaseStats) {
        self.valuations += other.valuations;
        self.facts_deduced += other.facts_deduced;
        self.deps_recorded += other.deps_recorded;
        self.deps_fired += other.deps_fired;
        self.deps_dropped += other.deps_dropped;
        self.seeded_joins += other.seeded_joins;
        self.ml_calls += other.ml_calls;
        self.ml_cache_hits += other.ml_cache_hits;
        self.ml_memo_entries += other.ml_memo_entries;
        self.rounds += other.rounds;
        self.facts_received += other.facts_received;
        self.facts_absorbed += other.facts_absorbed;
    }

    /// Publish these counters into the global [`dcer_obs`] registry under
    /// `chase.*`, labeled with the worker index when given (no-op unless a
    /// recorder is installed).
    pub fn publish(&self, worker: Option<u32>) {
        if !dcer_obs::enabled() {
            return;
        }
        let add = |name, value| match worker {
            Some(w) => dcer_obs::counter_add_labeled(name, w, value),
            None => dcer_obs::counter_add(name, value),
        };
        add("chase.valuations", self.valuations);
        add("chase.facts_deduced", self.facts_deduced);
        add("chase.deps.recorded", self.deps_recorded);
        add("chase.deps.fired", self.deps_fired);
        add("chase.deps.dropped", self.deps_dropped);
        add("chase.seeded_joins", self.seeded_joins);
        add("chase.ml_calls", self.ml_calls);
        add("chase.ml_cache_hits", self.ml_cache_hits);
        add("chase.ml_memo_entries", self.ml_memo_entries);
        add("chase.rounds", self.rounds);
        add("chase.facts_received", self.facts_received);
        add("chase.facts_absorbed", self.facts_absorbed);
    }
}

/// The result of a chase run: the paper's `Γ`.
#[derive(Debug)]
pub struct ChaseOutcome {
    /// Deduced matches with transitive closure.
    pub matches: MatchSet,
    /// Validated ML predictions.
    pub validated: HashSet<Fact>,
    /// Work counters.
    pub stats: ChaseStats,
}

/// A new-fact event queued for update-driven processing; for id facts the
/// two pre-merge classes bound the newly-true id pairs.
#[derive(Debug)]
struct DeltaEvent {
    fact: Fact,
    side_a: Vec<Tid>,
    side_b: Vec<Tid>,
}

/// The re-derivation the next fixpoint (whichever entry point runs it)
/// owes the changes staged so far.
#[derive(Debug)]
enum Dirty {
    /// A new engine, or a retraction cascade dropped facts: the surviving
    /// dependency store and delta queue can reference antecedents that no
    /// longer hold, so both are discarded and a full `Deduce` round
    /// re-enumerates (already known facts are absorbed as cheap no-ops;
    /// only facts with surviving alternative support come back).
    Full,
    /// Only inserts happened: seed rule re-evaluation on the new rows (only
    /// valuations touching a new tuple can newly satisfy a precondition).
    Seeds(Vec<(RelId, u32)>),
    /// Nothing staged.
    None,
}

/// The fact-level effect of one [`ChaseEngine::apply_update`] call.
#[derive(Debug, Default)]
pub struct UpdateDelta {
    /// Facts retracted by the deletion cascade and not rederived.
    pub retracted: Vec<Fact>,
    /// Facts newly deduced (including rederivations of over-deleted facts
    /// that had surviving alternative support).
    pub deduced: Vec<Fact>,
}

/// The `Match` engine over one dataset (or HyPart fragment).
pub struct ChaseEngine {
    plans: Vec<CompiledRule>,
    /// Compiled access programs, one per plan, built lazily against the
    /// current index generation (cleared with the indexes).
    programs: Vec<Option<RuleProgram>>,
    /// Reusable enumeration scratch shared by every `run_plan` call.
    scratch: EvalScratch,
    sigs: MlSigTable,
    dataset: Dataset,
    indexes: IndexSet,
    state: ChaseState,
    deps: DepStore,
    oracle: MlOracle,
    /// Fire-ordered provenance of every fact in `state` (see
    /// [`SupportLog`]); drives the deletion cascade.
    log: SupportLog,
    /// Re-derivation obligation accumulated by staged updates.
    dirty: Dirty,
    pending: VecDeque<DeltaEvent>,
    /// rel -> [(plan, rec_pred index)] for body id predicates.
    id_pred_index: HashMap<RelId, Vec<(usize, usize)>>,
    /// sig -> [(plan, rec_pred index)] for body ML predicates.
    ml_pred_index: HashMap<u16, Vec<(usize, usize)>>,
    share_ml_across_rules: bool,
    /// Candidate window width of every enumeration.
    batch_size: usize,
    /// Pool for chunking large classifier miss-batches (see
    /// [`MlOracle::predict_batch`]); absent = score inline.
    pool: Option<std::sync::Arc<dcer_pool::WorkPool>>,
    /// Observed `(checked, pruned)` per plan per recursive predicate,
    /// accumulated by the sink's prune paths — the selectivity input to
    /// [`RuleProgram::reorder_rec_checks`]. Identical at every window
    /// width (same probe multisets), so the width never changes the order.
    rec_stats: Vec<Vec<(u64, u64)>>,
    /// Per-tuple rule masks from HyPart: when set, rule `i` only binds
    /// tuples whose mask has bit `min(i, 127)`.
    rule_scope: Option<std::sync::Arc<HashMap<Tid, u128>>>,
    stats: ChaseStats,
}

impl ChaseEngine {
    /// Build an engine for `dataset` with rule set `rules`, binding ML
    /// models from `registry`.
    pub fn new(
        dataset: Dataset,
        rules: &RuleSet,
        registry: &MlRegistry,
        config: &ChaseConfig,
    ) -> Result<ChaseEngine, String> {
        let sigs = MlSigTable::build(rules);
        let mut plans = CompiledRule::compile_all(rules, &sigs);
        let oracle = MlOracle::new(rules, registry)?;
        let schemes = oracle.signature_schemes();
        for plan in &mut plans {
            plan.bind_signatures(&sigs, &schemes);
        }
        let mut id_pred_index: HashMap<RelId, Vec<(usize, usize)>> = HashMap::new();
        let mut ml_pred_index: HashMap<u16, Vec<(usize, usize)>> = HashMap::new();
        for (pi, plan) in plans.iter().enumerate() {
            for (ri, p) in plan.rec_preds.iter().enumerate() {
                match p {
                    RecPred::Id { left, .. } => {
                        id_pred_index
                            .entry(plan.atoms[left.0 as usize])
                            .or_default()
                            .push((pi, ri));
                    }
                    RecPred::Ml { sig, .. } => {
                        ml_pred_index.entry(*sig).or_default().push((pi, ri));
                    }
                }
            }
        }
        let rec_stats = plans.iter().map(|p| vec![(0, 0); p.rec_preds.len()]).collect();
        Ok(ChaseEngine {
            programs: vec![None; plans.len()],
            scratch: EvalScratch::new(),
            plans,
            sigs,
            dataset,
            indexes: IndexSet::new(),
            state: ChaseState::new(),
            deps: DepStore::new(config.dep_capacity),
            oracle,
            log: SupportLog::new(),
            dirty: Dirty::Full,
            pending: VecDeque::new(),
            id_pred_index,
            ml_pred_index,
            share_ml_across_rules: config.share_ml_across_rules,
            batch_size: config.batch_size,
            pool: None,
            rec_stats,
            rule_scope: None,
            stats: ChaseStats::default(),
        })
    }

    /// Let batched predicate evaluation chunk large classifier
    /// miss-batches across this pool's threads. Purely a scheduling choice:
    /// answers, memo contents and counters are identical with or without a
    /// pool (chunk boundaries are fixed, not pool-derived).
    pub fn set_pool(&mut self, pool: std::sync::Arc<dcer_pool::WorkPool>) {
        self.pool = Some(pool);
    }

    /// The fragment this engine operates on.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Scope each rule's evaluation to the tuples HyPart distributed for it
    /// (see [`dcer_relation::Tid`]-keyed masks in the partition result).
    /// Tuples absent from the map are admitted for every rule.
    pub fn set_rule_scope(&mut self, masks: std::sync::Arc<HashMap<Tid, u128>>) {
        self.rule_scope = Some(masks);
    }

    /// Extend the rule scope with masks for routed delta tuples (no-op on an
    /// unscoped engine, which admits every tuple for every rule anyway).
    /// Masks for already-scoped tuples are OR-ed in. A mask of `0` leaves the
    /// tuple inert — the router found no rule geometry admitting it, so no
    /// valuation here may bind it.
    pub fn extend_rule_scope(&mut self, additions: &[(Tid, u128)]) {
        if additions.is_empty() {
            return;
        }
        if let Some(masks) = &mut self.rule_scope {
            let map = std::sync::Arc::make_mut(masks);
            for &(tid, mask) in additions {
                *map.entry(tid).or_insert(0) |= mask;
            }
        }
    }

    /// Build every index the compiled rule programs will probe — derived in
    /// exact compile order (per plan: constant filters, then equality
    /// edges) — on up to `threads` scoped threads via
    /// [`IndexSet::build_all`], then compile all programs eagerly.
    ///
    /// Calling this is purely a scheduling choice: slots, dictionary codes
    /// and programs come out identical to the lazy per-`deduce` path, but
    /// the hash-and-intern passes over the fragment run in parallel instead
    /// of serially inside the first superstep.
    pub fn prebuild_indexes(&mut self, threads: usize) {
        self.prebuild_on(|indexes, dataset, keys| indexes.build_all(dataset, keys, threads));
    }

    /// [`ChaseEngine::prebuild_indexes`] on a shared [`dcer_pool::WorkPool`]
    /// instead of a transient one — the path the pipeline uses so every
    /// index build reuses the session's pool threads.
    pub fn prebuild_indexes_on(&mut self, pool: &dcer_pool::WorkPool) {
        self.prebuild_on(|indexes, dataset, keys| indexes.build_all_on(dataset, keys, pool));
    }

    fn prebuild_on(
        &mut self,
        build: impl FnOnce(&mut IndexSet, &Dataset, &[(RelId, dcer_relation::AttrId)]),
    ) {
        // "chase.index_build" is the IndexBuild phase tag the causal
        // profiler attributes separately from Deduce-phase chase spans.
        let _span = dcer_obs::span("chase.index_build");
        let mut keys: Vec<(RelId, dcer_relation::AttrId)> = Vec::new();
        for plan in &self.plans {
            for (v, filters) in plan.const_filters.iter().enumerate() {
                for (attr, _) in filters {
                    keys.push((plan.atoms[v], *attr));
                }
            }
            for e in &plan.eq_edges {
                keys.push((plan.atoms[e.left.0 .0 as usize], e.left.1));
                keys.push((plan.atoms[e.right.0 .0 as usize], e.right.1));
            }
        }
        build(&mut self.indexes, &self.dataset, &keys);
        for plan_idx in 0..self.plans.len() {
            if self.programs[plan_idx].is_none() {
                self.programs[plan_idx] = Some(RuleProgram::compile(
                    &self.plans[plan_idx],
                    &self.dataset,
                    &mut self.indexes,
                ));
            }
        }
    }

    /// Mutable access to the chase state: the BSP deducer moves it out at
    /// the end of a run, tests inspect it in place.
    pub fn state_mut(&mut self) -> &mut ChaseState {
        &mut self.state
    }

    /// Read-only view of the fire-ordered support log — the provenance of
    /// every fact currently in the chase state (first derivations only,
    /// `External` for facts received in a BSP exchange). The serving layer
    /// exports this per snapshot so `explain` answers never touch the
    /// live engine.
    pub fn support_log(&self) -> &crate::support::SupportLog {
        &self.log
    }

    /// Snapshot of the counters (classifier counters refreshed).
    pub fn stats(&self) -> ChaseStats {
        let mut s = self.stats;
        s.ml_calls = self.oracle.calls();
        s.ml_cache_hits = self.oracle.hits();
        s.ml_memo_entries = self.oracle.memo_entries() as u64;
        let (rec, fired, dropped) = self.deps.counters();
        s.deps_recorded = rec;
        s.deps_fired = fired;
        s.deps_dropped = dropped;
        s
    }

    /// `A_Δ` as a batch: discharge any staged work, absorb a batch received
    /// from peers (duplicates are counted and skipped, not re-applied), run
    /// `IncDeduce` to local fixpoint, and emit the batch of *locally*
    /// deduced new facts (the received ones are already known to the
    /// sender).
    pub fn incdeduce(&mut self, received: &DeltaBatch) -> DeltaBatch {
        DeltaBatch::new(self.fixpoint(Some(received.as_slice())))
    }

    /// `A`: drive the staged work to a new local fixpoint; returns the facts
    /// newly deduced here in deduction order (rederivations of over-deleted
    /// facts included). A new engine starts fully dirty, so its first call
    /// is `Match` (Fig. 3): one full `Deduce`, then `IncDeduce` to
    /// quiescence.
    pub fn update_fixpoint(&mut self) -> Vec<Fact> {
        self.fixpoint(None)
    }

    /// Checkpoint the engine's durable deduction state as a canonical
    /// batch: validated ML facts plus a spanning set of id facts (see
    /// [`ChaseState::to_delta`]). Restoring via [`ChaseEngine::recover`]
    /// yields the same `E_id` closure and validated set.
    pub fn snapshot(&mut self) -> DeltaBatch {
        self.state.to_delta()
    }

    /// Crash recovery: discard the volatile chase state (Γ, the dependency
    /// store H, queued delta events) and rebuild by re-running the full
    /// local fixpoint over the fragment — repopulating H, which a bare
    /// state copy could not — then absorbing `checkpoint` (the last
    /// [`ChaseEngine::snapshot`], empty when there is none). Compiled rule
    /// programs, indexes and the ML oracle's memo survive: the fragment is
    /// immutable and the oracle is a pure cache, so recovery costs no
    /// classifier re-calls. Returns every fact the rebuilt engine deduces,
    /// for re-announcement to peers.
    pub fn recover(&mut self, checkpoint: &[Fact]) -> Vec<Fact> {
        let _span = dcer_obs::span("chase.recover");
        self.state = ChaseState::new();
        self.log.clear();
        self.dirty = Dirty::Full;
        let mut out = self.fixpoint(None);
        out.extend(self.fixpoint(Some(checkpoint)));
        out
    }

    /// The one fixpoint behind every entry point: discharge the staged
    /// [`Dirty`] obligation, absorb `received` (facts from peers; `None`
    /// when nothing was received), then run `IncDeduce` to quiescence.
    /// Returns the facts newly deduced here, in deduction order.
    fn fixpoint(&mut self, received: Option<&[Fact]>) -> Vec<Fact> {
        let mut out = Vec::new();
        match std::mem::replace(&mut self.dirty, Dirty::None) {
            Dirty::Full => {
                let _deduce = dcer_obs::span("chase.deduce");
                self.deps.reset();
                self.pending.clear();
                self.deduce_round(&mut out);
            }
            Dirty::Seeds(rows) => {
                let _span = dcer_obs::span("chase.seeded_update");
                for pi in 0..self.plans.len() {
                    for v in 0..self.plans[pi].num_vars() {
                        let rel = self.plans[pi].atoms[v];
                        for &(r, row) in &rows {
                            if r == rel {
                                self.stats.seeded_joins += 1;
                                self.run_plan(pi, &[(TupleVar(v as u16), row)], &mut out);
                            }
                        }
                    }
                }
            }
            Dirty::None => {}
        }
        let _inc = dcer_obs::span("chase.incdeduce");
        if let Some(received) = received {
            dcer_obs::histogram_record("chase.recv_facts", received.len() as u64);
            self.stats.facts_received += received.len() as u64;
            for &f in received {
                if let Some((side_a, side_b)) = self.state.apply(f) {
                    self.log.push(f, Provenance::External);
                    self.pending.push_back(DeltaEvent { fact: f, side_a, side_b });
                } else {
                    self.stats.facts_absorbed += 1;
                }
            }
        }
        self.incdeduce_loop(&mut out);
        dcer_obs::histogram_record("chase.delta_facts", out.len() as u64);
        out
    }

    /// One full enumeration round over all rules (procedure `Deduce`).
    fn deduce_round(&mut self, out: &mut Vec<Fact>) {
        self.reorder_rec_checks();
        for pi in 0..self.plans.len() {
            let _rule =
                dcer_obs::span("chase.rule").with_arg("rule", self.plans[pi].rule_idx as u64);
            self.run_plan(pi, &[], out);
        }
    }

    /// Refresh each compiled program's recursive-check order from observed
    /// selectivity × model cost: rank a pruning (unwaitable ML) predicate
    /// by `cost_hint × (checked + 1) / (pruned + 1)` — expected cost paid
    /// per candidate eliminated — and keep non-pruning predicates (id, and
    /// waitable ML, whose falsity is not final) last in plan order. Called
    /// once per `Deduce` round, never mid-enumeration, so a round sees one
    /// consistent order; programs not yet compiled keep plan order until
    /// the next round.
    fn reorder_rec_checks(&mut self) {
        for (pi, program) in self.programs.iter_mut().enumerate() {
            let Some(program) = program else { continue };
            let plan = &self.plans[pi];
            let counters = &self.rec_stats[pi];
            program.reorder_rec_checks(|p| match plan.rec_preds[p as usize] {
                RecPred::Ml { sig, waitable: false, .. } => {
                    let (checked, pruned) = counters[p as usize];
                    self.oracle.model_cost(&self.sigs, sig) * (checked + 1) as f64
                        / (pruned + 1) as f64
                }
                _ => f64::INFINITY,
            });
        }
    }

    /// `IncDeduce` to fixpoint: alternate dependency firing with (when
    /// needed) update-driven seeded joins until quiescent.
    fn incdeduce_loop(&mut self, out: &mut Vec<Fact>) {
        loop {
            let _round = dcer_obs::span("chase.round").with_arg("round", self.stats.rounds);
            self.stats.rounds += 1;
            let mut progressed = false;
            // (1) Fire ready dependencies to exhaustion.
            loop {
                let ready = self.deps.collect_ready(&mut self.state);
                if ready.is_empty() {
                    break;
                }
                for dep in ready {
                    progressed |= self.commit(dep, out);
                }
            }
            // (2) Update-driven join re-evaluation, if `H` overflowed and so
            // cannot be trusted to be complete.
            if self.deps.overflowed() {
                while let Some(ev) = self.pending.pop_front() {
                    progressed = true;
                    self.delta_join(&ev, out);
                }
            } else {
                self.pending.clear();
            }
            if !progressed {
                break;
            }
        }
    }

    /// Apply a fired dependency's head; on novelty, log its provenance,
    /// report it and queue its delta event.
    fn commit(&mut self, dep: Ready, out: &mut Vec<Fact>) -> bool {
        match self.state.apply(dep.head) {
            Some((side_a, side_b)) => {
                self.stats.facts_deduced += 1;
                out.push(dep.head);
                self.log.push(
                    dep.head,
                    Provenance::Local { support: dep.support, antecedents: dep.antecedents },
                );
                self.pending.push_back(DeltaEvent { fact: dep.head, side_a, side_b });
                true
            }
            None => false,
        }
    }

    /// Enumerate (optionally seeded) valuations of one plan, firing heads or
    /// recording dependencies.
    fn run_plan(&mut self, plan_idx: usize, seeds: &[(TupleVar, u32)], out: &mut Vec<Fact>) {
        // Compile the plan's access program once per index generation.
        if self.programs[plan_idx].is_none() {
            self.programs[plan_idx] =
                Some(RuleProgram::compile(&self.plans[plan_idx], &self.dataset, &mut self.indexes));
        }
        // Split borrows: the sink needs the mutable state/oracle/deps while
        // the enumerator walks dataset/indexes.
        let share_ml = self.share_ml_across_rules;
        let batch_size = self.batch_size;
        let ChaseEngine {
            plans,
            programs,
            scratch,
            sigs,
            dataset,
            indexes,
            state,
            deps,
            oracle,
            log,
            stats,
            pending,
            rule_scope,
            pool,
            rec_stats,
            ..
        } = self;
        let plan = &plans[plan_idx];
        let program = programs[plan_idx].as_ref().expect("compiled above");
        let rule_mask = 1u128 << plan.rule_idx.min(127);
        let ml_scope = if share_ml { 0 } else { plan.rule_idx as u16 + 1 };
        let mut sink = EngineSink {
            plan,
            dataset,
            sigs,
            state,
            deps,
            oracle,
            log,
            pending,
            out,
            scope: rule_scope.as_deref(),
            rule_mask,
            ml_scope,
            pool: pool.as_deref(),
            rec_stats: &mut rec_stats[plan_idx],
            facts_deduced: 0,
        };
        let visited = enumerate_with_program(
            program, plan, dataset, indexes, seeds, scratch, &mut sink, batch_size,
        );
        let newly = sink.facts_deduced;
        stats.valuations += visited;
        stats.facts_deduced += newly;
    }

    /// Update-driven re-evaluation for one new fact (Fig. 4, lines 4-7).
    fn delta_join(&mut self, ev: &DeltaEvent, out: &mut Vec<Fact>) {
        match ev.fact {
            Fact::Id(a, _) => {
                let rel = a.rel;
                let Some(entries) = self.id_pred_index.get(&rel).cloned() else {
                    return;
                };
                // Newly true id pairs are (x, y) with x, y on opposite
                // pre-merge sides; restrict to tuples hosted locally.
                let local =
                    |tid: &Tid| self.dataset.relation(rel).position(*tid).map(|p| (*tid, p));
                let xs: Vec<(Tid, u32)> = ev.side_a.iter().filter_map(local).collect();
                let ys: Vec<(Tid, u32)> = ev.side_b.iter().filter_map(local).collect();
                for (pi, ri) in entries {
                    let RecPred::Id { left, right } = self.plans[pi].rec_preds[ri] else {
                        continue;
                    };
                    if self.plans[pi].atoms[right.0 as usize] != rel {
                        continue;
                    }
                    for &(_, xr) in &xs {
                        for &(_, yr) in &ys {
                            self.stats.seeded_joins += 2;
                            self.run_plan(pi, &[(left, xr), (right, yr)], out);
                            self.run_plan(pi, &[(left, yr), (right, xr)], out);
                        }
                    }
                }
            }
            Fact::Ml(sig, a, b) => {
                let Some(entries) = self.ml_pred_index.get(&sig).cloned() else {
                    return;
                };
                for (pi, ri) in entries {
                    let RecPred::Ml { left, right, symmetric, .. } = self.plans[pi].rec_preds[ri]
                    else {
                        continue;
                    };
                    let seed_pairs: &[(Tid, Tid)] =
                        if symmetric { &[(a, b), (b, a)] } else { &[(a, b)] };
                    for &(x, y) in seed_pairs {
                        let (Some(xr), Some(yr)) = (
                            self.dataset
                                .relation(self.plans[pi].atoms[left.0 as usize])
                                .position(x),
                            self.dataset
                                .relation(self.plans[pi].atoms[right.0 as usize])
                                .position(y),
                        ) else {
                            continue;
                        };
                        self.stats.seeded_joins += 1;
                        self.run_plan(pi, &[(left, xr), (right, yr)], out);
                    }
                }
            }
        }
    }

    /// Stage a CDC batch: mutate the fragment (tombstoning deletes in
    /// place), patch the inverted indices incrementally, invalidate only
    /// the compiled programs whose atoms touch a changed relation, and run
    /// the deletion cascade. Returns the facts retracted by the cascade
    /// (over-deletions included; [`ChaseEngine::update_fixpoint`] rederives
    /// the ones with surviving alternative support).
    ///
    /// Inserts replicating a tuple id already hosted — live *or*
    /// tombstoned — are skipped: deleted identities are never resurrected,
    /// new data must arrive under fresh ids.
    pub fn stage_update(
        &mut self,
        inserts: Vec<dcer_relation::Tuple>,
        deletes: &[Tid],
    ) -> Vec<Fact> {
        let mut changed: Vec<RelId> = Vec::new();
        let mut new_rows: Vec<(RelId, u32)> = Vec::with_capacity(inserts.len());
        let mut dead: HashSet<Tid> = HashSet::new();
        for &tid in deletes {
            if self.dataset.delete(tid) {
                dead.insert(tid);
                if !changed.contains(&tid.rel) {
                    changed.push(tid.rel);
                }
            }
        }
        for t in inserts {
            let rel = t.tid.rel;
            if self.dataset.relation(rel).contains(t.tid) {
                continue;
            }
            self.dataset.insert_replica(t);
            new_rows.push((rel, self.dataset.relation(rel).len() as u32 - 1));
            if !changed.contains(&rel) {
                changed.push(rel);
            }
        }
        if changed.is_empty() {
            return Vec::new();
        }
        // Patch the existing index slots in place (dictionary codes and
        // slot ids survive, so programs over *unchanged* relations stay
        // compiled — a program compiled dead against an unchanged relation
        // stays correct even if its constant is later interned by another
        // relation's update, since the unchanged relation has no row with
        // that value either way).
        self.indexes.apply_update(&self.dataset, &changed);
        for (pi, plan) in self.plans.iter().enumerate() {
            if plan.atoms.iter().any(|r| changed.contains(r)) {
                self.programs[pi] = None;
            }
        }
        let mut retracted = Vec::new();
        if !dead.is_empty() {
            // Dependencies supported by a dead tuple are vacuous; drop them
            // before they can fire, then cascade through the support log.
            self.deps.purge(&dead);
            retracted = self.cascade(&dead, &HashSet::new());
        }
        if !new_rows.is_empty() {
            match &mut self.dirty {
                Dirty::Full => {}
                Dirty::Seeds(rows) => rows.extend(new_rows),
                Dirty::None => self.dirty = Dirty::Seeds(new_rows),
            }
        }
        retracted
    }

    /// Apply retraction notices from peers: facts another worker retracted
    /// that this worker may hold via [`Provenance::External`]. Cascades
    /// locally and returns the *additional* facts dropped here (the noticed
    /// ones are already known to the sender). Callers must follow up with
    /// [`ChaseEngine::update_fixpoint`] once the notice exchange reaches a
    /// fixpoint.
    pub fn retract_notices(&mut self, facts: &[Fact]) -> Vec<Fact> {
        if facts.is_empty() {
            return Vec::new();
        }
        let noticed: HashSet<Fact> = facts.iter().copied().collect();
        let dropped = self.cascade(&HashSet::new(), &noticed);
        dropped.into_iter().filter(|f| !noticed.contains(f)).collect()
    }

    /// Run the deletion cascade over the support log. On any drop the chase
    /// state is replaced by the rebuilt survivor state and a full rederive
    /// is scheduled (queued delta events may reference retracted facts, so
    /// the queue is cleared with them).
    fn cascade(&mut self, dead_tids: &HashSet<Tid>, dead_facts: &HashSet<Fact>) -> Vec<Fact> {
        let _span = dcer_obs::span("chase.cascade");
        let (state, dropped) = self.log.retract(dead_tids, dead_facts);
        if !dropped.is_empty() {
            self.state = state;
            self.pending.clear();
            self.dirty = Dirty::Full;
        }
        dropped
    }

    /// One CDC batch end to end: stage and cascade
    /// ([`ChaseEngine::stage_update`]), then rederive to fixpoint.
    /// The closure after any sequence of `apply_update` calls is identical
    /// to a from-scratch chase over the final dataset.
    pub fn apply_update(
        &mut self,
        inserts: Vec<dcer_relation::Tuple>,
        deletes: &[Tid],
    ) -> UpdateDelta {
        let retracted = self.stage_update(inserts, deletes);
        UpdateDelta { retracted, deduced: self.fixpoint(None) }
    }

    /// Consume the engine, producing the final `Γ`.
    pub fn into_outcome(self) -> ChaseOutcome {
        let stats = self.stats();
        ChaseOutcome { matches: self.state.matches, validated: self.state.validated, stats }
    }
}

/// The sink wiring enumeration events into the engine's state.
struct EngineSink<'a> {
    plan: &'a CompiledRule,
    dataset: &'a Dataset,
    sigs: &'a MlSigTable,
    state: &'a mut ChaseState,
    deps: &'a mut DepStore,
    oracle: &'a mut MlOracle,
    log: &'a mut SupportLog,
    pending: &'a mut VecDeque<DeltaEvent>,
    out: &'a mut Vec<Fact>,
    scope: Option<&'a HashMap<Tid, u128>>,
    rule_mask: u128,
    ml_scope: u16,
    pool: Option<&'a dcer_pool::WorkPool>,
    /// This plan's `(checked, pruned)` per recursive predicate.
    rec_stats: &'a mut [(u64, u64)],
    facts_deduced: u64,
}

impl EngineSink<'_> {
    fn tuple(&self, v: TupleVar, rows: &[u32]) -> &Tuple {
        &self.dataset.relation(self.plan.atoms[v.0 as usize]).tuples()[rows[v.0 as usize] as usize]
    }

    /// Index of `pred` within this plan's `rec_preds`. The enumerator only
    /// ever hands out references into that very slice, so pointer offset
    /// recovers the index without a search; out-of-slice references (a
    /// foreign sink's pred) fall out of bounds and are reported as `None`.
    fn pred_index(&self, pred: &RecPred) -> Option<usize> {
        let base = self.plan.rec_preds.as_ptr() as usize;
        let off = (pred as *const RecPred as usize).checked_sub(base)?;
        let idx = off / std::mem::size_of::<RecPred>();
        (off % std::mem::size_of::<RecPred>() == 0 && idx < self.plan.rec_preds.len())
            .then_some(idx)
    }

    /// Record `checked` probes and `pruned` eliminations against `pred`.
    fn count_rec(&mut self, pred: &RecPred, checked: u64, pruned: u64) {
        if let Some(i) = self.pred_index(pred) {
            self.rec_stats[i].0 += checked;
            self.rec_stats[i].1 += pruned;
        }
    }

    /// [`EngineSink::visit`] with optionally precomputed id-predicate
    /// answers: `id_hints = (pred_indices, answers)` substitutes
    /// `answers[j]` for the `holds_id` probe of predicate
    /// `pred_indices[j]`. Hints must reflect the *current* union-find
    /// state — [`EngineSink::visit_batch`] recomputes them whenever a
    /// visit merges classes.
    fn visit_inner(&mut self, rows: &[u32], id_hints: Option<(&[usize], &[bool])>) {
        // Evaluate recursive predicates; collect unsatisfied waitables and,
        // separately, the state-dependent predicates that already hold —
        // those are antecedents of the derivation and must flow into its
        // provenance (an ML predicate satisfied by the oracle alone is
        // purely data-dependent and needs no antecedent).
        let mut unsatisfied: Vec<Pending> = Vec::new();
        let mut held: Vec<Pending> = Vec::new();
        for (pi, p) in self.plan.rec_preds.iter().enumerate() {
            match *p {
                RecPred::Id { left, right } => {
                    let (a, b) = (self.tuple(left, rows).tid, self.tuple(right, rows).tid);
                    let holds = match id_hints.and_then(|(preds, ans)| {
                        preds.iter().position(|&x| x == pi).map(|j| ans[j])
                    }) {
                        Some(h) => h,
                        None => self.state.holds_id(a, b),
                    };
                    if holds {
                        held.push(Pending::Id(a, b));
                    } else {
                        unsatisfied.push(Pending::Id(a, b));
                    }
                }
                RecPred::Ml { sig, left, right, symmetric, waitable } => {
                    let (lt, rt) =
                        (self.tuple(left, rows).clone(), self.tuple(right, rows).clone());
                    if self.state.holds_ml(sig, lt.tid, rt.tid, symmetric) {
                        held.push(Pending::Ml { sig, a: lt.tid, b: rt.tid, symmetric });
                        continue;
                    }
                    if self.oracle.predict(self.sigs, sig, &lt, &rt, self.ml_scope) {
                        continue;
                    }
                    if !waitable {
                        return; // dead valuation (normally pruned earlier)
                    }
                    unsatisfied.push(Pending::Ml { sig, a: lt.tid, b: rt.tid, symmetric });
                }
            }
        }
        let head = match self.plan.head {
            CompiledHead::Id(l, r) => {
                let (a, b) = (self.tuple(l, rows).tid, self.tuple(r, rows).tid);
                if a == b {
                    return; // reflexive, already in Γ
                }
                Fact::id(a, b)
            }
            CompiledHead::Ml { sig, left, right, symmetric } => {
                let (a, b) = (self.tuple(left, rows).tid, self.tuple(right, rows).tid);
                if a == b {
                    return; // self-prediction carries no information
                }
                Fact::ml(sig, a, b, symmetric)
            }
        };
        let support: Vec<Tid> =
            (0..self.plan.num_vars()).map(|v| self.tuple(TupleVar(v as u16), rows).tid).collect();
        if unsatisfied.is_empty() {
            if let Some((side_a, side_b)) = self.state.apply(head) {
                self.facts_deduced += 1;
                self.out.push(head);
                self.log.push(head, Provenance::Local { support, antecedents: held });
                self.pending.push_back(DeltaEvent { fact: head, side_a, side_b });
            }
        } else {
            // Skip recording if the head already holds.
            let head_holds = match head {
                Fact::Id(a, b) => self.state.holds_id(a, b),
                Fact::Ml(..) => self.state.validated.contains(&head),
            };
            if !head_holds {
                self.deps.record(unsatisfied, head, support, held);
            }
        }
    }
}

impl ValuationSink for EngineSink<'_> {
    fn admit_row(&mut self, var: TupleVar, row: u32) -> bool {
        let Some(scope) = self.scope else { return true };
        let tid = self.dataset.relation(self.plan.atoms[var.0 as usize]).tuples()[row as usize].tid;
        scope.get(&tid).is_none_or(|m| m & self.rule_mask != 0)
    }

    fn prune_rec(&mut self, pred: &RecPred, left: &Tuple, right: &Tuple) -> bool {
        // Only an unwaitable false ML predicate is final — prune there.
        let prune = if let RecPred::Ml { sig, symmetric, waitable: false, .. } = *pred {
            !self.state.holds_ml(sig, left.tid, right.tid, symmetric)
                && !self.oracle.predict(self.sigs, sig, left, right, self.ml_scope)
        } else {
            false
        };
        self.count_rec(pred, 1, prune as u64);
        prune
    }

    fn prune_rec_batch(
        &mut self,
        pred: &RecPred,
        left: &[Tuple],
        right: &[Tuple],
        pairs: &[(u32, u32)],
        out: &mut Vec<bool>,
    ) {
        let RecPred::Ml { sig, symmetric, waitable: false, .. } = *pred else {
            // Id and waitable ML predicates never prune at bind time — and
            // are not probed here, mirroring `prune_rec`'s early-out.
            out.clear();
            out.resize(pairs.len(), false);
            self.count_rec(pred, pairs.len() as u64, 0);
            return;
        };
        // Mirror `prune_rec`'s short-circuit exactly: a pair whose
        // prediction is already validated is not probed (for unwaitable
        // signatures that never happens — only head signatures get
        // validated — but probe-multiset fidelity is the contract, so keep
        // the guard).
        out.clear();
        out.resize(pairs.len(), false);
        let mut probe_idx: Vec<usize> = Vec::with_capacity(pairs.len());
        let mut probes: Vec<(&Tuple, &Tuple)> = Vec::with_capacity(pairs.len());
        for (i, &(l, r)) in pairs.iter().enumerate() {
            let (l, r) = (&left[l as usize], &right[r as usize]);
            if !self.state.holds_ml(sig, l.tid, r.tid, symmetric) {
                probe_idx.push(i);
                probes.push((l, r));
            }
        }
        let mut answers = Vec::new();
        self.oracle.predict_batch(self.sigs, sig, &probes, self.ml_scope, self.pool, &mut answers);
        let mut pruned = 0u64;
        for (i, v) in probe_idx.into_iter().zip(answers) {
            out[i] = !v;
            pruned += !v as u64;
        }
        self.count_rec(pred, pairs.len() as u64, pruned);
    }

    fn visit(&mut self, rows: &[u32]) {
        self.visit_inner(rows, None);
    }

    fn visit_batch(&mut self, rows: &mut [u32], var: TupleVar, candidates: &[u32]) {
        // Which recursive predicates are id probes? Those are answered for
        // the whole window in one union-find pass.
        let id_preds: Vec<usize> = self
            .plan
            .rec_preds
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, RecPred::Id { .. }))
            .map(|(i, _)| i)
            .collect();
        if id_preds.is_empty() {
            for &c in candidates {
                rows[var.0 as usize] = c;
                self.visit_inner(rows, None);
            }
            return;
        }
        let k = id_preds.len();
        let mut pairs: Vec<(Tid, Tid)> = Vec::with_capacity(candidates.len() * k);
        for &c in candidates {
            rows[var.0 as usize] = c;
            for &pi in &id_preds {
                let RecPred::Id { left, right } = self.plan.rec_preds[pi] else { unreachable!() };
                pairs.push((self.tuple(left, rows).tid, self.tuple(right, rows).tid));
            }
        }
        // Snapshot answers; a visit that merges classes (visible as a
        // merge_count bump) invalidates them, so recompute the remaining
        // suffix — each visit then sees answers identical to what a
        // `holds_id` probe would return at that moment.
        let mut answers = Vec::new();
        self.state.matches.are_matched_batch(&pairs, &mut answers);
        let mut version = self.state.matches.merge_count();
        let mut base = 0usize;
        for (i, &c) in candidates.iter().enumerate() {
            if self.state.matches.merge_count() != version {
                self.state.matches.are_matched_batch(&pairs[i * k..], &mut answers);
                version = self.state.matches.merge_count();
                base = i;
            }
            rows[var.0 as usize] = c;
            let hints = &answers[(i - base) * k..(i - base + 1) * k];
            self.visit_inner(rows, Some((&id_preds, hints)));
        }
    }
}

/// Run the full sequential `Match` algorithm on a dataset.
pub fn run_match(
    dataset: &Dataset,
    rules: &RuleSet,
    registry: &MlRegistry,
    config: &ChaseConfig,
) -> Result<ChaseOutcome, String> {
    let mut engine = ChaseEngine::new(dataset.clone(), rules, registry, config)?;
    engine.update_fixpoint();
    Ok(engine.into_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_ml::{EqualTextClassifier, LevenshteinClassifier, NgramCosineClassifier};
    use dcer_relation::{Catalog, RelationSchema, Value, ValueType};
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

    fn registry() -> MlRegistry {
        let mut r = MlRegistry::new();
        r.register("m", Arc::new(EqualTextClassifier));
        r.register("sim", Arc::new(NgramCosineClassifier::new(0.5)));
        r
    }

    fn configs() -> Vec<ChaseConfig> {
        vec![
            ChaseConfig::default(),
            ChaseConfig { dep_capacity: 0, ..Default::default() }, // no H: delta joins
            ChaseConfig { dep_capacity: 2, ..Default::default() }, // mixed
        ]
    }

    #[test]
    fn matches_naive_chase_on_recursive_rules_under_all_configs() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        for (k, x) in
            [("k1", "p"), ("k1", "q"), ("k2", "q"), ("k2", "r"), ("k3", "r"), ("k4", "zz")]
        {
            d.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match base: R(t), R(s), t.k = s.k -> t.id = s.id;
             match step: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id",
        )
        .unwrap();
        let reg = registry();
        let mut reference = crate::naive::naive_chase(&d, &rules, &reg).unwrap();
        let expected = reference.matches.clusters();
        assert!(!expected.is_empty());
        for cfg in configs() {
            let mut outcome = run_match(&d, &rules, &reg, &cfg).unwrap();
            assert_eq!(
                outcome.matches.clusters(),
                expected,
                "config {cfg:?} diverged from naive chase"
            );
        }
    }

    /// A signature may narrow candidates only where a false classifier
    /// answer is final. With `plate_sim` also a rule head its predicate is
    /// waitable — `head` validates "AB12 CDE" ~ "QR47 XYZ", which share no
    /// key — so no signature probe is compiled for it and the closure
    /// still equals the naive chase. Without the head, both endpoints of
    /// the predicate get one.
    #[test]
    fn waitable_ml_predicates_get_no_signature_probe() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        for (k, x) in [
            ("k1", "AB12 CDE"),
            ("k1", "AB12 CDF"),
            ("k1", "QR47 XYZ"),
            ("k2", "QR47 XYZ"),
            ("k2", "AB12 CDE"),
            ("k3", ""),
            ("k3", "A"),
        ] {
            d.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        // Unrelated plates, so a probe's few candidates undercut the scan.
        for i in 0..40 {
            d.insert(0, vec!["k9".into(), format!("{}{:02}MN{}", i % 7, i, i % 3).into()]).unwrap();
        }
        let mut reg = registry();
        reg.register("plate_sim", Arc::new(LevenshteinClassifier::new(0.7)));
        let waitable = dcer_mrl::parse_rules(
            &cat,
            "match head: R(t), R(s), t.k = s.k -> plate_sim(t.x, s.x);
             match use: R(t), R(s), plate_sim(t.x, s.x) -> t.id = s.id",
        )
        .unwrap();
        let final_only = dcer_mrl::parse_rules(
            &cat,
            "match use: R(t), R(s), plate_sim(t.x, s.x) -> t.id = s.id",
        )
        .unwrap();
        let sig_probes = |rules: &RuleSet| {
            let mut engine =
                ChaseEngine::new(d.clone(), rules, &reg, &ChaseConfig::default()).unwrap();
            engine.prebuild_indexes(1);
            engine
                .programs
                .iter()
                .flatten()
                .flat_map(|p| &p.steps)
                .map(|s| s.sigs.len())
                .sum::<usize>()
        };
        assert_eq!(sig_probes(&waitable), 0);
        assert_eq!(sig_probes(&final_only), 2);
        for rules in [&waitable, &final_only] {
            let mut reference = crate::naive::naive_chase(&d, rules, &reg).unwrap();
            for cfg in configs() {
                let mut outcome = run_match(&d, rules, &reg, &cfg).unwrap();
                assert_eq!(outcome.matches.clusters(), reference.matches.clusters(), "{cfg:?}");
                assert_eq!(outcome.validated, reference.validated, "{cfg:?}");
            }
        }
        // The validated pair that shares no key is in the closure.
        let mut outcome = run_match(&d, &waitable, &reg, &ChaseConfig::default()).unwrap();
        let (ab, qr) = (Tid::new(0, 0), Tid::new(0, 2));
        assert!(outcome.matches.are_matched(ab, qr));
    }

    #[test]
    fn ml_validation_feeds_recursion_under_all_configs() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["k".into(), "xa".into()]).unwrap();
        let b = d.insert(0, vec!["k".into(), "xb".into()]).unwrap();
        let c = d.insert(0, vec!["other".into(), "xb".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match validate: R(t), R(s), t.k = s.k -> m(t.x, s.x);
             match use: R(t), R(s), m(t.x, s.x) -> t.id = s.id",
        )
        .unwrap();
        let reg = registry();
        for cfg in configs() {
            let mut outcome = run_match(&d, &rules, &reg, &cfg).unwrap();
            assert!(outcome.matches.are_matched(a, b), "config {cfg:?}");
            // b.x == c.x so the classifier itself fires `use` for (b, c).
            assert!(outcome.matches.are_matched(b, c), "config {cfg:?}");
        }
    }

    #[test]
    fn engine_stats_are_populated() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        d.insert(0, vec!["k".into(), "x".into()]).unwrap();
        d.insert(0, vec!["k".into(), "y".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match r: R(t), R(s), t.k = s.k, m(t.x, s.x), t.id = s.id -> t.id = s.id",
        )
        .unwrap();
        let outcome = run_match(&d, &rules, &registry(), &ChaseConfig::default()).unwrap();
        assert!(outcome.stats.valuations > 0);
        assert!(outcome.stats.ml_calls > 0);
        assert!(outcome.stats.rounds > 0);
    }

    #[test]
    fn incdeduce_triggers_downstream_matches() {
        // Worker-style use: external match (a~b) arrives; local rule
        // propagates to c via x equality.
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["ka".into(), "p".into()]).unwrap();
        let b = d.insert(0, vec!["kb".into(), "q".into()]).unwrap();
        let c = d.insert(0, vec!["kc".into(), "q".into()]).unwrap();
        // Pin `t` to tuple a so the reflexive valuation t = s cannot fire
        // anything on its own (a.x = "p" only rejoins a itself).
        let rules = dcer_mrl::parse_rules(
            &cat,
            r#"match step: R(t), R(s), R(u), t.k = "ka", t.id = s.id, s.x = u.x -> t.id = u.id"#,
        )
        .unwrap();
        for cfg in configs() {
            let mut engine = ChaseEngine::new(d.clone(), &rules, &registry(), &cfg).unwrap();
            let initial = engine.update_fixpoint();
            assert!(initial.is_empty(), "no local matches without the external fact");
            let new_facts = engine.incdeduce(&DeltaBatch::new(vec![Fact::id(a, b)]));
            assert!(
                new_facts.contains(&Fact::id(a, c)) || new_facts.contains(&Fact::id(b, c)),
                "config {cfg:?}: got {new_facts:?}"
            );
            let mut outcome = engine.into_outcome();
            assert!(outcome.matches.are_matched(a, c));

            // A fresh engine still owes its full `Deduce` round: `incdeduce`
            // must discharge it before chasing the received fact, or the
            // fact meets an empty `H` and its consequences are lost.
            let mut fresh = ChaseEngine::new(d.clone(), &rules, &registry(), &cfg).unwrap();
            fresh.incdeduce(&DeltaBatch::new(vec![Fact::id(a, b)]));
            let mut outcome = fresh.into_outcome();
            assert!(outcome.matches.are_matched(a, c), "fresh engine, config {cfg:?}");
        }
    }

    #[test]
    fn constants_restrict_matches() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["k".into(), "v".into()]).unwrap();
        let b = d.insert(0, vec!["k".into(), "v".into()]).unwrap();
        let c = d.insert(0, vec!["k2".into(), "v".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            r#"match r: R(t), R(s), t.x = s.x, t.k = "k", s.k = "k" -> t.id = s.id"#,
        )
        .unwrap();
        let mut outcome = run_match(&d, &rules, &registry(), &ChaseConfig::default()).unwrap();
        assert!(outcome.matches.are_matched(a, b));
        assert!(!outcome.matches.are_matched(a, c));
    }

    #[test]
    fn run_match_reports_missing_model() {
        let cat = catalog();
        let d = Dataset::new(cat.clone());
        let rules =
            dcer_mrl::parse_rules(&cat, "match r: R(t), R(s), nosuch(t.x, s.x) -> t.id = s.id")
                .unwrap();
        let err = run_match(&d, &rules, &MlRegistry::new(), &ChaseConfig::default());
        assert!(err.is_err());
    }

    #[test]
    fn inserting_apply_update_matches_full_rerun() {
        // ΔD extension: inserting tuples incrementally must converge to the
        // same Γ as chasing the final dataset from scratch.
        let cat = catalog();
        let mut base = Dataset::new(cat.clone());
        let a = base.insert(0, vec!["k1".into(), "p".into()]).unwrap();
        let b = base.insert(0, vec!["k2".into(), "p".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match base: R(t), R(s), t.k = s.k -> t.id = s.id;
             match step: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id",
        )
        .unwrap();
        let reg = registry();
        for cfg in configs() {
            let mut engine = ChaseEngine::new(base.clone(), &rules, &reg, &cfg).unwrap();
            engine.update_fixpoint();

            // Insert c (matches a via k1) and d (x-linked to everything).
            let mut full = base.clone();
            let c = full.insert(0, vec!["k1".into(), "q".into()]).unwrap();
            let d_tid = full.insert(0, vec!["k3".into(), "p".into()]).unwrap();
            let new_tuples: Vec<_> =
                [c, d_tid].iter().map(|&t| full.tuple(t).unwrap().clone()).collect();

            let delta_facts = engine.apply_update(new_tuples, &[]).deduced;
            assert!(!delta_facts.is_empty(), "config {cfg:?}");
            let mut incremental = engine.into_outcome();

            let mut scratch = run_match(&full, &rules, &reg, &cfg).unwrap();
            assert_eq!(
                incremental.matches.clusters(),
                scratch.matches.clusters(),
                "config {cfg:?}"
            );
            // a ~ c via base; step links x-sharers of matched tuples.
            assert!(incremental.matches.are_matched(a, c));
            let _ = (b, d_tid);
        }
    }

    #[test]
    fn apply_update_ignores_known_tuples_and_empty_batches() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["k".into(), "x".into()]).unwrap();
        let rules =
            dcer_mrl::parse_rules(&cat, "match r: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut engine =
            ChaseEngine::new(d.clone(), &rules, &registry(), &ChaseConfig::default()).unwrap();
        engine.update_fixpoint();
        assert!(engine.apply_update(Vec::new(), &[]).deduced.is_empty());
        let dup = d.tuple(a).unwrap().clone();
        assert!(engine.apply_update(vec![dup], &[]).deduced.is_empty(), "replica ignored");
    }

    #[test]
    fn delete_and_rederive_matches_full_rerun() {
        // Deleting tuples must retract exactly the derivations they
        // supported — including transitive consequences — while facts with
        // alternative support survive (rederived if over-deleted).
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["k1".into(), "p".into()]).unwrap();
        let b = d.insert(0, vec!["k1".into(), "q".into()]).unwrap();
        let c = d.insert(0, vec!["k2".into(), "q".into()]).unwrap();
        let e = d.insert(0, vec!["k2".into(), "r".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match base: R(t), R(s), t.k = s.k -> t.id = s.id;
             match step: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id",
        )
        .unwrap();
        let reg = registry();
        for cfg in configs() {
            let mut engine = ChaseEngine::new(d.clone(), &rules, &reg, &cfg).unwrap();
            engine.update_fixpoint();
            {
                let mut pre = engine.state_mut();
                assert!(pre.holds_id(a, b), "a~b via k1 before the delete");
                assert!(pre.holds_id(a, c), "a~c via step before the delete");
                let _ = &mut pre;
            }

            // Deleting b severs the only chain from a to c and e.
            let delta = engine.apply_update(Vec::new(), &[b]);
            assert!(!delta.retracted.is_empty(), "config {cfg:?}");

            let mut shrunk = d.clone();
            assert!(shrunk.delete(b));
            let mut scratch = run_match(&shrunk, &rules, &reg, &cfg).unwrap();
            let mut incremental = engine.into_outcome();
            assert_eq!(
                incremental.matches.clusters(),
                scratch.matches.clusters(),
                "config {cfg:?} diverged from from-scratch after delete"
            );
            assert!(!incremental.matches.are_matched(a, c), "config {cfg:?}");
            assert!(incremental.matches.are_matched(c, e), "c~e via k2 survives, config {cfg:?}");
        }
    }

    #[test]
    fn interleaved_insert_delete_batches_match_full_rerun() {
        let cat = catalog();
        let mut base = Dataset::new(cat.clone());
        let a = base.insert(0, vec!["k1".into(), "p".into()]).unwrap();
        let b = base.insert(0, vec!["k1".into(), "q".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match base: R(t), R(s), t.k = s.k -> t.id = s.id;
             match step: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id",
        )
        .unwrap();
        let reg = registry();
        for cfg in configs() {
            let mut engine = ChaseEngine::new(base.clone(), &rules, &reg, &cfg).unwrap();
            engine.update_fixpoint();

            // Batch 1: insert c (k1, so a~b~c) and delete a.
            let mut full = base.clone();
            let c = full.insert(0, vec!["k1".into(), "r".into()]).unwrap();
            let c_tuple = full.tuple(c).unwrap().clone();
            assert!(full.delete(a));
            engine.apply_update(vec![c_tuple], &[a]);

            // Batch 2: delete c again plus a no-op ghost delete.
            assert!(full.delete(c));
            let ghost = Tid::new(0, 999);
            engine.apply_update(Vec::new(), &[c, ghost]);

            let mut scratch = run_match(&full, &rules, &reg, &cfg).unwrap();
            let mut incremental = engine.into_outcome();
            assert_eq!(
                incremental.matches.clusters(),
                scratch.matches.clusters(),
                "config {cfg:?} diverged after interleaved batches"
            );
            assert!(!incremental.matches.are_matched(b, c), "config {cfg:?}");
        }
    }

    #[test]
    fn overflowed_store_falls_back_to_reevaluation_and_reports_it() {
        // Satellite: when `K` is exhausted, deps are dropped (visible in
        // stats) and correctness is carried by update-driven re-evaluation.
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        // "k4"/"zz" stays isolated: valuations binding it wait on id
        // antecedents that never become true, so they must be recorded —
        // and with K = 0, dropped.
        for (k, x) in
            [("k1", "p"), ("k1", "q"), ("k2", "q"), ("k2", "r"), ("k3", "r"), ("k4", "zz")]
        {
            d.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match base: R(t), R(s), t.k = s.k -> t.id = s.id;
             match step: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id",
        )
        .unwrap();
        let reg = registry();
        let tiny = ChaseConfig { dep_capacity: 0, ..Default::default() };
        let mut reference = run_match(&d, &rules, &reg, &ChaseConfig::default()).unwrap();
        let mut outcome = run_match(&d, &rules, &reg, &tiny).unwrap();
        assert!(outcome.stats.deps_dropped > 0, "K=0 must overflow");
        assert!(outcome.stats.seeded_joins > 0, "fallback re-evaluation ran");
        assert_eq!(outcome.matches.clusters(), reference.matches.clusters());
    }

    /// Every window width is bit-identical to width 1 — same clusters, same
    /// validated set, and the same *full* [`ChaseStats`] (ml_calls /
    /// ml_cache_hits included). The workload exercises every windowed
    /// surface: an unwaitable ML predicate over a cross product (windowed
    /// classifier prune), a waitable ML predicate (deferred, never
    /// window-pruned), an id predicate (union-find window probe in
    /// `visit_batch`), and recursion.
    #[test]
    fn batching_is_invariant_in_width() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        for (k, x) in [
            ("k1", "alpha"),
            ("k1", "beta"),
            ("k2", "beta"),
            ("k2", "gamma"),
            ("k3", "alphaz"),
            ("k4", "alpha"),
            ("k5", "zzz"),
        ] {
            d.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match validate: R(t), R(s), t.k = s.k -> m(t.x, s.x);
             match use: R(t), R(s), m(t.x, s.x) -> t.id = s.id;
             match uw: R(t), R(s), sim(t.x, s.x) -> t.id = s.id;
             match deep: R(t), R(s), R(u), t.id = s.id, s.k = u.k -> t.id = u.id",
        )
        .unwrap();
        let reg = registry();
        let width_one = ChaseConfig { batch_size: 1, ..Default::default() };
        let mut want = run_match(&d, &rules, &reg, &width_one).unwrap();
        assert!(want.stats.ml_calls > 0, "workload must exercise the oracle");
        for width in [7usize, 64, 4096] {
            let cfg = ChaseConfig { batch_size: width, ..Default::default() };
            let mut got = run_match(&d, &rules, &reg, &cfg).unwrap();
            assert_eq!(got.matches.clusters(), want.matches.clusters(), "width {width}");
            assert_eq!(got.validated, want.validated, "width {width}");
            assert_eq!(got.stats, want.stats, "stats diverged at width {width}");
        }
    }

    /// Waitable deferral is identical at every width: a pair the classifier
    /// rejects must still match once a rule head validates its prediction —
    /// windows only ever prune unwaitable predicates.
    /// (Referenced by `facts::tests::waitable_sigs_answer_identically_in_batch`.)
    #[test]
    fn batching_defers_waitable_identically() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["k1".into(), "p".into()]).unwrap();
        let b = d.insert(0, vec!["k1".into(), "q".into()]).unwrap();
        let c = d.insert(0, vec!["k9".into(), "r".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match validate: R(t), R(s), t.k = s.k -> m(t.x, s.x);
             match use: R(t), R(s), m(t.x, s.x) -> t.id = s.id",
        )
        .unwrap();
        let reg = registry();
        for batch_size in [1, 1024] {
            let cfg = ChaseConfig { batch_size, ..Default::default() };
            let mut outcome = run_match(&d, &rules, &reg, &cfg).unwrap();
            // m("p", "q") is false at the oracle, yet `validate` validates
            // it (k1 = k1), so `use` must still fire.
            assert!(outcome.matches.are_matched(a, b), "batch_size={batch_size}");
            assert!(!outcome.matches.are_matched(a, c));
        }
    }

    #[test]
    fn incdeduce_tolerates_unknown_tids() {
        // Facts about tuples not hosted locally must be absorbed into the
        // union-find without panicking (master routing normally prevents
        // this, but robustness matters).
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        d.insert(0, vec!["k".into(), "x".into()]).unwrap();
        let rules =
            dcer_mrl::parse_rules(&cat, "match r: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut engine = ChaseEngine::new(d, &rules, &registry(), &ChaseConfig::default()).unwrap();
        engine.update_fixpoint();
        let ghost_a = dcer_relation::Tid::new(0, 900);
        let ghost_b = dcer_relation::Tid::new(0, 901);
        let out = engine.incdeduce(&DeltaBatch::new(vec![Fact::id(ghost_a, ghost_b)]));
        assert!(out.is_empty());
        assert!(engine.state_mut().holds_id(ghost_a, ghost_b));
    }

    #[test]
    fn null_keys_never_match() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec![Value::Null, "v".into()]).unwrap();
        let b = d.insert(0, vec![Value::Null, "w".into()]).unwrap();
        let rules =
            dcer_mrl::parse_rules(&cat, "match r: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut outcome = run_match(&d, &rules, &registry(), &ChaseConfig::default()).unwrap();
        assert!(!outcome.matches.are_matched(a, b));
        assert_eq!(outcome.matches.num_pairs(), 0);
    }
}
