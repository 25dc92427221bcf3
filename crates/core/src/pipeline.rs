//! The shard machinery of `DMatch`: the per-shard [`Deducer`], the
//! [`ShardWorker`] that broadcasts its batches over the BSP exchange, and
//! `build_fleet`, which builds one engine per HyPart fragment.
//! [`crate::update::UpdateSession`] is the one caller: it partitions, builds
//! the fleet and runs the exchange, for a cold resolve and for every admit.
//!
//! ## Zero-copy exchange
//!
//! Facts move as [`DeltaBatch`]es: routing a batch to `k` recipients costs
//! `k` `Arc` bumps, never a deep copy of the facts. This mirrors the
//! paper's `P₀`, which unions the per-worker ΔΓᵢ and sends the union to
//! everyone — here each worker broadcasts its own ΔΓᵢ directly and every
//! recipient merges its inbox (deduplicating across senders) before
//! `IncDeduce`. Since every deduced fact reaches every shard, each shard's
//! `ChaseState` replica converges to the global `Γ` and the final outcome
//! can be read off any shard.

use dcer_bsp::{Worker, WorkerId};
use dcer_chase::{BatchStats, ChaseConfig, ChaseEngine, ChaseState, ChaseStats, DeltaBatch, Fact};
use dcer_ml::MlRegistry;
use dcer_mrl::RuleSet;
use dcer_pool::WorkPool;
use dcer_relation::Dataset;
use std::sync::Arc;

/// The per-shard deduction step a [`ShardWorker`] drives.
///
/// `deduce` is the paper's partial evaluation `A` (superstep 0) and
/// `incdeduce` its incremental counterpart `A_Δ` (supersteps ≥ 1); both
/// speak [`DeltaBatch`].
pub trait Deducer: Send {
    /// `A`: evaluate the local fragment to fixpoint, emit ΔΓ.
    fn deduce(&mut self) -> DeltaBatch;

    /// `A_Δ`: absorb peers' merged ΔΓ, emit locally deduced consequences.
    fn incdeduce(&mut self, delta: &DeltaBatch) -> DeltaBatch;

    /// Work counters accumulated so far.
    fn stats(&self) -> ChaseStats;

    /// Extract the final chase state (call once, after the run).
    fn take_state(&mut self) -> ChaseState;

    /// Checkpoint the deducer's durable state as one canonical batch.
    fn snapshot(&mut self) -> Option<DeltaBatch>;

    /// Crash recovery: discard volatile state, rebuild from the immutable
    /// fragment plus `checkpoint` (the last snapshot, if any), and return
    /// everything the rebuilt shard deduces — its re-announcement to peers.
    fn recover(&mut self, checkpoint: Option<&DeltaBatch>) -> DeltaBatch;
}

/// The executor: a [`ChaseEngine`] over one fragment, plus the ledger of
/// every fact it deduced while wrapped.
///
/// Superstep 0 is [`ChaseEngine::update_fixpoint`]: a new engine starts
/// with everything dirty, so that is the full `Deduce` round, and on an
/// admit it is the staged delta — one step for both, whose first round is
/// a delta equal to everything.
pub struct EngineDeducer {
    engine: ChaseEngine,
    emitted: Vec<Fact>,
}

impl EngineDeducer {
    /// Wrap an engine.
    pub fn new(engine: ChaseEngine) -> EngineDeducer {
        EngineDeducer { engine, emitted: Vec::new() }
    }

    /// Unwrap the engine and every fact it emitted since
    /// [`EngineDeducer::new`], batch by batch (the update session keeps
    /// engines resident across exchanges and reads each admit's delta off
    /// this ledger).
    pub fn into_parts(self) -> (ChaseEngine, Vec<Fact>) {
        (self.engine, self.emitted)
    }

    fn emit(&mut self, batch: DeltaBatch) -> DeltaBatch {
        self.emitted.extend_from_slice(batch.as_slice());
        batch
    }
}

impl Deducer for EngineDeducer {
    fn deduce(&mut self) -> DeltaBatch {
        let batch = DeltaBatch::new(self.engine.update_fixpoint());
        self.emit(batch)
    }

    fn incdeduce(&mut self, delta: &DeltaBatch) -> DeltaBatch {
        let batch = self.engine.incdeduce(delta);
        self.emit(batch)
    }

    fn stats(&self) -> ChaseStats {
        self.engine.stats()
    }

    fn take_state(&mut self) -> ChaseState {
        std::mem::replace(self.engine.state_mut(), ChaseState::new())
    }

    fn snapshot(&mut self) -> Option<DeltaBatch> {
        Some(self.engine.snapshot())
    }

    fn recover(&mut self, checkpoint: Option<&DeltaBatch>) -> DeltaBatch {
        let batch =
            DeltaBatch::new(self.engine.recover(checkpoint.map_or(&[][..], |b| b.as_slice())));
        self.emit(batch)
    }
}

/// One BSP shard: a [`Deducer`] plus the broadcast routing of its emitted
/// batches. Routing clones are `Arc` bumps ([`DeltaBatch::clone`]).
pub struct ShardWorker<D> {
    id: WorkerId,
    shards: usize,
    deducer: D,
    batch_stats: BatchStats,
}

impl<D: Deducer> ShardWorker<D> {
    /// Shard `id` of `shards`.
    pub fn new(id: WorkerId, shards: usize, deducer: D) -> ShardWorker<D> {
        ShardWorker { id, shards, deducer, batch_stats: BatchStats::default() }
    }

    /// Unwrap the shard, recovering its deducer (the update session runs
    /// repeated exchanges over long-lived engines, wrapping and unwrapping
    /// them around each [`dcer_bsp::run_bsp_on`] call).
    pub fn into_deducer(self) -> D {
        self.deducer
    }

    /// Batch construction/merge counters accumulated by this shard.
    pub fn batch_stats(&self) -> &BatchStats {
        &self.batch_stats
    }

    /// Route `batch` to every peer shard: `shards - 1` handle clones, zero
    /// fact copies.
    fn broadcast(&self, batch: DeltaBatch) -> Vec<(WorkerId, DeltaBatch)> {
        if batch.is_empty() {
            return Vec::new();
        }
        (0..self.shards).filter(|&w| w != self.id).map(|w| (w, batch.clone())).collect()
    }
}

impl<D: Deducer> Worker for ShardWorker<D> {
    type Msg = DeltaBatch;

    fn initial(&mut self) -> Vec<(WorkerId, DeltaBatch)> {
        let batch = self.deducer.deduce();
        self.batch_stats.record_build(batch.len(), &batch);
        self.broadcast(batch)
    }

    fn superstep(&mut self, inbox: Vec<DeltaBatch>) -> Vec<(WorkerId, DeltaBatch)> {
        // Merge the inbox first: cross-sender duplicates collapse before
        // they ever reach the engine.
        let merged = DeltaBatch::merge_all(&inbox, &mut self.batch_stats);
        let out = self.deducer.incdeduce(&merged);
        self.batch_stats.record_build(out.len(), &out);
        self.broadcast(out)
    }

    fn absorbed_duplicates(&self) -> u64 {
        self.deducer.stats().facts_absorbed
    }

    fn snapshot(&mut self) -> Option<DeltaBatch> {
        self.deducer.snapshot()
    }

    fn restore(&mut self, checkpoint: Option<&DeltaBatch>) -> Vec<(WorkerId, DeltaBatch)> {
        let out = self.deducer.recover(checkpoint);
        self.batch_stats.record_build(out.len(), &out);
        self.broadcast(out)
    }
}

/// Build the per-fragment engine fleet — rule compilation, index
/// construction, ML-oracle binding — as one weighted batch on the shared
/// pool. Engines come out in fragment order and each eagerly prebuilds its
/// indexes (single-threaded per engine: the fleet itself is the parallel
/// axis here), so superstep 0 starts probe-ready.
pub(crate) fn build_fleet(
    shards: Vec<(Dataset, Arc<std::collections::HashMap<dcer_relation::Tid, u128>>)>,
    rules: &RuleSet,
    registry: &MlRegistry,
    chase_cfg: &ChaseConfig,
    pool: &Arc<WorkPool>,
) -> Result<Vec<ChaseEngine>, String> {
    let _span = dcer_obs::span("pipeline.build_fleet").with_arg("shards", shards.len() as u64);
    // Scope each rule to the tuples HyPart distributed for it: the rule's
    // own distribution covers all its valuations (Lemma 6), so skipping
    // other rules' replicas removes only redundant work.
    let unit = |(frag, masks): (Dataset, Arc<_>)| {
        let mut engine = ChaseEngine::new(frag, rules, registry, chase_cfg)?;
        engine.set_rule_scope(masks);
        // Batched oracle scoring may fan out to the shared pool (nested
        // `run` is supported); chunk boundaries are pool-size-independent,
        // so this does not perturb determinism.
        engine.set_pool(Arc::clone(pool));
        engine.prebuild_indexes(1);
        Ok(engine)
    };
    // Engine-build time is dominated by index construction, linear in the
    // fragment — so fragment size is the batch's cost model.
    let weights: Vec<u64> = shards.iter().map(|(frag, _)| frag.total_tuples() as u64).collect();
    let built: Vec<Result<ChaseEngine, String>> =
        pool.run(shards.into_iter().map(|pair| move || unit(pair)).collect(), Some(&weights));
    built.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_relation::Tid;

    /// Emits one fixed batch from every step; nothing else is exercised.
    struct Fixed(DeltaBatch);

    impl Deducer for Fixed {
        fn deduce(&mut self) -> DeltaBatch {
            self.0.clone()
        }
        fn incdeduce(&mut self, _: &DeltaBatch) -> DeltaBatch {
            self.0.clone()
        }
        fn stats(&self) -> ChaseStats {
            ChaseStats::default()
        }
        fn take_state(&mut self) -> ChaseState {
            ChaseState::new()
        }
        fn snapshot(&mut self) -> Option<DeltaBatch> {
            None
        }
        fn recover(&mut self, _: Option<&DeltaBatch>) -> DeltaBatch {
            self.0.clone()
        }
    }

    /// A broadcast hands every peer a handle to the same allocation: the
    /// `shards - 1` batches share one fact slice, so routing copies no fact.
    #[test]
    fn broadcast_hands_every_peer_the_same_allocation() {
        let facts = (0..64).map(|i| Fact::id(Tid::new(0, i), Tid::new(1, i))).collect();
        let batch = DeltaBatch::new(facts);
        let mut worker = ShardWorker::new(1, 4, Fixed(batch.clone()));
        let routed = worker.initial();
        let peers: Vec<WorkerId> = routed.iter().map(|(w, _)| *w).collect();
        assert_eq!(peers, vec![0, 2, 3]);
        for (_, b) in &routed {
            assert_eq!(b.as_slice(), batch.as_slice());
            assert_eq!(b.as_slice().as_ptr(), batch.as_slice().as_ptr(), "routing copied facts");
        }
    }
}
