//! `DMatch` — the parallel algorithm for deep and collective entity
//! resolution (paper, Section V-B), and the high-level [`DcerSession`] API.
//!
//! `DMatch` implements the fixpoint model of Section III-B:
//!
//! 1. **Partition** the dataset with HyPart (`dcer-hypart`) so that every
//!    valuation of every rule is local to some fragment (Lemma 6).
//! 2. **Partial evaluation** (`A`): each worker runs the sequential `Match`
//!    on its fragment (superstep 0).
//! 3. **Incremental computation** (`A_Δ`): each worker broadcasts only its
//!    *newly deduced matches* — never raw tuples — to every peer as one
//!    [`dcer_chase::DeltaBatch`]; each recipient merges its inbox and folds
//!    the delta in with `IncDeduce`.
//! 4. Terminate at global quiescence; every worker's replica is the global
//!    `Γ`.
//!
//! `DMatch` is parallelly scalable relative to `Match` (Theorem 7): per-
//! worker work shrinks as `1/n` because fragments shrink and only deltas are
//! reprocessed; the experiment harness measures this with the simulated
//! cluster of `dcer-bsp`.
//!
//! One code path runs it: [`UpdateSession`] partitions, builds the engine
//! fleet and runs the BSP exchange. A cold resolve ([`run_dmatch`],
//! [`DcerSession::run_parallel`]) is a session's boot; the resident
//! resolver keeps the session and admits CDC batches into it. Sequential
//! `Match` is one [`dcer_chase::ChaseEngine`] run to fixpoint, and the
//! naive reference chase is [`dcer_chase::naive_chase`].

pub mod dmatch;
pub mod pipeline;
pub mod serve;
pub mod session;
pub mod update;

pub use dmatch::{run_dmatch, DmatchConfig, DmatchReport};
pub use pipeline::{Deducer, EngineDeducer, ShardWorker};
pub use serve::{
    AdmitReport, ExplainStep, ProvEntry, ResidentResolver, ServeRegistry, Snapshot, Tenant,
};
pub use session::DcerSession;
pub use update::{UpdateRunReport, UpdateSession};
