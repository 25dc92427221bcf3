//! The chase-based fixpoint engine for deep and collective entity
//! resolution (paper, Sections III and V-A).
//!
//! Deep and collective ER is modeled as a chase with a set `Σ` of MRLs: the
//! match set `Γ` starts reflexive, and applying a rule whose precondition
//! holds under a valuation adds either a match `(t.id, s.id)` or a
//! *validated ML prediction* to `Γ`, until a fixpoint. The chase is
//! Church–Rosser (Corollary 1): any rule order converges to the same `Γ`.
//!
//! Two implementations are provided:
//!
//! - [`naive::naive_chase`] — the textbook fixpoint (re-enumerates all
//!   valuations every round); the correctness oracle for tests.
//! - [`ChaseEngine`] — the paper's `Match` (Fig. 3): one full `Deduce`
//!   round building inverted indices and a bounded dependency store `H`,
//!   then update-driven `IncDeduce` rounds that either *fire* cached
//!   dependencies or re-join only the valuations touched by new matches.
//!
//! Both `Deduce` and the seeded re-joins of `IncDeduce` run one valuation
//! enumerator, [`enumerate_with_program`], which checks recursive
//! predicates over candidate windows of [`ChaseConfig::batch_size`] rows;
//! the window width never changes the result. Its reference is
//! [`enumerate_brute`], the cross-product loop under [`naive_chase`]: the
//! `eval_equivalence` tests hold both to the same valuation set.
//!
//! The engine doubles as the per-worker algorithm of the parallel `DMatch`:
//! `A` is [`ChaseEngine::update_fixpoint`] (on a new engine, one full
//! `Deduce` round and then `IncDeduce`) and `A_Δ` is
//! [`ChaseEngine::incdeduce`]. Both run the engine's one private fixpoint,
//! as do CDC admits ([`ChaseEngine::apply_update`]) and crash recovery
//! ([`ChaseEngine::recover`]). Workers exchange [`DeltaBatch`]es — the
//! immutable, sorted, `Arc`-backed unit of fact exchange that the BSP
//! runtime routes between workers without deep-copying facts.

pub mod batch;
pub mod deps;
pub mod engine;
pub mod eval;
pub mod facts;
pub mod naive;
pub mod plan;
pub mod program;
pub mod support;
pub mod union_find;

pub use batch::{BatchStats, DeltaBatch};
pub use deps::Pending;
pub use engine::{run_match, ChaseConfig, ChaseEngine, ChaseOutcome, ChaseStats, UpdateDelta};
pub use eval::{enumerate_with_program, EvalScratch, ValuationSink};
pub use facts::{ChaseState, Fact, MlOracle, MlSigTable};
pub use naive::{enumerate_brute, naive_chase};
pub use plan::{CompiledHead, CompiledRule, RecPred};
pub use program::RuleProgram;
pub use support::{Provenance, SupportLog};
pub use union_find::MatchSet;
