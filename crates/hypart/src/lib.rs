//! HyPart — data partitioning for deep and collective ER (paper, Section IV).
//!
//! Blocking and windowing assume a single table of homogeneous tuples;
//! collective rules span several tables, so the paper partitions data with
//! an extension of the Hypercube (shares) algorithm instead:
//!
//! - every rule's *distinct variables* become hypercube dimensions, with
//!   hash functions shared across rules by MQO (`dcer-mqo`);
//! - shares `n₁·…·n_l = C` are allocated per rule to minimize replication
//!   ([`shares::allocate_shares`] — a greedy stand-in for the Lagrangean
//!   optimum of Afrati & Ullman, since exact MHFP is NP-complete);
//! - each tuple is replicated, per rule and tuple-variable role, to all
//!   cells agreeing with its hashed coordinates (`*` on uncovered dims);
//! - tuples are distributed into `C ≈ n²` *virtual blocks* (cells), refined
//!   further while skew exceeds a threshold, and the blocks are assigned to
//!   the `n` physical workers by LPT makespan balancing
//!   ([`balance::lpt_assign`]).
//!
//! The guarantee (Lemma 6): every valuation of every rule is fully contained
//! in at least one fragment, so `D ⊨ Σ` — and the whole chase — can be
//! evaluated locally, exchanging only deduced matches.

pub mod balance;
pub mod hash;
pub mod partitioner;
pub mod shares;

pub use balance::lpt_assign;
pub use hash::HashMemo;
pub use partitioner::{
    partition, partition_with_router, DeltaRouter, HyPartConfig, Partition, PartitionStats,
};
pub use shares::allocate_shares;
