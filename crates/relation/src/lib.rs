//! Relational substrate for deep and collective entity resolution.
//!
//! The paper ("Deep and Collective Entity Resolution in Parallel", ICDE 2022)
//! operates on a database schema `R = (R_1, ..., R_m)` and a dataset
//! `D = (D_1, ..., D_m)` where each relation carries a designated `id`
//! attribute identifying the entity a tuple represents. This crate provides
//! that substrate:
//!
//! - [`Value`] / [`ValueType`]: a small dynamically-typed value model,
//! - [`RelationSchema`] / [`Catalog`]: schemas and schema resolution,
//! - [`Tuple`] / [`Tid`]: tuples with stable global identities (the paper's
//!   `id` attribute is realized as the tuple identity [`Tid`]),
//! - [`Relation`] / [`Dataset`]: relation instances and multi-relation
//!   datasets, including the fragments produced by HyPart,
//! - [`csv`]: dependency-free CSV reading/writing,
//! - [`index`]: secondary hash indexes (the inverted indices of Section V-A).

pub mod csv;
pub mod dataset;
pub mod error;
pub mod index;
pub mod schema;
pub mod tuple;
pub mod value;

pub use dataset::{Dataset, Relation, UpdateBatch, UpdateReport};
pub use error::{Error, Result};
pub use index::{HashIndex, IndexSet, KeyScheme, SigIndex, TidIndex, ValueDict};
pub use schema::{AttrId, Attribute, Catalog, RelId, RelationSchema};
pub use tuple::{Tid, Tuple};
pub use value::{Value, ValueType};
