//! # restore-db — relational substrate for ReStore
//!
//! An in-memory relational engine purpose-built for the ReStore
//! reproduction:
//!
//! * typed, nullable, dictionary-encoded columnar storage ([`Column`],
//!   [`Table`]);
//! * a catalog with a foreign-key **schema graph** ([`Database`]) —
//!   completion paths and acyclic walks are paths in this graph;
//! * scalar expressions for filter predicates ([`Expr`]);
//! * hash equi-joins with row provenance ([`join_pairs`]) — the
//!   incompleteness join needs to know which evidence rows lack partners;
//! * grouped aggregation and an SPJA executor ([`execute`]), including
//!   [`execute_on_join`] for running a query tail over a *completed* join
//!   produced by ReStore.
//!
//! Items are exported from the crate root; `query::executor` stays a
//! public module path because callers name `join_tables` through it.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod column;
mod error;
mod expr;
pub mod query;
mod schema;
mod table;
mod value;

pub use column::{Column, Dictionary};
pub use error::{DbError, DbResult};
pub use expr::{ArithOp, CmpOp, Expr};
pub use query::{
    aggregate, execute, execute_on_join, hash_join, join_pairs, tf_column_name, Agg, JoinPairs,
    Query, QueryResult, TF_COLUMN_PREFIX,
};
pub use schema::{Database, ForeignKey, PathStep};
pub use table::{Field, Table, TableView};
pub use value::{DataType, Value};
