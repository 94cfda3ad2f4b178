//! # restore-db — relational substrate for ReStore
//!
//! An in-memory relational engine purpose-built for the ReStore
//! reproduction:
//!
//! * typed, nullable, dictionary-encoded columnar storage
//!   ([`column::Column`], [`table::Table`]);
//! * a catalog with a foreign-key **schema graph** ([`schema::Database`]) —
//!   completion paths and acyclic walks are paths in this graph;
//! * scalar expressions for filter predicates ([`expr::Expr`]);
//! * hash equi-joins with row provenance ([`query::join`]) — the
//!   incompleteness join needs to know which evidence rows lack partners;
//! * grouped aggregation and an SPJA executor ([`query`]), including
//!   [`query::execute_on_join`] for running a query tail over a *completed*
//!   join produced by ReStore.

#![forbid(unsafe_code)]

pub mod column;
pub mod error;
pub mod expr;
pub mod query;
pub mod schema;
pub mod table;
pub mod value;

pub use column::{Column, Dictionary};
pub use error::{DbError, DbResult};
pub use expr::{ArithOp, CmpOp, Expr};
pub use query::{
    aggregate, execute, execute_on_join, hash_join, partner_counts, Agg, JoinOutput, Query,
    QueryResult,
};
pub use schema::{Database, ForeignKey, PathStep};
pub use table::{Field, Table, TableView};
pub use value::{DataType, Value};
