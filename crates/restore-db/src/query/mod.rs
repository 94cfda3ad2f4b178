//! SPJA query representation and execution.
//!
//! The paper supports acyclic Select-Project-Join-Aggregate queries with
//! equi-joins along foreign keys, arbitrary filters, and any number of
//! group-by attributes (§2.2). [`Query`] captures exactly that shape;
//! [`execute`] runs it over a [`Database`](crate::Database), and
//! [`execute_on_join`] runs the filter/aggregate tail over an externally
//! provided (e.g. *completed*) join — which is how ReStore answers queries
//! after an incompleteness join.

mod aggregate;
pub mod executor;
mod join;

pub use aggregate::{aggregate, Agg};
pub use executor::{execute, execute_on_join, QueryResult};
pub use join::{hash_join, partner_counts, tf_column_name, TF_COLUMN_PREFIX};

use crate::expr::Expr;

/// An SPJA query over FK-connected tables.
#[derive(Clone, Debug)]
pub struct Query {
    /// Tables to join (must form a connected acyclic subgraph of the FK
    /// schema graph). A single table means no join.
    pub tables: Vec<String>,
    /// Optional filter predicate applied after the join.
    pub filter: Option<Expr>,
    /// Group-by column references.
    pub group_by: Vec<String>,
    /// Aggregates to compute. Empty = return the filtered join itself.
    pub aggregates: Vec<Agg>,
}

impl Query {
    pub fn new(tables: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self {
            tables: tables.into_iter().map(Into::into).collect(),
            filter: None,
            group_by: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    pub fn filter(mut self, predicate: Expr) -> Self {
        self.filter = Some(predicate);
        self
    }

    pub fn group_by(mut self, cols: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.group_by = cols.into_iter().map(Into::into).collect();
        self
    }

    pub fn aggregate(mut self, agg: Agg) -> Self {
        self.aggregates.push(agg);
        self
    }
}
