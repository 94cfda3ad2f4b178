//! # ReStore
//!
//! A Rust reproduction of *"ReStore — Neural Data Completion for Relational
//! Databases"* (Hilprecht & Binnig, SIGMOD 2021).
//!
//! ReStore synthesizes **missing tuples** for incomplete tables in a
//! relational schema by learning (schema-structured) autoregressive models
//! over the available data, using complete tables as evidence. Aggregate
//! queries executed over the completed database approximate the results on
//! the true, complete database — even when tuples are missing
//! *systematically* and therefore bias the available data.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`nn`] — from-scratch neural substrate (tape autograd, MADE, DeepSets).
//! * [`db`] — in-memory relational engine with SPJA query execution.
//! * [`data`] — dataset generators and biased-removal machinery.
//! * [`core`] — the ReStore system itself (completion models,
//!   incompleteness joins, model selection, confidence intervals).
//! * [`eval`] — metrics and experiment runners reproducing the paper's
//!   evaluation.
//! * [`serve`] — network serving front-end: multi-tenant HTTP server over
//!   a hot-swappable snapshot registry.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```no_run
//! use restore::core::{ReStore, RestoreConfig};
//! use restore::data::housing::{HousingConfig, generate_housing};
//! use restore::db::{Agg, Query};
//!
//! let db = generate_housing(&HousingConfig::small(), 42);
//! let mut restore = ReStore::new(db, RestoreConfig::default());
//! restore.mark_incomplete("apartment");
//! restore.train(7).unwrap();
//! // The builder answers nothing: seal it, and the snapshot serves.
//! let query = Query::new(["apartment"]).aggregate(Agg::CountStar);
//! restore.ensure_query_models(&query.tables, 7).unwrap();
//! let snapshot = restore.seal(7);
//! let completed = snapshot.execute(&query, 7).unwrap();
//! ```

#![forbid(unsafe_code)]

pub use restore_core as core;
pub use restore_data as data;
pub use restore_db as db;
pub use restore_eval as eval;
pub use restore_nn as nn;
pub use restore_serve as serve;
pub use restore_util as util;
