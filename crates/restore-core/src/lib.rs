//! # restore-core — the ReStore system
//!
//! The paper's contribution: schema-structured neural data completion for
//! relational databases.
//!
//! * [`annotation`] — complete/incomplete table annotations (§2.2);
//! * [`encoding`] — categorical/binned attribute token domains;
//! * [`paths`] — completion paths through the FK schema graph;
//! * [`model`] — AR and SSAR completion models (§3.2, §3.3);
//! * [`merge`] — model merging for complex schemata (§3.4);
//! * [`completion`] — the incompleteness join, Algorithm 1 (§4);
//! * [`ann`] — LSH-based approximate nearest neighbors for the euclidean
//!   replacement of Fig. 3;
//! * [`selection`] — model & path selection (§5);
//! * [`confidence`] — completion confidence intervals (§6);
//! * [`cache`] — completed-join reuse (§4.5): single-flight, budgeted;
//! * [`restore`] — the [`ReStore`] builder: annotate, train, then
//!   [`ReStore::seal`]. It answers no query;
//! * [`snapshot`] — the immutable, concurrent serving [`Snapshot`] a seal
//!   (or a snapshot file) produces — the only type that answers one;
//! * [`registry`] — multi-tenant snapshot registry with atomic hot swap;
//! * [`wire`] — the serializable JSON query surface the HTTP front-end
//!   (`restore-serve`) speaks.

#![forbid(unsafe_code)]

pub mod ann;
pub mod annotation;
pub mod cache;
pub mod completion;
pub mod confidence;
pub mod encoding;
pub mod error;
pub mod merge;
pub mod model;
pub mod paths;
pub mod persist;
pub mod registry;
pub mod restore;
pub mod selection;
pub mod snapshot;
pub mod wire;

pub use ann::AnnIndex;
pub use annotation::{
    is_key_column, is_tf_column, modeled_columns, tf_column_name, SchemaAnnotation,
};
pub use cache::{CacheStats, JoinCache};
pub use completion::{Completer, CompleterConfig, CompletionOutput, ReplacementMode};
pub use confidence::{confidence_interval, ConfidenceInterval, ConfidenceQuery};
pub use encoding::AttrEncoder;
pub use error::{CoreError, CoreResult};
pub use merge::{merge_tasks, CompletionTask, MergedModelSpec};
pub use model::{AttrKind, CompletionModel, ModelAttr, TrainConfig};
pub use paths::{enumerate_paths, CompletionPath};
pub use persist::{PersistError, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC};
pub use registry::{RegistryView, SnapshotRegistry};
pub use restore::{ModelSummary, ReStore, RestoreConfig, TrainReport};
pub use selection::{
    score_candidates, BiasDirection, CandidateScore, SelectionStrategy, SuspectedBias,
};
pub use snapshot::{query_focus_columns, Snapshot};
pub use wire::{ConfidenceSpec, QueryRequest, WireError};
