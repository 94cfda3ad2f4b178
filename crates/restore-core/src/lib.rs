//! # restore-core — the ReStore system
//!
//! The paper's contribution: schema-structured neural data completion for
//! relational databases.
//!
//! * [`SchemaAnnotation`] — complete/incomplete table annotations (§2.2);
//! * [`AttrEncoder`] — categorical/binned attribute token domains;
//! * [`CompletionPath`] / [`enumerate_paths`] — completion paths through
//!   the FK schema graph;
//! * [`model`] — AR and SSAR completion models (§3.2, §3.3):
//!   [`CompletionModel`], trained under a [`TrainConfig`];
//!   Every chain trains its own model: §3.4's model merging is not
//!   implemented (a build trains its 2-table chains before any query names
//!   the 3-table chain that could absorb one);
//! * [`Completer`] — the incompleteness join, Algorithm 1 (§4), with an
//!   LSH nearest-neighbor index for the euclidean replacement of Fig. 3;
//! * [`score_candidates`] / [`SelectionStrategy`] — model & path
//!   selection (§5);
//! * [`confidence_interval`] — completion confidence intervals (§6);
//! * completed-join reuse (§4.5) behind [`Snapshot::complete_join`] and
//!   every query: a single-flight, budgeted cache inside the snapshot;
//! * [`ReStore`] — the builder: annotate, train, then [`ReStore::seal`].
//!   It answers no query;
//! * [`Snapshot`] — the immutable, concurrent serving snapshot a seal (or
//!   a snapshot file) produces — the only type that answers one;
//! * [`SnapshotRegistry`] — multi-tenant snapshot registry with atomic hot
//!   swap;
//! * [`wire`] — the serializable JSON query surface the HTTP front-end
//!   (`restore-serve`) speaks.
//!
//! Items are exported from the crate root; `model` and `wire` stay public
//! modules because callers name paths inside them.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod ann;
mod annotation;
mod cache;
mod completion;
mod confidence;
mod encoding;
mod error;
pub mod model;
mod paths;
mod persist;
mod registry;
mod restore;
mod selection;
mod snapshot;
pub mod wire;

pub use annotation::SchemaAnnotation;
pub use completion::{Completer, CompleterConfig, CompletionOutput};
pub use confidence::{confidence_interval, ConfidenceInterval, ConfidenceQuery};
pub use encoding::AttrEncoder;
pub use error::{CoreError, CoreResult};
pub use model::{CompletionModel, TrainConfig};
pub use paths::{enumerate_paths, CompletionPath};
pub use persist::{PersistError, SNAPSHOT_FORMAT_VERSION};
pub use registry::SnapshotRegistry;
pub use restore::{ReStore, RestoreConfig};
pub use selection::{score_candidates, BiasDirection, SelectionStrategy, SuspectedBias};
pub use snapshot::{query_focus_columns, Snapshot};
