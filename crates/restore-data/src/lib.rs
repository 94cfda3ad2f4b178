//! # restore-data — datasets and biased removal for the ReStore evaluation
//!
//! The paper evaluates on the Airbnb-derived housing schema (Fig. 4a), the
//! IMDB-derived movies schema (Fig. 4b) and a controlled synthetic
//! two-table dataset (Exp. 1). Neither real dump is available offline, so
//! this crate generates databases with the same schema shapes and *planted*
//! cross-table correlations (documented per generator), plus the machinery
//! that derives incomplete databases from them:
//!
//! * [`generate_synthetic`] — the Exp. 1 dataset with controllable
//!   predictability, skew, and fan-out predictability;
//! * [`housing::generate_housing`] / [`generate_movies`] — the two
//!   "real-world" schemas;
//! * [`apply_removal`] — systematic biased removal (keep rate, removal
//!   correlation, tuple-factor keep rate, cascades);
//! * [`all_setups`] — the ten completion setups H1–H5 / M1–M5 of Fig. 4c.
//!
//! Every item here is exported from the crate root, except `housing`,
//! whose module path callers name.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod housing;
mod movies;
mod removal;
mod setups;
mod synthetic;
mod zipf;

pub use movies::{generate_movies, MoviesConfig};
pub use removal::{apply_removal, most_frequent_value, BiasSpec, RemovalConfig, Scenario};
pub use setups::{all_setups, build_scenario, setup_by_id, Setup};
pub use synthetic::{generate_synthetic, SyntheticConfig};
