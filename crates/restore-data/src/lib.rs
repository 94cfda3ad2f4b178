//! # restore-data — datasets and biased removal for the ReStore evaluation
//!
//! The paper evaluates on the Airbnb-derived housing schema (Fig. 4a), the
//! IMDB-derived movies schema (Fig. 4b) and a controlled synthetic
//! two-table dataset (Exp. 1). Neither real dump is available offline, so
//! this crate generates databases with the same schema shapes and *planted*
//! cross-table correlations (documented per generator), plus the machinery
//! that derives incomplete databases from them:
//!
//! * [`synthetic`] — the Exp. 1 dataset with controllable predictability,
//!   skew, and fan-out predictability;
//! * [`housing`] / [`movies`] — the two "real-world" schemas;
//! * [`removal`] — systematic biased removal (keep rate, removal
//!   correlation, tuple-factor keep rate, cascades);
//! * [`setups`] — the ten completion setups H1–H5 / M1–M5 of Fig. 4c.

#![forbid(unsafe_code)]

pub mod housing;
pub mod movies;
pub mod removal;
pub mod setups;
pub mod synthetic;
pub mod zipf;

pub use removal::{
    apply_removal, most_frequent_value, tf_column_name, BiasKind, BiasSpec, RemovalConfig, Scenario,
};
pub use setups::{
    all_setups, build_scenario, housing_setups, movie_setups, setup_by_id, DatasetKind, Setup,
};
pub use synthetic::{generate_synthetic, SyntheticConfig};
pub use zipf::Zipf;
