//! # restore-eval — the ReStore evaluation harness
//!
//! Reproduces every table and figure of the paper's §7 (and appendix A):
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | Fig. 5a/5b | [`run_exp1`] | `exp1_bias` |
//! | Fig. 5c | [`run_exp1_fanout`] | `exp1_fanout` |
//! | Fig. 6 / 13 | [`run_confidence_synthetic`] | `exp1_confidence` |
//! | Fig. 7a/7b | [`run_exp2`] | `exp2_real` |
//! | Table 1 + Fig. 8 | [`run_exp3`] | `exp3_queries` |
//! | Fig. 9 | [`run_fig9`] | `exp4_models` |
//! | Fig. 10 | [`run_fig10`] | `exp4_selection` |
//! | Fig. 11 / 12 | [`run_timings`] | `exp4_timing` |
//! | Fig. 14 | [`run_confidence_real`] | `exp_confidence_real` |
//!
//! `run_all` executes everything and persists JSON artifacts under
//! `results/`. The absolute numbers depend on the synthetic data generators
//! (see DESIGN.md §2); the *shapes* — who wins, trends across keep rate and
//! removal correlation — reproduce the paper.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod cli;
mod experiments;
mod harness;
mod metrics;
mod queries;
mod report;

pub use cli::parse_args;
pub use experiments::confidence::{run_confidence_real, run_confidence_synthetic};
pub use experiments::exp1::{run_exp1, run_exp1_fanout, Exp1Config};
pub use experiments::exp2::run_exp2;
pub use experiments::exp3::{query_error, run_exp3};
pub use experiments::exp4::{run_fig10, run_fig9, run_timings};
pub use harness::eval_train_config;
pub use metrics::{bias_reduction, cardinality_correction, mean, median};
pub use queries::queries_for_setup;
pub use report::{pct, print_table, save_json, secs};
