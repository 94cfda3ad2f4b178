//! # restore-eval — the ReStore evaluation harness
//!
//! Reproduces every table and figure of the paper's §7 (and appendix A):
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | Fig. 5a/5b | [`experiments::exp1::run_exp1`] | `exp1_bias` |
//! | Fig. 5c | [`experiments::exp1::run_exp1_fanout`] | `exp1_fanout` |
//! | Fig. 6 / 13 | [`experiments::confidence::run_confidence_synthetic`] | `exp1_confidence` |
//! | Fig. 7a/7b | [`experiments::exp2::run_exp2`] | `exp2_real` |
//! | Table 1 + Fig. 8 | [`experiments::exp3::run_exp3`] | `exp3_queries` |
//! | Fig. 9 | [`experiments::exp4::run_fig9`] | `exp4_models` |
//! | Fig. 10 | [`experiments::exp4::run_fig10`] | `exp4_selection` |
//! | Fig. 11 / 12 | [`experiments::exp4::run_timings`] | `exp4_timing` |
//! | Fig. 14 | [`experiments::confidence::run_confidence_real`] | `exp_confidence_real` |
//!
//! `run_all` executes everything and persists JSON artifacts under
//! `results/`. The absolute numbers depend on the synthetic data generators
//! (see DESIGN.md §2); the *shapes* — who wins, trends across keep rate and
//! removal correlation — reproduce the paper.

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod parallel;
pub mod queries;
pub mod report;

pub use cli::{parse_args, EvalArgs};
pub use metrics::{
    bias_reduction, cardinality_correction, error_improvement, group_relative_error, mean, median,
    relative_error,
};
pub use parallel::parallel_map;
