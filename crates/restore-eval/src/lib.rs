//! # restore-eval — the ReStore evaluation harness
//!
//! Reproduces every table and figure of the paper's §7 (and appendix A):
//!
//! | Paper artifact | Runner | Artifact |
//! |---|---|---|
//! | Fig. 5a/5b | [`run_exp1`] | `fig5a_exp1_bias.json` |
//! | Fig. 5c | [`run_exp1_fanout`] | `fig5c_fanout.json` |
//! | Fig. 6 / 13 | [`run_confidence_synthetic`] | `fig6_fig13_confidence_synthetic.json` |
//! | Fig. 7a/7b | [`run_exp2`] | `fig7_exp2_real.json` |
//! | Table 1 + Fig. 8 | [`run_exp3`] | `fig8_exp3_queries.json` |
//! | Fig. 9 | [`run_fig9`] | `fig9_ar_vs_ssar.json` |
//! | Fig. 10 | [`run_fig10`] | `fig10_selection.json` |
//! | Fig. 11 / 12 | [`run_timings`] | `fig11_fig12_timing.json` |
//! | Fig. 14 | [`run_confidence_real`] | `fig14_confidence_real.json` |
//!
//! The `run_all` binary calls every runner in one process and writes each
//! artifact under `results/` (or `$RESTORE_RESULTS_DIR`), with one verdict
//! line per artifact; `inspect_query` runs one Table 1 query side by side.
//! `tests/statistical.rs` asserts the paper's claims on these runners. The
//! absolute numbers depend on `restore-data`'s synthetic generators; the
//! *shapes* — who wins, trends across keep rate and removal
//! correlation — reproduce the paper.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod cli;
mod experiments;
mod harness;
mod metrics;
mod queries;

pub use cli::parse_args;
pub use experiments::confidence::{run_confidence_real, run_confidence_synthetic};
pub use experiments::exp1::{run_exp1, run_exp1_fanout, Exp1Config};
pub use experiments::exp2::run_exp2;
pub use experiments::exp3::{query_error, run_exp3};
pub use experiments::exp4::{run_fig10, run_fig9, run_timings};
pub use harness::eval_train_config;
pub use metrics::{mean, median};
pub use queries::queries_for_setup;
