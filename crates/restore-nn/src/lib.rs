//! # restore-nn — neural substrate for ReStore
//!
//! The ReStore paper implements its completion models in PyTorch; no deep
//! learning framework is available in this offline environment, so this
//! crate provides the minimal substrate the models need, built from scratch:
//!
//! * [`Matrix`] — dense row-major `f32` matrices;
//! * [`Tape`] — reverse-mode automatic differentiation (training);
//! * [`InferenceSession`] — the gradient-free batched inference engine
//!   (completion): the [`Forward`] trait lets one set of layer definitions
//!   drive both the recorded and the no-grad execution paths;
//! * [`ParamStore`] — parameter/gradient storage;
//! * linear, masked linear, embedding and MLP layers, and MADE mask
//!   construction with attribute-grouped degrees (internal);
//! * [`Made`] — the masked autoregressive network (AR backbone), whose
//!   band-incremental sweep recomputes, per sampled attribute, only the
//!   hidden-degree band the masks say changed, bit-identical to full
//!   recompute;
//! * [`DeepSets`] — permutation-invariant tree embeddings (SSAR
//!   conditioning);
//! * [`block_cross_entropy_sums`] / [`kl_divergence`] — per-attribute
//!   softmax cross-entropy and KL divergence;
//! * [`Adam`] — the optimizer;
//! * [`TrainEngine`] — the data-parallel gradient engine (per-worker arena
//!   tapes, per-microbatch gradient buffers, order-pinned reduction).
//!
//! Everything is deterministic given a seed and sized for laptop-scale
//! tabular models (a few hundred thousand parameters).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod deepsets;
mod infer;
mod layers;
mod loss;
mod made;
mod masks;
mod optim;
mod params;
mod sweep;
mod tape;
mod tensor;
mod train;

pub use deepsets::{DeepSets, DeepSetsConfig, SetBatch, SetTableSpec, TableSet};
pub use infer::{Forward, InferenceSession};
pub use loss::{block_cross_entropy_sums, kl_divergence, softmax_into, BlockLoss, BlockLossSums};
pub use made::{sample_categorical, AttrSpec, Made, MadeConfig};
pub use optim::Adam;
pub use params::{GradBuffer, ParamStore};
pub use tape::{Tape, TapeCtx};
pub use tensor::{lane, Matrix};
pub use train::TrainEngine;
