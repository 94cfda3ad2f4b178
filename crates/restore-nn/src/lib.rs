//! # restore-nn — neural substrate for ReStore
//!
//! The ReStore paper implements its completion models in PyTorch; no deep
//! learning framework is available in this offline environment, so this
//! crate provides the minimal substrate the models need, built from scratch:
//!
//! * [`tensor::Matrix`] — dense row-major `f32` matrices;
//! * [`tape::Tape`] — reverse-mode automatic differentiation (training);
//! * [`infer`] — the gradient-free batched inference engine (completion):
//!   the [`infer::Forward`] trait lets one set of layer definitions drive
//!   both the recorded and the no-grad execution paths;
//! * [`params::ParamStore`] — parameter/gradient storage;
//! * [`layers`] — linear, masked linear, embedding, MLP;
//! * [`masks`] — MADE mask construction with attribute-grouped degrees;
//! * [`made::Made`] — the masked autoregressive network (AR backbone);
//! * [`sweep::ArSweep`] — the band-incremental autoregressive sweep: per
//!   sampled attribute, recompute only the hidden-degree band the masks
//!   say changed, bit-identical to full recompute;
//! * [`deepsets::DeepSets`] — permutation-invariant tree embeddings
//!   (SSAR conditioning);
//! * [`loss`] — per-attribute softmax cross-entropy and KL divergence;
//! * [`optim`] — Adam / SGD;
//! * [`train`] — the data-parallel gradient engine (per-worker arena
//!   tapes, per-microbatch gradient buffers, order-pinned reduction).
//!
//! Everything is deterministic given a seed and sized for laptop-scale
//! tabular models (a few hundred thousand parameters).

#![forbid(unsafe_code)]

pub mod deepsets;
pub mod infer;
pub mod layers;
pub mod loss;
pub mod made;
pub mod masks;
pub mod optim;
pub mod params;
pub mod sweep;
pub mod tape;
pub mod tensor;
pub mod train;

pub use deepsets::{DeepSets, DeepSetsConfig, SetBatch, SetTableSpec, TableSet};
pub use infer::{Forward, InferCtx, InferRef, InferenceSession};
pub use loss::{
    block_cross_entropy, block_cross_entropy_sums, kl_divergence, BlockLayout, BlockLoss,
    BlockLossSums,
};
pub use made::{sample_categorical, AttrSpec, Made, MadeConfig};
pub use optim::{Adam, Sgd};
pub use params::{GradBuffer, ParamId, ParamStore};
pub use sweep::{ArSweep, BandedCache};
pub use tape::{Tape, TapeCtx, VarId};
pub use tensor::{lane, Matrix};
pub use train::TrainEngine;
