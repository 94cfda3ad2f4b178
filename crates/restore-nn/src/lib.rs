//! # restore-nn — neural substrate for ReStore
//!
//! The ReStore paper implements its completion models in PyTorch; no deep
//! learning framework is available in this offline environment, so this
//! crate provides the minimal substrate the models need, built from scratch:
//!
//! * [`Matrix`] — dense row-major `f32` matrices;
//! * [`Tape`] — the one forward executor, with reverse-mode automatic
//!   differentiation: the layers are written against the [`Forward`] op
//!   vocabulary, a pass is recorded through [`Tape::ctx`]'s [`TapeCtx`], and
//!   training differentiates it with [`Tape::backward_with`] (a
//!   gradient-free pass never does);
//! * [`InferenceSession`] — a worker's warm buffers for gradient-free
//!   inference (completion): a tape for full forwards and the
//!   band-incremental sweep's matrices, for any number of models;
//! * [`ParamStore`] — parameter/gradient storage;
//! * linear, masked linear, embedding and MLP layers, and MADE mask
//!   construction with attribute-grouped degrees (internal);
//! * [`Made`] — the masked autoregressive network (AR backbone), whose
//!   band-incremental sweep recomputes, per sampled attribute, only the
//!   hidden-degree band the masks say changed, from degree-banded weights
//!   the model builds once ([`Made::freeze_banded`]), bit-identical to full
//!   recompute, and hands out conditionals through a visitor: one
//!   distribution per distinct evidence prefix, MASK dropped by the
//!   sampler's rule, no per-row copy;
//! * [`DeepSets`] — permutation-invariant tree embeddings (SSAR
//!   conditioning);
//! * [`block_cross_entropy_sums`] / [`kl_divergence`] — per-attribute
//!   softmax cross-entropy (with its logit gradient; the held-out loss,
//!   [`Made::evaluate`], computes none) and KL divergence;
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
pub use infer::InferenceSession;
pub use loss::{block_cross_entropy_sums, kl_divergence, softmax_into, BlockLoss, BlockLossSums};
pub use made::{sample_categorical, AttrSpec, Made, MadeConfig};
pub use optim::Adam;
pub use params::{GradBuffer, ParamStore};
pub use tape::{Forward, Tape, TapeCtx};
pub use tensor::{lane, Matrix};
pub use train::TrainEngine;
