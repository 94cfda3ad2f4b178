//! The per-worker state of gradient-free inference.
//!
//! Completion — the autoregressive sampling loop that dominates ReStore's
//! runtime — runs on the band-incremental sweep ([`crate::sweep::ArSweep`]);
//! the full forwards it needs besides (the SSAR context encoding and the
//! sweep's full-trunk oracles) record on a [`Tape`] and are never
//! differentiated. [`InferenceSession`] keeps the buffers of both, so a
//! session that stays warm across batches allocates nothing once the shapes
//! repeat. It holds no weights: the sweep's degree-banded weights belong to
//! the model ([`Made::freeze_banded`](crate::made::Made::freeze_banded)), so
//! one session may sweep any number of models.

use crate::tape::Tape;

/// Reusable state for gradient-free forward passes: a tape for the full
/// forwards and the sweep's buffers (conditionals are read out of the
/// sweep's own distribution scratch, see
/// [`Made::conditional_dists_in`](crate::made::Made::conditional_dists_in)).
///
/// Create one per worker thread, then run any number of forward passes of
/// any models through it.
#[derive(Default)]
pub struct InferenceSession {
    /// Records the full gradient-free forwards.
    pub(crate) tape: Tape,
    /// Buffers of the band-incremental AR sweep: per-layer activations and
    /// sampling scratch, persistent across batches (see
    /// [`crate::sweep::ArSweep`]).
    pub(crate) sweep: crate::sweep::ArSweep,
}

impl InferenceSession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Node slots of the session's tape (diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.tape.arena_len()
    }
}
