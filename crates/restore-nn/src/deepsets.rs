//! DeepSets tree embeddings (Zaheer et al., NeurIPS 2017) — the
//! permutation-invariant set encoder SSAR models use to incorporate fan-out
//! evidence (§3.3 of the ReStore paper).
//!
//! Each fan-out table gets its own tuple encoder (weight sharing across
//! tuples of the same table); tuple encodings are sum-pooled per evidence
//! row and the concatenated per-table pools pass through a joint MLP that
//! produces the conditioning context for the MADE network.

use std::sync::Arc;

use rand::Rng;

use crate::infer::InferenceSession;
use crate::layers::{Embedding, Mlp};
use crate::params::ParamStore;
use crate::tape::Forward;
use crate::tensor::Matrix;

/// Configuration of the encoder for one fan-out table.
#[derive(Clone, Debug)]
pub struct SetTableSpec {
    /// Cardinality of each encoded attribute of the table.
    pub attr_cards: Vec<usize>,
    /// Embedding width used for every attribute of this table.
    pub embed_dim: usize,
    /// Width of the per-tuple encoding (pre-pooling).
    pub tuple_dim: usize,
}

impl SetTableSpec {
    pub fn new(attr_cards: Vec<usize>, embed_dim: usize, tuple_dim: usize) -> Self {
        Self {
            attr_cards,
            embed_dim,
            tuple_dim,
        }
    }
}

/// Configuration of the whole tree encoder.
#[derive(Clone, Debug)]
pub struct DeepSetsConfig {
    pub tables: Vec<SetTableSpec>,
    /// Output context width fed into MADE.
    pub ctx_dim: usize,
    /// Hidden width of the post-pooling MLP.
    pub post_hidden: usize,
}

struct TableEncoder {
    embeddings: Vec<Embedding>,
    pre: Mlp,
}

/// The DeepSets encoder.
pub struct DeepSets {
    encoders: Vec<TableEncoder>,
    post: Mlp,
}

/// The fan-out tuples of one table for a batch of evidence rows.
#[derive(Clone, Debug, Default)]
pub struct TableSet {
    /// `tokens[a][t]` — token of attribute `a` for set-tuple `t`.
    pub tokens: Vec<Arc<Vec<u32>>>,
    /// `segments[t]` — index of the evidence row that set-tuple `t` belongs
    /// to. Rows without set-tuples simply never appear (their pooled
    /// encoding is the zero vector).
    pub segments: Arc<Vec<u32>>,
}

/// Fan-out evidence for a batch: one [`TableSet`] per configured table.
#[derive(Clone, Debug, Default)]
pub struct SetBatch {
    pub tables: Vec<TableSet>,
}

impl DeepSets {
    pub fn new<R: Rng>(cfg: &DeepSetsConfig, store: &mut ParamStore, rng: &mut R) -> Self {
        assert!(!cfg.tables.is_empty(), "DeepSets needs at least one table");
        let encoders = cfg
            .tables
            .iter()
            .map(|spec| {
                let embeddings = spec
                    .attr_cards
                    .iter()
                    .map(|&c| Embedding::new(store, c, spec.embed_dim, rng))
                    .collect::<Vec<_>>();
                let in_dim = spec.embed_dim * spec.attr_cards.len();
                let pre = Mlp::new(store, &[in_dim, spec.tuple_dim, spec.tuple_dim], rng);
                TableEncoder { embeddings, pre }
            })
            .collect::<Vec<_>>();
        let pooled_dim: usize = cfg.tables.iter().map(|t| t.tuple_dim).sum();
        let post = Mlp::new(store, &[pooled_dim, cfg.post_hidden, cfg.ctx_dim], rng);
        Self { encoders, post }
    }

    /// Encodes the fan-out evidence of `n_rows` evidence tuples into an
    /// `n_rows × ctx_dim` context through a [`Forward`] executor — on a
    /// tape that SSAR training differentiates (so gradients flow back into
    /// the encoders) and completion does not ([`DeepSets::encode_in`]).
    pub fn forward<F: Forward>(
        &self,
        f: &mut F,
        store: &ParamStore,
        batch: &SetBatch,
        n_rows: usize,
    ) -> F::Id {
        assert_eq!(
            batch.tables.len(),
            self.encoders.len(),
            "table count mismatch"
        );
        let mut pooled = Vec::with_capacity(self.encoders.len());
        for (enc, set) in self.encoders.iter().zip(&batch.tables) {
            assert_eq!(
                set.tokens.len(),
                enc.embeddings.len(),
                "attr count mismatch"
            );
            let n_tuples = set.segments.len();
            for t in &set.tokens {
                assert_eq!(t.len(), n_tuples, "ragged set tokens");
            }
            let parts: Vec<F::Id> = enc
                .embeddings
                .iter()
                .zip(&set.tokens)
                .map(|(emb, toks)| emb.forward(f, store, toks))
                .collect();
            let x = f.concat_cols(&parts);
            let enc_tuples = enc.pre.forward(f, store, x);
            let act = f.relu(enc_tuples);
            let sum = f.segment_sum(act, &set.segments, n_rows);
            pooled.push(sum);
        }
        let joint = if pooled.len() == 1 {
            pooled[0]
        } else {
            f.concat_cols(&pooled)
        };
        self.post.forward(f, store, joint)
    }

    /// Gradient-free batched encoding on the session's tape, returning a
    /// borrow of the `n_rows × ctx_dim` context matrix.
    pub fn encode_in<'s>(
        &self,
        session: &'s mut InferenceSession,
        store: &'s ParamStore,
        batch: &SetBatch,
        n_rows: usize,
    ) -> &'s Matrix {
        let mut f = session.tape.ctx(store);
        let out = self.forward(&mut f, store, batch, n_rows);
        f.into_value(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::params::GradBuffer;
    use crate::tape::Tape;
    use crate::tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn one_table_encoder(seed: u64) -> (DeepSets, ParamStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let cfg = DeepSetsConfig {
            tables: vec![SetTableSpec::new(vec![4], 4, 8)],
            ctx_dim: 6,
            post_hidden: 16,
        };
        let ds = DeepSets::new(&cfg, &mut store, &mut rng);
        (ds, store)
    }

    fn encode(
        ds: &DeepSets,
        store: &ParamStore,
        tokens: Vec<u32>,
        segments: Vec<u32>,
        rows: usize,
    ) -> Matrix {
        let mut tape = Tape::new();
        let batch = SetBatch {
            tables: vec![TableSet {
                tokens: vec![Arc::new(tokens)],
                segments: Arc::new(segments),
            }],
        };
        let mut f = tape.ctx(store);
        let out = ds.forward(&mut f, store, &batch, rows);
        f.value(out).clone()
    }

    #[test]
    fn permutation_invariance() {
        let (ds, store) = one_table_encoder(1);
        let a = encode(&ds, &store, vec![0, 1, 2], vec![0, 0, 0], 1);
        let b = encode(&ds, &store, vec![2, 0, 1], vec![0, 0, 0], 1);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(
                (x - y).abs() < 1e-5,
                "set encoding not permutation invariant"
            );
        }
    }

    #[test]
    fn empty_set_rows_get_consistent_encoding() {
        let (ds, store) = one_table_encoder(2);
        // Row 1 has no set tuples; rows with empty sets must share the
        // encoding of a fully empty batch.
        let enc = encode(&ds, &store, vec![0, 1], vec![0, 0], 2);
        let empty = encode(&ds, &store, vec![], vec![], 1);
        for c in 0..enc.cols() {
            assert!((enc.get(1, c) - empty.get(0, c)).abs() < 1e-6);
        }
    }

    #[test]
    fn different_sets_give_different_encodings() {
        let (ds, store) = one_table_encoder(3);
        let a = encode(&ds, &store, vec![0, 0], vec![0, 0], 1);
        let b = encode(&ds, &store, vec![3, 3], vec![0, 0], 1);
        assert!(a
            .data()
            .iter()
            .zip(b.data())
            .any(|(x, y)| (x - y).abs() > 1e-4));
    }

    #[test]
    fn gradients_flow_into_set_encoder() {
        let (ds, mut store) = one_table_encoder(4);
        let before = store.value(0).clone(); // first embedding table
        let mut adam = Adam::new(&store, 0.05);
        let mut tape = Tape::new();
        let batch = SetBatch {
            tables: vec![TableSet {
                tokens: vec![Arc::new(vec![1, 2, 1])],
                segments: Arc::new(vec![0, 0, 1]),
            }],
        };
        let mut f = tape.ctx(&store);
        let out = ds.forward(&mut f, &store, &batch, 2);
        let (r, c) = f.value(out).shape();
        let mut grads = GradBuffer::new(&store);
        tape.backward_with(out, Matrix::filled(r, c, 1.0), &store, &mut grads);
        store.accumulate_from(&grads);
        adam.step(&mut store);
        let after = store.value(0);
        assert!(
            before.data().iter().zip(after.data()).any(|(a, b)| a != b),
            "embedding table did not move"
        );
    }
}
