//! Equivalence contract between the two execution paths: the recording
//! tape context (training) and the gradient-free inference engine must produce
//! **bit-identical** forward outputs from the same weights — the layer
//! definitions are shared, and the no-grad kernels replicate the tape ops'
//! loop order exactly.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use restore::nn::{
    AttrSpec, DeepSets, DeepSetsConfig, Forward, InferenceSession, Made, MadeConfig, Matrix,
    ParamStore, SetBatch, SetTableSpec, TableSet, Tape,
};

fn made_with_ctx(ctx_dim: usize, seed: u64) -> (Made, ParamStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let attrs = vec![
        AttrSpec::new(7, 4),
        AttrSpec::new(5, 4),
        AttrSpec::new(9, 4),
    ];
    let cfg = MadeConfig::new(attrs)
        .with_ctx(ctx_dim)
        .with_hidden(vec![32, 32]);
    let made = Made::new(cfg, &mut store, &mut rng);
    (made, store)
}

fn tokens(n: usize) -> Vec<Arc<Vec<u32>>> {
    vec![
        Arc::new((0..n as u32).map(|r| r % 7).collect()),
        Arc::new((0..n as u32).map(|r| (r * 3) % 5).collect()),
        Arc::new((0..n as u32).map(|r| (r + 2) % 9).collect()),
    ]
}

/// (a) of the determinism contract: no-grad logits == tape logits,
/// bit for bit, on a plain AR model.
#[test]
fn nograd_forward_matches_tape_bit_for_bit() {
    let (made, store) = made_with_ctx(0, 41);
    let toks = tokens(33);

    let mut tape = Tape::new();
    let mut f = tape.ctx(&store);
    let out = made.forward(&mut f, &store, &toks, None);
    let want = f.value(out);

    let mut session = InferenceSession::new();
    let got = made.logits_in(&mut session, &store, &toks, None);
    assert_eq!(want, got, "no-grad logits diverged from tape logits");
}

/// Same contract with SSAR conditioning: the DeepSets context and the
/// conditioned MADE logits both match the tape path exactly.
#[test]
fn nograd_ssar_forward_matches_tape_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut store = ParamStore::new();
    let ds_cfg = DeepSetsConfig {
        tables: vec![SetTableSpec::new(vec![6, 4], 4, 8)],
        ctx_dim: 5,
        post_hidden: 16,
    };
    let ds = DeepSets::new(&ds_cfg, &mut store, &mut rng);
    let attrs = vec![AttrSpec::new(7, 4), AttrSpec::new(5, 4)];
    let made = Made::new(
        MadeConfig::new(attrs).with_ctx(5).with_hidden(vec![24, 24]),
        &mut store,
        &mut rng,
    );

    let n = 9;
    let batch = SetBatch {
        tables: vec![TableSet {
            tokens: vec![
                Arc::new(vec![0, 1, 2, 3, 4, 5, 0, 1]),
                Arc::new(vec![3, 2, 1, 0, 3, 2, 1, 0]),
            ],
            segments: Arc::new(vec![0, 0, 1, 2, 4, 4, 4, 8]),
        }],
    };
    let toks: Vec<Arc<Vec<u32>>> = vec![
        Arc::new((0..n as u32).map(|r| r % 7).collect()),
        Arc::new((0..n as u32).map(|r| r % 5).collect()),
    ];

    // Tape path: context encoded on the tape, then MADE on the tape.
    let mut tape = Tape::new();
    let mut f = tape.ctx(&store);
    let ctx_var = ds.forward(&mut f, &store, &batch, n);
    let ctx_tape = f.value(ctx_var).clone();
    let out = made.forward(&mut f, &store, &toks, Some(ctx_var));
    let want = f.value(out).clone();

    // No-grad path.
    let mut session = InferenceSession::new();
    let ctx_nograd = ds.encode_in(&mut session, &store, &batch, n).clone();
    assert_eq!(ctx_tape, ctx_nograd, "DeepSets context diverged");
    let mut session2 = InferenceSession::new();
    let got = made.logits_in(&mut session2, &store, &toks, Some(&ctx_nograd));
    assert_eq!(&want, got, "conditioned logits diverged");
}

/// Buffer reuse must not leak state between differently shaped batches.
#[test]
fn session_reuse_across_batch_shapes_is_exact() {
    let (made, store) = made_with_ctx(0, 43);
    let mut session = InferenceSession::new();
    for &n in &[64usize, 1, 17, 64, 3] {
        let toks = tokens(n);
        let want = {
            let mut tape = Tape::new();
            let mut f = tape.ctx(&store);
            let out = made.forward(&mut f, &store, &toks, None);
            f.value(out).clone()
        };
        let got = made.logits_in(&mut session, &store, &toks, None);
        assert_eq!(&want, got, "batch of {n} rows diverged after reuse");
    }
}

/// The block-restricted output evaluation (what the sampler runs) equals
/// the corresponding slice of the full logits, bit for bit.
#[test]
fn block_logits_match_full_logits() {
    let (made, store) = made_with_ctx(0, 46);
    let toks = tokens(21);
    let full = made.logits(&store, &toks, None);
    for attr in 0..3 {
        let (off, card) = made.layout().block(attr);
        let mut session = InferenceSession::new();
        let block = made.logits_attr_in(&mut session, &store, &toks, None, attr);
        assert_eq!(block.shape(), (21, card));
        for r in 0..block.rows() {
            assert_eq!(
                block.row(r),
                &full.row(r)[off..off + card],
                "attr {attr} row {r} diverged"
            );
        }
    }
}

/// The convenience `logits` wrapper and the session path agree.
#[test]
fn logits_wrapper_matches_session_path() {
    let (made, store) = made_with_ctx(0, 44);
    let toks = tokens(12);
    let a = made.logits(&store, &toks, None);
    let mut session = InferenceSession::new();
    let b = made.logits_in(&mut session, &store, &toks, None);
    assert_eq!(&a, b);
}

/// Matrix-level kernel contract: the fused masked matmul equals
/// hadamard-then-matmul bit for bit.
#[test]
fn masked_matmul_into_matches_hadamard_matmul() {
    let mut rng = StdRng::seed_from_u64(45);
    let x = Matrix::rand_uniform(17, 13, -2.0, 2.0, &mut rng);
    let w = Matrix::rand_uniform(13, 11, -2.0, 2.0, &mut rng);
    let mask_f = Matrix::rand_uniform(13, 11, 0.0, 1.0, &mut rng);
    let mut mask = Matrix::zeros(13, 11);
    for r in 0..13 {
        for c in 0..11 {
            mask.set(r, c, if mask_f.get(r, c) > 0.5 { 1.0 } else { 0.0 });
        }
    }
    let want = x.matmul(&w.hadamard(&mask));
    let mut got = Matrix::zeros(0, 0);
    x.masked_matmul_into(&w, &mask, &mut got);
    assert_eq!(want, got);
}
