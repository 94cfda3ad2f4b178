//! Equality contract of the band-incremental autoregressive sweep: block
//! logits and sampled tokens must be **bit-identical** to the full-trunk
//! oracle (`Made::logits_attr_full_in` / `Made::sample_range_full_in`) on
//! the same model, across ragged batch shapes, resumed ranges
//! (`start > 0`), excluded tokens, and the SSAR DeepSets context — all
//! over warm, reused sessions, the way the completion engine runs it.
//! Worker-count invariance of completions under the sweep is also pinned
//! by `tests/determinism.rs::worker_count_never_changes_the_completion`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use restore::nn::{
    AttrSpec, DeepSets, DeepSetsConfig, InferenceSession, Made, MadeConfig, ParamStore, SetBatch,
    SetTableSpec, TableSet,
};

const CARDS: [usize; 4] = [7, 5, 9, 4];

/// A context-free model over [`CARDS`] with freshly initialised weights.
fn new_made(hidden: Vec<usize>, seed: u64) -> (Made, ParamStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let attrs = CARDS.iter().map(|&c| AttrSpec::new(c, 4)).collect();
    let cfg = MadeConfig::new(attrs).with_hidden(hidden);
    let made = Made::new(cfg, &mut store, &mut rng);
    (made, store)
}

fn tokens(n: usize) -> Vec<Arc<Vec<u32>>> {
    CARDS
        .iter()
        .enumerate()
        .map(|(a, &card)| {
            Arc::new(
                (0..n as u32)
                    .map(|r| (r + a as u32) % card as u32)
                    .collect(),
            )
        })
        .collect()
}

fn assert_bits_eq(a: &restore::nn::Matrix, b: &restore::nn::Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: value diverged");
    }
}

/// Every attribute's logit block from the sweep equals the full-trunk
/// block bit for bit, with one warm session per engine reused across
/// ragged batch shapes — and both equal the full-logits slice.
#[test]
fn sweep_block_logits_bit_identical_across_ragged_shapes() {
    // Residual trunk, non-residual ragged trunk, and a single hidden layer.
    for (hidden, seed) in [(vec![32, 32], 51u64), (vec![32, 16], 52), (vec![24], 53)] {
        let (made, store) = new_made(hidden.clone(), seed);
        let mut s_sweep = InferenceSession::new();
        let mut s_full = InferenceSession::new();
        for &n in &[33usize, 1, 17, 33, 3] {
            let toks = tokens(n);
            let logits = made.logits(&store, &toks, None);
            for attr in 0..CARDS.len() {
                let a = made
                    .logits_attr_in(&mut s_sweep, &store, &toks, None, attr)
                    .clone();
                let b = made
                    .logits_attr_full_in(&mut s_full, &store, &toks, None, attr)
                    .clone();
                assert_bits_eq(&a, &b, &format!("hidden {hidden:?} n {n} attr {attr}"));
                let (off, card) = made.layout().block(attr);
                for r in 0..n {
                    assert_eq!(a.row(r), &logits.row(r)[off..off + card]);
                }
            }
        }
    }
}

/// The sweep sampler draws the exact token sequence of the full-recompute
/// sampler — including the RNG stream position afterwards — for resumed
/// ranges (`start > 0`) and partial ends.
#[test]
fn sweep_sampling_bit_identical_and_rng_aligned() {
    let (made, store) = new_made(vec![32, 32], 54);
    let mut s_sweep = InferenceSession::new();
    let mut s_full = InferenceSession::new();
    for &n in &[1usize, 7, 33] {
        for start in 0..CARDS.len() {
            for end in start..=CARDS.len() {
                let base = tokens(n);
                let mut cols_a = base.clone();
                let mut rng_a = StdRng::seed_from_u64(1000 + start as u64);
                made.sample_range_in(
                    &mut s_sweep,
                    &store,
                    &mut cols_a,
                    None,
                    start,
                    end,
                    &[],
                    &mut rng_a,
                );
                let mut cols_b = base.clone();
                let mut rng_b = StdRng::seed_from_u64(1000 + start as u64);
                made.sample_range_full_in(
                    &mut s_full,
                    &store,
                    &mut cols_b,
                    None,
                    start,
                    end,
                    &[],
                    &mut rng_b,
                );
                assert_eq!(
                    cols_a, cols_b,
                    "tokens diverged at n {n} range {start}..{end}"
                );
                // Same number of draws consumed → streams stay aligned.
                assert_eq!(
                    rand::Rng::random::<u64>(&mut rng_a),
                    rand::Rng::random::<u64>(&mut rng_b),
                    "RNG streams misaligned at n {n} range {start}..{end}"
                );
            }
        }
    }
}

/// Excluded tokens are forwarded into the sweep unchanged: the exclusion
/// renormalization matches the reference path bit for bit and the
/// excluded token never appears.
#[test]
fn sweep_respects_excluded_tokens() {
    let (made, store) = new_made(vec![32, 32], 55);
    let excluded = [None, Some(3u32), None, Some(0)];
    let mut s_sweep = InferenceSession::new();
    let mut s_full = InferenceSession::new();
    let base = tokens(64);
    let mut cols_a = base.clone();
    let mut rng_a = StdRng::seed_from_u64(9);
    made.sample_range_in(
        &mut s_sweep,
        &store,
        &mut cols_a,
        None,
        1,
        4,
        &excluded,
        &mut rng_a,
    );
    let mut cols_b = base.clone();
    let mut rng_b = StdRng::seed_from_u64(9);
    made.sample_range_full_in(
        &mut s_full,
        &store,
        &mut cols_b,
        None,
        1,
        4,
        &excluded,
        &mut rng_b,
    );
    assert_eq!(cols_a, cols_b, "excluded-token sampling diverged");
    assert!(cols_a[1].iter().all(|&t| t != 3), "excluded token sampled");
    assert!(cols_a[3].iter().all(|&t| t != 0), "excluded token sampled");
}

/// The SSAR path: a DeepSets-encoded context conditions the sweep exactly
/// as it conditions the full trunk (degree-0 hidden bands exist and are
/// computed at setup), for both block logits and sampling.
#[test]
fn sweep_matches_full_path_under_deepsets_context() {
    let mut rng = StdRng::seed_from_u64(56);
    let mut store = ParamStore::new();
    let ds_cfg = DeepSetsConfig {
        tables: vec![SetTableSpec::new(vec![6, 4], 4, 8)],
        ctx_dim: 5,
        post_hidden: 16,
    };
    let ds = DeepSets::new(&ds_cfg, &mut store, &mut rng);
    let attrs = CARDS.iter().map(|&c| AttrSpec::new(c, 4)).collect();
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
    let mut s_sweep = InferenceSession::new();
    let mut s_full = InferenceSession::new();
    let ctx = ds.encode_in(&mut s_sweep, &store, &batch, n).clone();
    let toks = tokens(n);
    for attr in 0..CARDS.len() {
        let a = made
            .logits_attr_in(&mut s_sweep, &store, &toks, Some(&ctx), attr)
            .clone();
        let b = made
            .logits_attr_full_in(&mut s_full, &store, &toks, Some(&ctx), attr)
            .clone();
        assert_bits_eq(&a, &b, &format!("ctx attr {attr}"));
    }
    let mut cols_a = toks.clone();
    let mut rng_a = StdRng::seed_from_u64(4);
    made.sample_range_in(
        &mut s_sweep,
        &store,
        &mut cols_a,
        Some(&ctx),
        0,
        4,
        &[],
        &mut rng_a,
    );
    let mut cols_b = toks.clone();
    let mut rng_b = StdRng::seed_from_u64(4);
    made.sample_range_full_in(
        &mut s_full,
        &store,
        &mut cols_b,
        Some(&ctx),
        0,
        4,
        &[],
        &mut rng_b,
    );
    assert_eq!(cols_a, cols_b, "ctx-conditioned sampling diverged");
}

/// End to end through the system: a trained completion model's swept
/// completion is worker-count invariant. (Sweep-vs-oracle equality is the
/// Made-level suites above; the engine has no other path to compare.)
#[test]
fn completion_is_bit_identical_with_and_without_sweep() {
    use restore::core::{
        Completer, CompleterConfig, CompletionModel, CompletionPath, SchemaAnnotation, TrainConfig,
    };
    use restore::data::{
        apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig,
    };

    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 150,
            ..Default::default()
        },
        33,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = 33;
    let sc = apply_removal(&db, &removal);
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let path = CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
    let cfg = TrainConfig {
        epochs: 5,
        hidden: vec![24, 24],
        min_steps: 150,
        ..TrainConfig::default()
    };
    let model = CompletionModel::train(&sc.incomplete, &ann, path, &cfg, 33).unwrap();

    let complete_with = |model: &CompletionModel, workers: usize| {
        let ccfg = CompleterConfig {
            batch_size: 64,
            workers,
            ..CompleterConfig::default()
        };
        Completer::new(&sc.incomplete, &ann)
            .with_config(ccfg)
            .complete(model, 5)
            .unwrap()
    };
    let serial = complete_with(&model, 1);
    let parallel = complete_with(&model, 4);

    assert_eq!(serial.join.n_rows(), parallel.join.n_rows());
    for r in 0..serial.join.n_rows() {
        assert_eq!(serial.join.row(r), parallel.join.row(r), "row {r} differs");
    }
    assert_eq!(serial.syn, parallel.syn);
    assert_eq!(serial.tf, parallel.tf);
}
