//! Contracts of the data-parallel training engine and the completion-path
//! caches introduced with it:
//!
//! * training is **bit-identical** under any worker count (microbatch
//!   gradients are independent, the reduction order is pinned);
//! * arena tapes reused across ragged batch shapes reproduce fresh tapes
//!   exactly;
//! * per-worker `InferenceSession` reuse and the incremental encoding
//!   cache never change a completion's output.

use rand::rngs::StdRng;
use rand::SeedableRng;

use restore::core::{
    Completer, CompleterConfig, CompletionModel, CompletionPath, SchemaAnnotation, TrainConfig,
};
use restore::data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore::nn::InferenceSession;

fn synthetic_scenario(seed: u64) -> restore::data::Scenario {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 150,
            ..Default::default()
        },
        seed,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = seed;
    apply_removal(&db, &removal)
}

fn quick_cfg(workers: usize) -> TrainConfig {
    TrainConfig {
        epochs: 5,
        hidden: vec![24, 24],
        min_steps: 150,
        workers,
        ..TrainConfig::default()
    }
}

fn train_with_workers(
    sc: &restore::data::Scenario,
    cfg: TrainConfig,
    seed: u64,
) -> CompletionModel {
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let path = CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
    CompletionModel::train(&sc.incomplete, &ann, path, &cfg, seed).unwrap()
}

/// The headline contract of the data-parallel engine: the same seed gives
/// bit-identical training runs — losses, validation metrics, and every
/// parameter — no matter how many workers share the microbatches.
#[test]
fn training_is_bit_identical_across_worker_counts() {
    let sc = synthetic_scenario(31);
    let base = train_with_workers(&sc, quick_cfg(1), 31);
    for workers in [2usize, 8] {
        let other = train_with_workers(&sc, quick_cfg(workers), 31);
        assert_eq!(
            base.train_losses, other.train_losses,
            "train losses diverged at {workers} workers"
        );
        assert_eq!(
            base.val_loss.to_bits(),
            other.val_loss.to_bits(),
            "val loss diverged at {workers} workers"
        );
        assert_eq!(base.val_per_attr, other.val_per_attr);
        let (pa, pb) = (base.params(), other.params());
        assert_eq!(pa.len(), pb.len());
        for id in 0..pa.len() {
            assert_eq!(
                pa.value(id),
                pb.value(id),
                "parameter {id} diverged at {workers} workers"
            );
        }
    }
}

/// SSAR training (DeepSets context assembled per microbatch) obeys the
/// same worker-count invariance.
#[test]
fn ssar_training_is_bit_identical_across_worker_counts() {
    let sc = synthetic_scenario(32);
    let base = train_with_workers(&sc, quick_cfg(1).ssar(), 32);
    let other = train_with_workers(&sc, quick_cfg(4).ssar(), 32);
    assert!(base.is_ssar());
    assert_eq!(base.train_losses, other.train_losses);
    assert_eq!(base.val_loss.to_bits(), other.val_loss.to_bits());
    for id in 0..base.params().len() {
        assert_eq!(base.params().value(id), other.params().value(id));
    }
}

/// The microbatch size shapes the gradient reduction tree, so ragged last
/// microbatches (batch not divisible by the microbatch size) must reuse
/// the worker tapes without leaking shape state between steps: training
/// twice with the same config is bit-identical, and the raggedness only
/// perturbs results at the rounding level, never the training signal.
#[test]
fn tape_reuse_survives_ragged_microbatches() {
    let sc = synthetic_scenario(33);
    // 256-row batches with 48-row microbatches → last microbatch is ragged
    // (256 = 5·48 + 16); epochs > 1 re-feeds the tapes every shape.
    let cfg = TrainConfig {
        microbatch: 48,
        ..quick_cfg(3)
    };
    let a = train_with_workers(&sc, cfg.clone(), 33);
    let b = train_with_workers(&sc, cfg, 33);
    assert_eq!(a.train_losses, b.train_losses);
    assert_eq!(a.val_loss.to_bits(), b.val_loss.to_bits());
    for id in 0..a.params().len() {
        assert_eq!(a.params().value(id), b.params().value(id));
    }
    // And the run actually learned (the reused arenas computed something).
    assert!(a.train_losses.last().unwrap() < a.train_losses.first().unwrap());
}

/// Per-worker session reuse: sampling through one session across many
/// batches is bit-identical to a fresh session per batch.
#[test]
fn session_reuse_across_batches_is_bit_identical() {
    let sc = synthetic_scenario(34);
    let model = train_with_workers(&sc, quick_cfg(0), 34);
    let ta = sc.incomplete.table("ta").unwrap().qualified();
    let tf_slots: Vec<Vec<Option<i64>>> = vec![vec![None; ta.n_rows()]];
    let encoded = model.encode_tokens(&ta, &tf_slots);

    let batches: Vec<Vec<usize>> = vec![
        (0..32).collect(),
        (32..33).collect(), // ragged single-row batch in between
        (40..100).collect(),
        (0..32).collect(), // repeat of the first shape
    ];
    let mut reused = InferenceSession::new();
    for (k, rows) in batches.iter().enumerate() {
        let mut rng_a = StdRng::seed_from_u64(100 + k as u64);
        let with_reuse = model
            .sample_table_columns_encoded_in(&mut reused, &ta, &encoded, 1, rows, &mut rng_a)
            .unwrap();
        let mut fresh = InferenceSession::new();
        let mut rng_b = StdRng::seed_from_u64(100 + k as u64);
        let with_fresh = model
            .sample_table_columns_encoded_in(&mut fresh, &ta, &encoded, 1, rows, &mut rng_b)
            .unwrap();
        assert_eq!(
            with_reuse, with_fresh,
            "batch {k} diverged between reused and fresh sessions"
        );
    }
}

/// The incremental encoding cache must be invisible: wherever a step
/// samples from the cached, incrementally-refreshed encoding, the
/// completion engine's debug assertion compares it with a full re-encode
/// of the working join (tier-1 runs tests in debug). This drives one
/// fan-out step through that check.
#[test]
fn incremental_encoding_matches_full_reencoding() {
    let sc = synthetic_scenario(35);
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let path = CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
    let model = CompletionModel::train(&sc.incomplete, &ann, path, &quick_cfg(0), 35).unwrap();

    let cfg = CompleterConfig {
        batch_size: 64,
        ..CompleterConfig::default()
    };
    let out = Completer::new(&sc.incomplete, &ann)
        .with_config(cfg)
        .complete(&model, 12)
        .unwrap();
    assert!(out.n_synthesized() > 0, "no step sampled from the cache");
}

/// Same check on a longer path (movies: director → movie_director →
/// movie) so the cache survives multiple joins, tuple-factor refreshes,
/// and nearest-neighbor replacement of intermediate tables.
#[test]
fn incremental_encoding_matches_full_reencoding_multistep() {
    let complete = restore::data::movies::generate_movies(
        &restore::data::movies::MoviesConfig::scaled(0.08),
        36,
    );
    let mut removal =
        RemovalConfig::new(BiasSpec::continuous("movie", "production_year"), 0.4, 0.4);
    removal.tf_keep_rate = 0.2;
    removal.cascade = vec![
        "movie_company".to_string(),
        "movie_actor".to_string(),
        "movie_director".to_string(),
    ];
    removal.seed = 36;
    let sc = apply_removal(&complete, &removal);
    let ann = SchemaAnnotation::with_incomplete(sc.incomplete_tables.iter().map(String::as_str));
    let path = CompletionPath::from_tables(
        &sc.incomplete,
        &[
            "director".to_string(),
            "movie_director".to_string(),
            "movie".to_string(),
        ],
    )
    .unwrap();
    let cfg = TrainConfig {
        epochs: 3,
        min_steps: 60,
        hidden: vec![24, 24],
        max_train_rows: 2_000,
        ..TrainConfig::default()
    };
    let model = CompletionModel::train(&sc.incomplete, &ann, path, &cfg, 36).unwrap();

    let ccfg = CompleterConfig {
        batch_size: 64,
        ..CompleterConfig::default()
    };
    let out = Completer::new(&sc.incomplete, &ann)
        .with_config(ccfg)
        .complete(&model, 13)
        .unwrap();
    assert!(out.n_synthesized() > 0, "no step sampled from the cache");
}
