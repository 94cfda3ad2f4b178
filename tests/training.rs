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
    Completer, CompleterConfig, CompletionModel, CompletionOutput, CompletionPath,
    SchemaAnnotation, TrainConfig,
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
    // 80-row batches in 32-row microbatches → last microbatch is ragged
    // (80 = 2·32 + 16); epochs > 1 re-feeds the tapes every shape.
    let cfg = TrainConfig {
        batch_size: 80,
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
    let complete = restore::data::generate_movies(&restore::data::MoviesConfig::scaled(0.08), 36);
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

/// FNV-1a over everything a completion hands the cache — field names and
/// dtypes, every cell, string dictionaries in entry order, `syn`, `tf` —
/// next to the byte estimate the cache budgets with.
fn completion_fingerprint(out: &CompletionOutput) -> (u64, usize) {
    use restore::db::Column;
    struct Fnv(u64);
    impl Fnv {
        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes.iter().chain(&[0xff]) {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn cell(&mut self, cell: Option<u64>) {
            match cell {
                Some(bits) => self.eat(&bits.to_le_bytes()),
                None => self.eat(b"null"),
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (field, column) in out.join.fields().iter().zip(out.join.columns()) {
        h.eat(format!("{} {}", field.name, field.dtype).as_bytes());
        match column {
            Column::Int(cells) => cells.iter().for_each(|c| h.cell(c.map(|i| i as u64))),
            Column::Float(cells) => cells.iter().for_each(|c| h.cell(c.map(f64::to_bits))),
            Column::Str { dict, codes } => {
                codes.iter().for_each(|c| h.cell(c.map(u64::from)));
                (0..dict.len()).for_each(|c| h.eat(dict.value(c as u32).as_bytes()));
            }
        }
    }
    for flags in &out.syn {
        h.eat(&flags.iter().map(|&f| f as u8).collect::<Vec<u8>>());
    }
    for factors in &out.tf {
        h.eat(format!("{factors:?}").as_bytes());
    }
    (h.0, out.approx_bytes())
}

/// Completions are pinned bit for bit — cells, dictionary order, provenance
/// and byte estimate — to what the walk produced before it stopped encoding
/// columns nobody reads and moved typed storage instead of `Value`s (the
/// values were recorded by running this test at the parent of that change).
/// Housing with apartments *and* landlords removed: one table (nothing to
/// walk), the two chains the cold benchmark synthesizes (binned floats,
/// year-like categoricals, strings, known tuple factors), and
/// `neighborhood → apartment → landlord` — a non-final fan-out step whose
/// sampled tuples are swapped for real neighbours before an n:1 step
/// samples from the tokens the walk
/// maintained, which debug builds compare with the full re-encode at every
/// sampling point (`Working::encoded`).
#[test]
fn completions_are_pinned_on_one_two_and_three_table_paths() {
    use restore::data::housing::{generate_housing, HousingConfig};

    let complete = generate_housing(&HousingConfig::scaled(0.1), 37);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
    removal.tf_keep_rate = 0.3;
    removal.seed = 37;
    let db = apply_removal(&complete, &removal).incomplete;
    let mut removal = RemovalConfig::new(
        BiasSpec::continuous("landlord", "landlord_response_rate"),
        0.6,
        0.5,
    );
    removal.seed = 38;
    let db = apply_removal(&db, &removal).incomplete;
    let ann = SchemaAnnotation::with_incomplete(["apartment", "landlord"]);
    let cfg = TrainConfig {
        epochs: 3,
        min_steps: 60,
        hidden: vec![24, 24],
        max_train_rows: 2_000,
        ..TrainConfig::default()
    };

    let mut got = Vec::new();
    let chains: [&[&str]; 4] = [
        &["neighborhood"],
        &["neighborhood", "apartment"],
        &["landlord", "apartment"],
        &["neighborhood", "apartment", "landlord"],
    ];
    for chain in chains {
        let tables: Vec<String> = chain.iter().map(|t| t.to_string()).collect();
        let path = CompletionPath::from_tables(&db, &tables).unwrap();
        let model = CompletionModel::train(&db, &ann, path, &cfg, 37).unwrap();
        let ccfg = CompleterConfig {
            batch_size: 64,
            ..CompleterConfig::default()
        };
        let completer = Completer::new(&db, &ann).with_config(ccfg);
        let out = completer.complete(&model, 14).unwrap();
        got.push(completion_fingerprint(&out));
    }
    let pinned: [(u64, usize); 4] = [
        (0x2e91fcc6106dbc61, 1_723),
        (0x4908abbb4f407a2a, 70_474),
        (0x3bd0662be9faa944, 61_541),
        (0xc2177e61e10c08f7, 98_756),
    ];
    assert_eq!(got, pinned, "{got:#x?}");
}

/// A snapshot file as `(meta, payload)`, the numbers written after
/// `"train_seconds":` (wall clock) and `"workers":` blanked in the meta.
fn snapshot_parts(bytes: &[u8]) -> (String, &[u8]) {
    let meta_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let mut meta = String::from_utf8(bytes[20..20 + meta_len].to_vec()).unwrap();
    for key in ["\"train_seconds\":", "\"workers\":"] {
        let mut pieces = meta.split(key);
        let mut blanked = pieces.next().unwrap().to_string();
        for piece in pieces {
            blanked.push_str(key);
            blanked.push_str(piece.trim_start_matches(|c: char| "0123456789.eE+-".contains(c)));
        }
        meta = blanked;
    }
    (meta, &bytes[20 + meta_len..bytes.len() - 8])
}

/// A build trains the chains it is asked for side by side and splits
/// `workers` between them. That moves no weight, whatever the count and
/// whoever asks (`train`, `ensure_query_models`, `rebuild_from`), and the
/// split is written nowhere: snapshots differ in what `workers` itself
/// writes and in the wall clock.
#[test]
fn a_build_is_bit_identical_across_worker_counts() {
    use restore::core::{ReStore, RestoreConfig};
    use restore::data::housing::{generate_housing, HousingConfig};

    let seed = 41;
    let complete = generate_housing(&HousingConfig::scaled(0.1), seed);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
    removal.seed = seed;
    let db = apply_removal(&complete, &removal).incomplete;
    let shapes = [
        vec!["apartment".to_string()],
        vec!["apartment".to_string(), "landlord".to_string()],
        vec!["apartment".to_string(), "neighborhood".to_string()],
    ];
    // Chain → bits of its held-out losses and of every parameter.
    let bits = |rs: &ReStore| -> std::collections::BTreeMap<Vec<String>, Vec<u32>> {
        let models = rs.trained_models();
        let model_bits = |m: &std::sync::Arc<CompletionModel>| {
            let params = m.params().values().iter().flat_map(|mat| mat.data());
            let floats = m.val_per_attr.iter().chain(params);
            (
                m.path().tables().to_vec(),
                floats.map(|v| v.to_bits()).collect(),
            )
        };
        models.iter().map(model_bits).collect()
    };
    let build = |workers: usize| {
        let cfg = RestoreConfig {
            train: TrainConfig {
                epochs: 3,
                min_steps: 60,
                hidden: vec![24, 24],
                max_train_rows: 2_000,
                workers,
                ..TrainConfig::default()
            },
            max_candidates: 2,
            ..RestoreConfig::default()
        };
        let mut rs = ReStore::new(db.clone(), cfg);
        rs.mark_incomplete("apartment");
        rs.train(seed).unwrap();
        for shape in &shapes {
            assert!(rs.ensure_query_models(shape, seed).unwrap().is_none());
        }
        let snapshot = rs.seal(1);
        let rebuilt = ReStore::rebuild_from(&snapshot, seed).unwrap();
        assert_eq!(
            snapshot.config().train.workers,
            workers,
            "the split was stored"
        );
        (bits(&rs), bits(&rebuilt), snapshot.to_bytes())
    };

    let (built, rebuilt, bytes) = build(1);
    assert_eq!(built.len(), 4);
    assert!(built == rebuilt, "one worker: rebuild_from moved a weight");
    for workers in [2usize, 4] {
        let (other, other_rebuilt, other_bytes) = build(workers);
        assert!(other == built, "{workers} workers moved a weight");
        assert!(
            other_rebuilt == built,
            "{workers} workers: rebuild_from moved a weight"
        );
        let (meta, payload) = snapshot_parts(&bytes);
        let (other_meta, other_payload) = snapshot_parts(&other_bytes);
        assert_eq!(
            meta, other_meta,
            "{workers} workers changed the snapshot meta"
        );
        assert!(
            payload == other_payload,
            "{workers} workers changed the snapshot payload"
        );
    }
}

/// A chain that cannot train beside one that can is reported the way it was
/// when chains trained one after the other: `train` ranks the survivors,
/// `ensure_query_models` hands the error back.
#[test]
fn a_failed_chain_beside_a_trained_one_surfaces_as_before() {
    use restore::core::{CoreError, ReStore, RestoreConfig};
    use restore::db::{DataType, Database, Field, ForeignKey, Table, Value};

    // `c` hangs off `p` (every row) and off `q` (5 rows: too few to train on).
    let mut db = Database::new();
    let parent = |name: &str| {
        let fields = vec![
            Field::new("id", DataType::Int),
            Field::new("a", DataType::Str),
        ];
        let mut t = Table::new(name, fields);
        for i in 0..40 {
            let a = Value::str(["x", "y", "z"][i as usize % 3]);
            t.push_row(&[Value::Int(i), a]).unwrap();
        }
        t
    };
    let mut child = Table::new(
        "c",
        vec![
            Field::new("id", DataType::Int),
            Field::new("p_id", DataType::Int),
            Field::new("q_id", DataType::Int),
            Field::new("x", DataType::Str),
        ],
    );
    for i in 0..120 {
        let q_id = if i < 5 { i } else { 1_000 + i };
        let x = Value::str(["u", "v"][(i % 3 == 0) as usize]);
        let row = [Value::Int(i), Value::Int(i / 3), Value::Int(q_id), x];
        child.push_row(&row).unwrap();
    }
    db.add_table(parent("p"));
    db.add_table(parent("q"));
    db.add_table(child);
    db.add_foreign_key(ForeignKey::new("c", "p_id", "p", "id"))
        .unwrap();
    db.add_foreign_key(ForeignKey::new("c", "q_id", "q", "id"))
        .unwrap();

    for workers in [1usize, 2] {
        let cfg = RestoreConfig {
            train: quick_cfg(workers),
            max_candidates: 2,
            ..RestoreConfig::default()
        };
        let mut rs = ReStore::new(db.clone(), cfg);
        rs.mark_incomplete("c");
        assert_eq!(rs.candidate_paths("c").len(), 2);
        let report = rs.train(35).unwrap();
        assert_eq!(report.candidates["c"].len(), 1, "{workers} workers");
        assert_eq!(rs.trained_models().len(), 1);
        assert_eq!(rs.selected_model("c").unwrap().path().tables(), ["p", "c"]);
        let last_err = rs.ensure_query_models(&["c".to_string()], 35).unwrap();
        assert!(
            matches!(last_err, Some(CoreError::InsufficientData(_))),
            "{workers} workers: {last_err:?}"
        );
    }
}
