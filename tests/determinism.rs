//! Reproducibility: every stochastic component is seeded, so the whole
//! pipeline must be bit-identical across runs with the same seed and
//! different across seeds.

use restore::core::{ReStore, RestoreConfig, TrainConfig};
use restore::data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore::db::{Agg, Query};

/// Data, removal and training under `seed`; synthesis under `serve_seed`;
/// one `COUNT(*)` over `tb` per query seed, all from the one snapshot.
fn pipeline(seed: u64, serve_seed: u64, query_seeds: &[u64]) -> Vec<u64> {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 150,
            ..Default::default()
        },
        seed,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = seed;
    let sc = apply_removal(&db, &removal);
    let cfg = RestoreConfig {
        train: TrainConfig {
            epochs: 5,
            hidden: vec![24, 24],
            min_steps: 150,
            ..TrainConfig::default()
        },
        max_candidates: 1,
        ..RestoreConfig::default()
    };
    let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
    rs.mark_incomplete("tb");
    let q = Query::new(["tb"]).aggregate(Agg::CountStar);
    rs.ensure_query_models(&q.tables, seed).unwrap();
    let snapshot = rs.seal(serve_seed);
    let count = |&s| snapshot.execute(&q, s).unwrap().scalar().unwrap();
    query_seeds.iter().map(count).map(f64::to_bits).collect()
}

#[test]
fn same_seed_same_answer() {
    assert_eq!(pipeline(11, 1, &[1]), pipeline(11, 1, &[1]));
}

#[test]
fn different_completion_seed_changes_sampling() {
    // The serve seed resamples the synthesized tuples; COUNTs may
    // coincide, so check over several seeds that at least one differs.
    let base = pipeline(11, 1, &[1]);
    let any_different = (2..6).any(|serve| pipeline(11, serve, &[1]) != base);
    assert!(
        any_different,
        "sampling should depend on the completion seed"
    );
}

#[test]
fn query_seed_alone_only_drives_thinning() {
    // `ta → tb` has one evidence table, so §4.4 has nothing to thin and the
    // query seed nothing to decide: synthesis hangs off the serve seed.
    let counts = pipeline(11, 1, &[1, 2, 3, 4, 5]);
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
}

/// Runs `f` while every core of the process's budget is counted busy on
/// parked threads.
fn with_every_core_busy<T>(f: impl FnOnce() -> T) -> T {
    use std::sync::{Barrier, RwLock};
    let cores = restore::util::default_workers();
    let parked = RwLock::new(());
    let gate = parked.write().unwrap();
    let counted = Barrier::new(cores + 1);
    std::thread::scope(|s| {
        for _ in 0..cores {
            s.spawn(|| {
                let _busy = restore::util::busy();
                counted.wait();
                drop(parked.read());
            });
        }
        counted.wait();
        let out = f();
        drop(gate);
        out
    })
}

/// The batching contract of the completion engine: for a fixed batch size
/// the sampled completion is bit-identical under any worker count, and
/// under a core budget with no core to spare.
#[test]
fn worker_count_never_changes_the_completion() {
    use restore::core::{
        Completer, CompleterConfig, CompletionModel, CompletionPath, SchemaAnnotation,
    };

    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 150,
            ..Default::default()
        },
        21,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = 21;
    let sc = apply_removal(&db, &removal);
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let path = CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
    let cfg = TrainConfig {
        epochs: 5,
        hidden: vec![24, 24],
        min_steps: 150,
        ..TrainConfig::default()
    };
    let model = CompletionModel::train(&sc.incomplete, &ann, path, &cfg, 21).unwrap();

    let complete_with = |batch_size: usize, workers: usize| {
        let ccfg = CompleterConfig {
            batch_size,
            workers,
        };
        let completer = Completer::new(&sc.incomplete, &ann).with_config(ccfg);
        completer.complete(&model, 9).unwrap()
    };
    // At 3 rows a batch, the duplicates of one evidence row (which the
    // sweep evaluates as one prefix) fall into several batches, each with
    // its own RNG stream: grouping is per batch and never shows.
    for batch_size in [64, 3] {
        let serial = complete_with(batch_size, 1);
        let parents = serial.join.column(serial.join.resolve("ta.id").unwrap());
        let syn = serial.synthesized_for("tb").unwrap();
        let longest_run = (0..serial.join.n_rows())
            .filter(|&r| syn[r])
            .fold((0, 0, None), |(longest, run, prev), r| {
                let id = Some(parents.get(r));
                let run = if id == prev { run + 1 } else { 1 };
                (longest.max(run), run, id)
            })
            .0;
        assert!(longest_run > 3, "no run of duplicates to split");
        let parallel = [
            ("2 workers", complete_with(batch_size, 2)),
            ("8 workers", complete_with(batch_size, 8)),
            (
                "every core busy",
                with_every_core_busy(|| complete_with(batch_size, 0)),
            ),
        ];
        for (label, parallel) in parallel {
            assert_eq!(serial.join.n_rows(), parallel.join.n_rows());
            for r in 0..serial.join.n_rows() {
                assert_eq!(
                    serial.join.row(r),
                    parallel.join.row(r),
                    "row {r} differs at {label}"
                );
            }
            assert_eq!(serial.syn, parallel.syn);
            assert_eq!(serial.tf, parallel.tf);
        }
    }
}

/// Cross-engine sampling contract: the no-grad batched sampler draws the
/// exact token sequence a tape-driven sampler would (per attribute, rows
/// in order, one categorical draw per row) — the reference below runs the
/// sampling loop through the *training* engine, so a change to the
/// batched engine's logits or draw order cannot silently pass.
#[test]
fn batched_sampler_reproduces_tape_driven_sampling() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restore::nn::{
        sample_categorical, softmax_into, AttrSpec, Forward, InferenceSession, Made, MadeConfig,
        ParamStore, Tape,
    };
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(31);
    let mut store = ParamStore::new();
    let attrs = vec![
        AttrSpec::new(6, 4),
        AttrSpec::new(4, 4),
        AttrSpec::new(8, 4),
    ];
    let made = Made::new(
        MadeConfig::new(attrs).with_hidden(vec![24, 24]),
        &mut store,
        &mut rng,
    );
    for n in [1usize, 7, 33] {
        let base: Vec<Arc<Vec<u32>>> = vec![
            Arc::new((0..n as u32).map(|r| r % 6).collect()),
            Arc::new(vec![0; n]),
            Arc::new(vec![0; n]),
        ];
        // Reference: the same iterative sampling driven through the tape.
        let mut tape_cols = base.clone();
        let mut rng_a = StdRng::seed_from_u64(77);
        for attr in 1..3 {
            let mut tape = Tape::new();
            let mut f = tape.ctx(&store);
            let out = made.forward(&mut f, &store, &tape_cols, None);
            let logits = f.value(out);
            let (off, card) = made.layout().block(attr);
            let mut dist = vec![0.0; card];
            let sampled: Vec<u32> = (0..n)
                .map(|r| {
                    softmax_into(&logits.row(r)[off..off + card], &mut dist);
                    sample_categorical(&dist, &mut rng_a)
                })
                .collect();
            tape_cols[attr] = Arc::new(sampled);
        }
        // Engine under test: the batched no-grad sampler.
        let mut engine_cols = base.clone();
        let mut session = InferenceSession::new();
        let mut rng_b = StdRng::seed_from_u64(77);
        made.sample_range_in(
            &mut session,
            &store,
            &mut engine_cols,
            None,
            1,
            3,
            &[],
            &mut rng_b,
        );
        assert_eq!(
            tape_cols, engine_cols,
            "batched sampler diverged from tape-driven sampling at batch size {n}"
        );
    }
}

/// Wiring contract for the encode-once path: sampling through the
/// pre-encoded API one row at a time on one warm session (what `Completer`
/// issues at `batch_size: 1`) matches a fresh encoding on a fresh session
/// per row under the same derived seeds. The *engine-level* single-row
/// contract — that these draws equal an independent tape-driven
/// sampler's — is pinned by `batched_sampler_reproduces_tape_driven_sampling`
/// above (which includes batch size 1); this test additionally covers the
/// token-encoding and context wiring of the model layer.
#[test]
fn batch_of_one_reproduces_single_row_sampling() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restore::core::{CompletionModel, CompletionPath, SchemaAnnotation};
    use restore::nn::InferenceSession;
    use restore::util::derive_seed;

    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 150,
            ..Default::default()
        },
        22,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = 22;
    let sc = apply_removal(&db, &removal);
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let path = CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
    let cfg = TrainConfig {
        epochs: 5,
        hidden: vec![24, 24],
        min_steps: 150,
        ..TrainConfig::default()
    };
    let model = CompletionModel::train(&sc.incomplete, &ann, path, &cfg, 22).unwrap();

    let ta = sc.incomplete.table("ta").unwrap().qualified();
    let tf_slots: Vec<Vec<Option<i64>>> = vec![vec![None; ta.n_rows()]];
    let encoded = model.encode_tokens(&ta, &tf_slots);
    let base = 7u64;
    let mut warm = InferenceSession::new();
    for (i, r) in (0..30usize).enumerate() {
        let seed = derive_seed(base, i as u64);
        // Batched engine, batch of exactly one row.
        let mut rng_a = StdRng::seed_from_u64(seed);
        let batched = model
            .sample_table_columns_encoded_in(&mut warm, &ta, &encoded, 1, &[r], &mut rng_a)
            .unwrap();
        // Single row, encoded afresh on a fresh session.
        let mut rng_b = StdRng::seed_from_u64(seed);
        let single = model
            .sample_table_columns_encoded_in(
                &mut InferenceSession::new(),
                &ta,
                &model.encode_tokens(&ta, &tf_slots),
                1,
                &[r],
                &mut rng_b,
            )
            .unwrap();
        assert_eq!(
            batched, single,
            "row {r} diverged between B=1 and single-row path"
        );
    }
}

#[test]
fn different_data_seed_changes_data() {
    let db1 = generate_synthetic(&SyntheticConfig::default(), 1);
    let db2 = generate_synthetic(&SyntheticConfig::default(), 2);
    let t1 = db1.table("tb").unwrap();
    let t2 = db2.table("tb").unwrap();
    let differs = t1.n_rows() != t2.n_rows()
        || (0..t1.n_rows().min(t2.n_rows())).any(|r| t1.row(r) != t2.row(r));
    assert!(differs);
}

/// One function trains a chain, under the caller's seed as given — so a
/// chain's model is the same whoever asks for it and in whatever order.
/// `train` keeps every candidate it trains, `ensure_query_models` finds them
/// there, and a rebuild under the build's seed reproduces the build. The
/// build and the snapshot it seals list their models in chain order, so
/// whatever prints or fingerprints that list is reproducible.
#[test]
fn a_chain_is_trained_once_whoever_asks() {
    use restore::core::CompletionModel;
    use restore::data::housing::{generate_housing, HousingConfig};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let seed = 71;
    let complete = generate_housing(&HousingConfig::scaled(0.1), seed);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
    removal.seed = seed;
    let sc = apply_removal(&complete, &removal);
    let builder = || {
        let cfg = RestoreConfig {
            train: TrainConfig {
                epochs: 3,
                hidden: vec![24, 24],
                min_steps: 60,
                max_train_rows: 2_000,
                ..TrainConfig::default()
            },
            max_candidates: 2,
            ..RestoreConfig::default()
        };
        let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
        rs.mark_incomplete("apartment");
        rs
    };
    // `[apartment, landlord]` is covered by the unextended candidate
    // `[landlord, apartment]`: the three shapes want 4 chains, not 5.
    let shapes = [
        vec!["apartment".to_string()],
        vec!["apartment".to_string(), "landlord".to_string()],
        vec!["apartment".to_string(), "neighborhood".to_string()],
    ];
    // Chain → bits of its held-out losses and of every parameter.
    let bits = |models: &[Arc<CompletionModel>]| -> BTreeMap<Vec<String>, Vec<u32>> {
        let model_bits = |m: &Arc<CompletionModel>| {
            let params = m.params().values().iter().flat_map(|mat| mat.data());
            let floats = m.val_per_attr.iter().chain(params);
            (
                m.path().tables().to_vec(),
                floats.map(|v| v.to_bits()).collect(),
            )
        };
        models.iter().map(model_bits).collect()
    };

    let mut rs = builder();
    rs.train(seed).unwrap();
    let kept = rs.trained_models();
    let candidates = rs.candidate_paths("apartment");
    assert_eq!(candidates.len(), 2);
    assert_eq!(kept.len(), 2, "train keeps every candidate it trained");
    for path in &candidates {
        assert!(kept.iter().any(|m| m.path() == path), "{}", path.describe());
    }
    for shape in &shapes {
        rs.ensure_query_models(shape, seed).unwrap();
    }
    let built = rs.trained_models();
    let built_bits = bits(&built);
    assert_eq!(built.len(), 4);
    let chains = |models: &[Arc<CompletionModel>]| -> Vec<Vec<String>> {
        models.iter().map(|m| m.path().tables().to_vec()).collect()
    };
    let sorted: Vec<Vec<String>> = built_bits.keys().cloned().collect();
    assert_eq!(
        chains(&built),
        sorted,
        "the build lists its models out of order"
    );
    for model in &kept {
        assert!(
            built.iter().any(|m| Arc::ptr_eq(m, model)),
            "{} was trained again",
            model.path().describe()
        );
    }

    let mut reversed = builder();
    for shape in shapes.iter().rev() {
        reversed.ensure_query_models(shape, seed).unwrap();
    }
    reversed.train(seed).unwrap();
    assert!(
        bits(&reversed.trained_models()) == built_bits,
        "the order of the calls decided a chain's weights"
    );

    let sealed = rs.seal(1);
    assert_eq!(
        chains(&sealed.trained_models()),
        sorted,
        "the snapshot lists its models out of order"
    );
    let rebuilt = ReStore::rebuild_from(&sealed, seed).unwrap();
    assert!(
        bits(&rebuilt.trained_models()) == built_bits,
        "rebuild_from under the build's seed did not reproduce the build"
    );
}

/// A cold query draws only the columns it reads of the chain's last table,
/// and a later read that needs more synthesizes the chain again. Neither
/// shows in an answer: one snapshot (nothing evicted) answers a read of the
/// first modeled `apartment` column, one of the last, the first again, and
/// `complete_join`, each byte-equal to what a fresh snapshot answers.
#[test]
fn what_a_completion_drew_before_never_shows_in_an_answer() {
    use restore::core::model::AttrKind;
    use restore::core::wire::{query_response_json, table_json};
    use restore::core::Snapshot;
    use restore::data::housing::{generate_housing, HousingConfig};

    let seed = 72;
    let complete = generate_housing(&HousingConfig::scaled(0.1), seed);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
    removal.seed = seed;
    let cfg = RestoreConfig {
        train: TrainConfig {
            epochs: 3,
            hidden: vec![24, 24],
            min_steps: 60,
            max_train_rows: 2_000,
            ..TrainConfig::default()
        },
        cache_budget_bytes: 1 << 30,
        ..RestoreConfig::default()
    };
    let mut rs = ReStore::new(apply_removal(&complete, &removal).incomplete, cfg);
    rs.mark_incomplete("apartment");
    let chain = ["neighborhood", "apartment"].map(String::from);
    rs.set_selected_path("apartment", &chain, seed).unwrap();
    let snapshot = rs.seal(seed);
    let bytes = snapshot.to_bytes();
    let fresh = || Snapshot::from_bytes(&bytes).unwrap();

    // The incomplete table's modeled columns, in AR order.
    let model = snapshot.model_for_path(&chain).unwrap();
    let columns: Vec<String> = (model.attrs().iter())
        .filter_map(|a| match &a.kind {
            AttrKind::Column { table, column } if table == "apartment" => Some(column.clone()),
            _ => None,
        })
        .collect();
    assert!(columns.len() >= 2, "{columns:?}");
    let reads = |column: &String, tables: &[&str]| {
        Query::new(tables.iter().copied())
            .group_by([column.clone()])
            .aggregate(Agg::CountStar)
    };
    let (first, last) = (&columns[0], &columns[columns.len() - 1]);
    for query in [
        reads(first, &["apartment"]),
        reads(last, &["neighborhood", "apartment"]),
        reads(first, &["apartment"]),
    ] {
        let body = |snap: &Snapshot| query_response_json(&snap.execute(&query, 3).unwrap(), None);
        assert_eq!(body(&snapshot), body(&fresh()), "{query:?}");
    }
    let join = |snap: &Snapshot| table_json(&snap.complete_join(&chain).unwrap().join);
    assert_eq!(join(&snapshot), join(&fresh()));
    // The read of the last column synthesized the chain again.
    let stats = snapshot.full_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.entries),
        (2, 2, 1),
        "{stats:?}"
    );
}

/// A chain's plan — what no seed changes, built by the chain's first cold
/// completion and kept beside its model, outside the cache — moves no byte.
/// Under a one-byte cache budget every read synthesizes again, from the plan
/// an earlier read built: a narrower one (one `apartment` column, then every
/// column), or the other thread of a concurrent first use. Each answer must
/// equal a freshly sealed snapshot's, for both 2-table chains and a 3-table
/// chain whose middle table is replaced, at three serve seeds; and
/// `Completer::complete`, which builds a plan of its own, must give the
/// snapshot's completed join.
#[test]
fn a_chain_plan_built_once_moves_no_byte() {
    use restore::core::model::AttrKind;
    use restore::core::wire::{query_response_json, table_json};
    use restore::core::{Completer, Snapshot};
    use restore::data::housing::{generate_housing, HousingConfig};
    use restore::util::{derive_seed, Fnv64};

    let seed = 73;
    let complete = generate_housing(&HousingConfig::scaled(0.1), seed);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
    removal.seed = seed;
    let cfg = RestoreConfig {
        train: TrainConfig {
            epochs: 3,
            hidden: vec![24, 24],
            min_steps: 60,
            max_train_rows: 2_000,
            ..TrainConfig::default()
        },
        cache_budget_bytes: 1,
        ..RestoreConfig::default()
    };
    let mut rs = ReStore::new(apply_removal(&complete, &removal).incomplete, cfg);
    rs.mark_incomplete("apartment");
    let names = |tables: &[&str]| tables.iter().map(|t| t.to_string()).collect::<Vec<_>>();
    let (n_a, l_a) = (
        names(&["neighborhood", "apartment"]),
        names(&["landlord", "apartment"]),
    );
    let (all, apartment) = (
        names(&["neighborhood", "apartment", "landlord"]),
        names(&["apartment"]),
    );
    // Each chain, the `apartment` path forced for it, and what reads it:
    // forcing a path makes every read of these tables use its chain.
    let chains = [
        (n_a.clone(), n_a.clone(), apartment.clone()),
        (l_a.clone(), l_a, apartment),
        (all.clone(), n_a, all),
    ];
    for (_, forced, read_tables) in &chains {
        rs.set_selected_path("apartment", forced, seed).unwrap();
        rs.ensure_query_models(read_tables, seed).unwrap();
    }
    for (k, (chain, forced, read_tables)) in chains.iter().enumerate() {
        // A completion of another chain evicts this chain's cache entry.
        rs.set_selected_path("apartment", forced, seed).unwrap();
        let other = &chains[(k + 1) % chains.len()].0;
        let model = rs.seal(0).model_for_path(chain).unwrap();
        let column = (model.attrs().iter())
            .find_map(|a| match &a.kind {
                AttrKind::Column { table, column } if table == "apartment" => Some(column.clone()),
                _ => None,
            })
            .unwrap();
        let one_column = Query::new(read_tables.iter().map(String::as_str))
            .group_by([column])
            .aggregate(Agg::CountStar);
        let read =
            |snap: &Snapshot| query_response_json(&snap.execute(&one_column, 3).unwrap(), None);
        let join = |snap: &Snapshot| table_json(&snap.complete_join(chain).unwrap().join);
        for serve_seed in [1, 2, 3] {
            let fresh = || rs.seal(serve_seed);
            let (want_read, want_join) = (read(&fresh()), join(&fresh()));
            // One snapshot: the one-column read builds the plan, every later
            // read of either width synthesizes again from it.
            let snapshot = fresh();
            for _ in 0..2 {
                assert_eq!(read(&snapshot), want_read, "{chain:?} at {serve_seed}");
                let cached = snapshot.cached_completions();
                assert_eq!(cached[0].0, *chain, "the read completed another chain");
                snapshot.complete_join(other).unwrap();
                assert_eq!(join(&snapshot), want_join, "{chain:?} at {serve_seed}");
                snapshot.complete_join(other).unwrap();
            }
            assert_eq!(snapshot.full_cache_stats().misses, 8, "{chain:?}");
            // A concurrent first use: whichever thread builds the plan, both
            // answers are the fresh ones.
            let snapshot = fresh();
            std::thread::scope(|s| {
                let narrow = s.spawn(|| read(&snapshot));
                assert_eq!(join(&snapshot), want_join, "{chain:?} at {serve_seed}");
                assert_eq!(
                    narrow.join().unwrap(),
                    want_read,
                    "{chain:?} at {serve_seed}"
                );
            });
            // The synthesis seed as `Snapshot` derives it from the chain.
            let mut fingerprint = Fnv64::new();
            for name in chain {
                fingerprint.update(name.as_bytes());
                fingerprint.update(&[0x1f]);
            }
            let synth_seed = derive_seed(serve_seed, fingerprint.finish()) ^ 0xc0de;
            let completer = Completer::new(snapshot.db(), snapshot.annotation())
                .with_config(snapshot.config().completer.clone());
            let out = completer.complete(&model, synth_seed).unwrap();
            assert_eq!(
                table_json(&out.join),
                want_join,
                "{chain:?} at {serve_seed}"
            );
        }
    }
}
