//! Equality contract of the band-incremental autoregressive sweep: block
//! logits and sampled tokens must be **bit-identical** to the full-trunk
//! oracle (`Made::logits_attr_full_in` / `Made::sample_range_full_in`) on
//! the same model, across ragged batch shapes, resumed ranges
//! (`start > 0`), excluded tokens, the SSAR DeepSets context, and batches
//! that repeat their evidence prefixes (which the sweep evaluates once per
//! distinct prefix) — all over warm, reused sessions, the way the
//! completion engine runs it. A warm session also gives what a fresh one
//! gives across batch shapes and across models, and its SSAR context
//! encoding what a fresh tape gives.
//! Worker-count invariance of completions under the sweep is also pinned
//! by `tests/determinism.rs::worker_count_never_changes_the_completion`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use restore::nn::{
    softmax_into, AttrSpec, DeepSets, DeepSetsConfig, Forward, InferenceSession, Made, MadeConfig,
    Matrix, ParamStore, SetBatch, SetTableSpec, TableSet, Tape,
};

const CARDS: [usize; 4] = [7, 5, 9, 4];

/// A model over [`CARDS`] with freshly initialised weights and a
/// `ctx_dim`-wide context block (0: context-free).
fn new_made(hidden: Vec<usize>, ctx_dim: usize, seed: u64) -> (Made, ParamStore) {
    new_made_of(&CARDS, 4, hidden, ctx_dim, seed)
}

/// A model over `cards` with `embed`-wide embeddings.
fn new_made_of(
    cards: &[usize],
    embed: usize,
    hidden: Vec<usize>,
    ctx_dim: usize,
    seed: u64,
) -> (Made, ParamStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let attrs = cards.iter().map(|&c| AttrSpec::new(c, embed)).collect();
    let cfg = MadeConfig::new(attrs).with_ctx(ctx_dim).with_hidden(hidden);
    let made = Made::new(cfg, &mut store, &mut rng);
    (made, store)
}

fn tokens(n: usize) -> Vec<Arc<Vec<u32>>> {
    tokens_of(&(0..n as u32).collect::<Vec<_>>())
}

/// One batch row per id, equal ids giving equal rows: attribute `a` of id
/// `i` is `(i + a) % card`, so unequal ids still share short prefixes.
fn tokens_of(ids: &[u32]) -> Vec<Arc<Vec<u32>>> {
    tokens_for(&CARDS, ids)
}

/// [`tokens_of`] over `cards`.
fn tokens_for(cards: &[usize], ids: &[u32]) -> Vec<Arc<Vec<u32>>> {
    cards
        .iter()
        .enumerate()
        .map(|(a, &card)| Arc::new(ids.iter().map(|i| (i + a as u32) % card as u32).collect()))
        .collect()
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: value diverged");
    }
}

/// The sweep against the full-trunk oracles on one batch: every
/// attribute's logit block and conditional distributions (each row visited
/// once, in order, with and without its excluded token) by `to_bits`, and
/// every `start..end` range's sampled tokens plus the position both RNG
/// streams are left at.
#[allow(clippy::too_many_arguments)]
fn assert_matches_oracle(
    made: &Made,
    store: &ParamStore,
    s_sweep: &mut InferenceSession,
    s_full: &mut InferenceSession,
    base: &[Arc<Vec<u32>>],
    ctx: Option<&Matrix>,
    excluded: &[Option<u32>],
    what: &str,
) {
    let bits = |d: &[f32]| d.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    for attr in 0..CARDS.len() {
        let full = made
            .logits_attr_full_in(s_full, store, base, ctx, attr)
            .clone();
        let block = made.logits_attr_in(s_sweep, store, base, ctx, attr).clone();
        assert_bits_eq(&block, &full, &format!("{what} attr {attr}"));
        // The conditional with and without the attribute's excluded token:
        // the oracle row's softmax, that token zeroed and the row
        // renormalized.
        for ex in [None, excluded.get(attr).copied().flatten()] {
            let mut expect = vec![0.0; full.cols()];
            let mut visited = 0;
            made.conditional_dists_in(s_sweep, store, base, ctx, attr, ex, |r, dist| {
                assert_eq!(r, visited, "{what} attr {attr}: rows visited out of order");
                visited += 1;
                softmax_into(full.row(r), &mut expect);
                if let Some(ex) = ex {
                    expect[ex as usize] = 0.0;
                    let s: f32 = expect.iter().sum();
                    expect.iter_mut().for_each(|p| *p /= s);
                }
                let what = format!("{what} attr {attr} row {r} excluded {ex:?}: dist");
                assert_eq!(bits(dist), bits(&expect), "{what}");
            });
            assert_eq!(visited, full.rows(), "{what} attr {attr}: rows visited");
        }
    }
    for start in 0..CARDS.len() {
        for end in start..=CARDS.len() {
            let seed = 1000 + start as u64;
            let mut cols_a = base.to_vec();
            let mut rng_a = StdRng::seed_from_u64(seed);
            made.sample_range_in(
                s_sweep,
                store,
                &mut cols_a,
                ctx,
                start,
                end,
                excluded,
                &mut rng_a,
            );
            let mut cols_b = base.to_vec();
            let mut rng_b = StdRng::seed_from_u64(seed);
            made.sample_range_full_in(
                s_full,
                store,
                &mut cols_b,
                ctx,
                start,
                end,
                excluded,
                &mut rng_b,
            );
            assert_eq!(cols_a, cols_b, "{what}: tokens diverged at {start}..{end}");
            // Same number of draws consumed → streams stay aligned.
            assert_eq!(
                rand::Rng::random::<u64>(&mut rng_a),
                rand::Rng::random::<u64>(&mut rng_b),
                "{what}: RNG streams misaligned at {start}..{end}"
            );
        }
    }
}

/// Every attribute's logit block from the sweep equals the full-trunk
/// block bit for bit, with one warm session per engine reused across
/// ragged batch shapes — and both equal the full-logits slice.
#[test]
fn sweep_block_logits_bit_identical_across_ragged_shapes() {
    // Residual trunk, non-residual ragged trunk, and a single hidden layer.
    for (hidden, seed) in [(vec![32, 32], 51u64), (vec![32, 16], 52), (vec![24], 53)] {
        let (made, store) = new_made(hidden.clone(), 0, seed);
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
    let (made, store) = new_made(vec![32, 32], 0, 54);
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
    let (made, store) = new_made(vec![32, 32], 0, 55);
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

/// Batches that repeat their evidence prefixes — Algorithm 1 duplicates an
/// evidence row once per missing tuple — are evaluated once per distinct
/// prefix and must not show it: adjacent runs, interleaved repeats, one
/// prefix for the whole batch and no repeat at all, over every trunk shape,
/// every `start..end`, an excluded token, and one warm session a model
/// whose row and prefix counts shrink and grow from batch to batch (rows
/// past the distinct count hold an earlier batch's values). A context is
/// part of the prefix bit for bit: rows with equal tokens and contexts that
/// are equal, one ulp apart, `0.0` against `−0.0`, or plainly different.
#[test]
fn sweep_shares_duplicate_prefixes_without_changing_a_bit() {
    let runs = |len: usize, m: usize| (0..m).map(|r| (r / len) as u32).collect::<Vec<_>>();
    let batches: Vec<(&str, Vec<u32>)> = vec![
        ("runs of 22", runs(22, 64)),
        ("one row", vec![5]),
        ("runs of 2", runs(2, 44)),
        ("one prefix", vec![3; 40]),
        ("all distinct", runs(1, 33)),
        ("one run of m", runs(7, 7)),
        (
            "interleaved",
            (0..50).map(|r| [4, 0, 9, 4, 11, 0][r % 6]).collect(),
        ),
        ("runs of 22 again", runs(22, 90)),
        (
            "ragged runs",
            (0..30).map(|r| (r * r / 40) as u32).collect(),
        ),
    ];
    let excluded = [None, Some(3u32), None, Some(0)];
    for (hidden, seed) in [(vec![32, 32], 61u64), (vec![32, 16], 62), (vec![24], 63)] {
        let (made, store) = new_made(hidden.clone(), 0, seed);
        let mut s_sweep = InferenceSession::new();
        let mut s_full = InferenceSession::new();
        for (name, ids) in &batches {
            let what = format!("hidden {hidden:?}, {name}");
            let base = tokens_of(ids);
            for excluded in [&[][..], &excluded] {
                assert_matches_oracle(
                    &made,
                    &store,
                    &mut s_sweep,
                    &mut s_full,
                    &base,
                    None,
                    excluded,
                    &what,
                );
            }
        }
    }

    let (made, store) = new_made(vec![32, 32], 3, 64);
    let mut s_sweep = InferenceSession::new();
    let mut s_full = InferenceSession::new();
    let v = [0.75f32, -1.5, 0.25];
    let ulp = [v[0], f32::from_bits(v[1].to_bits() + 1), v[2]];
    let contexts: [&[f32]; 8] = [
        &v,
        &v,
        &ulp,
        &v,
        &[0.0, 0.0, 0.0],
        &[0.0, -0.0, 0.0],
        &[0.0, 0.0, 0.0],
        &[-0.75, 1.5, 2.0],
    ];
    for (name, ids) in &batches {
        let rows: Vec<&[f32]> = (0..ids.len()).map(|r| contexts[r % 8]).collect();
        let ctx = Matrix::from_rows(&rows);
        let what = format!("context, {name}");
        let base = tokens_of(ids);
        assert_matches_oracle(
            &made,
            &store,
            &mut s_sweep,
            &mut s_full,
            &base,
            Some(&ctx),
            &excluded,
            &what,
        );
    }
}

/// Every attribute's logit block from the sweep against the full-trunk
/// block on one batch, bit for bit.
fn assert_blocks_match_oracle(
    made: &Made,
    store: &ParamStore,
    sessions: (&mut InferenceSession, &mut InferenceSession),
    base: &[Arc<Vec<u32>>],
    what: &str,
) {
    let (s_sweep, s_full) = sessions;
    for attr in 0..base.len() {
        let a = made
            .logits_attr_in(s_sweep, store, base, None, attr)
            .clone();
        let b = made.logits_attr_full_in(s_full, store, base, None, attr);
        assert_bits_eq(&a, b, &format!("{what}, attr {attr}"));
    }
}

/// One sweep range against the full-trunk sampler on one batch: the tokens
/// drawn and the position both RNG streams are left at.
fn assert_range_matches_oracle(
    made: &Made,
    store: &ParamStore,
    sessions: (&mut InferenceSession, &mut InferenceSession),
    base: &[Arc<Vec<u32>>],
    range: std::ops::Range<usize>,
    what: &str,
) {
    let (s_sweep, s_full) = sessions;
    let mut cols_a = base.to_vec();
    let mut rng_a = StdRng::seed_from_u64(2000 + range.start as u64);
    made.sample_range_in(
        s_sweep,
        store,
        &mut cols_a,
        None,
        range.start,
        range.end,
        &[],
        &mut rng_a,
    );
    let mut cols_b = base.to_vec();
    let mut rng_b = StdRng::seed_from_u64(2000 + range.start as u64);
    made.sample_range_full_in(
        s_full,
        store,
        &mut cols_b,
        None,
        range.start,
        range.end,
        &[],
        &mut rng_b,
    );
    assert_eq!(cols_a, cols_b, "{what}: tokens diverged over {range:?}");
    assert_eq!(
        rand::Rng::random::<u64>(&mut rng_a),
        rand::Rng::random::<u64>(&mut rng_b),
        "{what}: RNG streams misaligned over {range:?}"
    );
}

/// The shapes the sweep serves: the housing chains' 8- and 11-attribute
/// models with 8-wide embeddings over 64×64 hidden units, so degree bands
/// hold 9–10 and 6–7 units; row counts straddling every row tile of the
/// band kernel at any lane width (two lanes, one lane, 8, 4, 2, 1) and the
/// 256-row batches of the completion engine; and one 256-row batch whose
/// sweeps start from 1, 6 and 82 distinct evidence prefixes (a constant
/// first attribute, six values of the second, 82 pairs with the third).
#[test]
fn sweep_bit_identical_at_production_shapes() {
    let cards8 = [12usize, 7, 30, 5, 3, 20, 9, 4];
    let cards11 = [12usize, 7, 30, 5, 3, 20, 9, 4, 16, 2, 11];
    for (cards, seed) in [(&cards8[..], 71u64), (&cards11[..], 72)] {
        let n_attrs = cards.len();
        let (made, store) = new_made_of(cards, 8, vec![64, 64], 0, seed);
        let mut s_sweep = InferenceSession::new();
        let mut s_full = InferenceSession::new();
        for n in [1usize, 3, 4, 5, 15, 16, 17, 31, 32, 33, 255, 256, 257] {
            let what = format!("{n_attrs} attributes, {n} rows");
            // Every third row repeats its predecessor: prefixes are shared.
            let ids: Vec<u32> = (0..n as u32).map(|i| (i - i / 3) * 7 % 101).collect();
            let base = tokens_for(cards, &ids);
            let sessions = (&mut s_sweep, &mut s_full);
            assert_blocks_match_oracle(&made, &store, sessions, &base, &what);
            for start in [0, 1, n_attrs / 2, n_attrs - 1] {
                let sessions = (&mut s_sweep, &mut s_full);
                assert_range_matches_oracle(&made, &store, sessions, &base, start..n_attrs, &what);
            }
        }

        let base: Vec<Arc<Vec<u32>>> = (cards.iter().enumerate())
            .map(|(a, &card)| {
                let col = (0..256u32).map(|r| {
                    let g = r % 82;
                    match a {
                        0 => 0,
                        1 => g % 6,
                        2 => g / 6,
                        _ => (r * 31 + a as u32) % card as u32,
                    }
                });
                Arc::new(col.collect())
            })
            .collect();
        for (start, expect) in [(1, 1), (2, 6), (3, 82)] {
            let prefixes: std::collections::HashSet<Vec<u32>> = (0..256)
                .map(|r| base[..start].iter().map(|col| col[r]).collect())
                .collect();
            assert_eq!(
                prefixes.len(),
                expect,
                "distinct prefixes before attr {start}"
            );
        }
        let what = format!("{n_attrs} attributes, 1/6/82 prefixes");
        let sessions = (&mut s_sweep, &mut s_full);
        assert_blocks_match_oracle(&made, &store, sessions, &base, &what);
        for start in 1..=3 {
            let sessions = (&mut s_sweep, &mut s_full);
            assert_range_matches_oracle(&made, &store, sessions, &base, start..n_attrs, &what);
        }
    }
}

/// An SSAR model over [`CARDS`]: a one-table DeepSets encoder feeding a
/// 5-wide context to the MADE, both in one store, and the fan-out evidence
/// of a 9-row batch (rows 3, 5, 6 and 7 without set tuples).
fn ssar_fixture(seed: u64) -> (DeepSets, Made, ParamStore, SetBatch) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let ds_cfg = DeepSetsConfig {
        tables: vec![SetTableSpec::new(vec![6, 4], 4)],
        ctx_dim: 5,
    };
    let ds = DeepSets::new(&ds_cfg, &mut store, &mut rng);
    let attrs = CARDS.iter().map(|&c| AttrSpec::new(c, 4)).collect();
    let made = Made::new(
        MadeConfig::new(attrs).with_ctx(5).with_hidden(vec![24, 24]),
        &mut store,
        &mut rng,
    );
    let batch = SetBatch {
        tables: vec![TableSet {
            tokens: vec![
                Arc::new(vec![0, 1, 2, 3, 4, 5, 0, 1]),
                Arc::new(vec![3, 2, 1, 0, 3, 2, 1, 0]),
            ],
            segments: Arc::new(vec![0, 0, 1, 2, 4, 4, 4, 8]),
        }],
    };
    (ds, made, store, batch)
}

/// The SSAR path: a DeepSets-encoded context conditions the sweep exactly
/// as it conditions the full trunk (degree-0 hidden bands exist and are
/// computed at setup), for both block logits and sampling.
#[test]
fn sweep_matches_full_path_under_deepsets_context() {
    let (ds, made, store, batch) = ssar_fixture(56);
    let n = 9;
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

/// The sweep's block of an attribute equals the corresponding slice of the
/// full logits, bit for bit.
#[test]
fn block_logits_match_full_logits() {
    let (made, store) = new_made(vec![32, 32], 0, 46);
    let toks = tokens(21);
    let full = made.logits(&store, &toks, None);
    for attr in 0..CARDS.len() {
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

/// One warm session across differently shaped batches gives what fresh
/// sessions give, bit for bit, with the sweep and the full-trunk oracle
/// taking turns on it: no buffer leaks state from one pass into the next.
#[test]
fn session_reuse_across_batch_shapes_is_exact() {
    let (made, store) = new_made(vec![32, 32], 0, 43);
    let mut session = InferenceSession::new();
    for &n in &[64usize, 1, 17, 64, 3] {
        let toks = tokens(n);
        for attr in 0..CARDS.len() {
            let what = format!("batch of {n} rows, attr {attr}");
            let mut fresh = InferenceSession::new();
            let want = made.logits_attr_full_in(&mut fresh, &store, &toks, None, attr);
            let got = made.logits_attr_full_in(&mut session, &store, &toks, None, attr);
            assert_bits_eq(got, want, &format!("{what}, full trunk"));
            let mut fresh = InferenceSession::new();
            let want = made.logits_attr_in(&mut fresh, &store, &toks, None, attr);
            let got = made.logits_attr_in(&mut session, &store, &toks, None, attr);
            assert_bits_eq(got, want, &format!("{what}, sweep"));
        }
    }
}

/// The SSAR context a warm session encodes — one that already encoded
/// another batch and swept the model — is the context `DeepSets::forward`
/// records on a fresh tape, bit for bit.
#[test]
fn ssar_context_on_a_warm_session_matches_a_fresh_tape() {
    let (ds, made, store, batch) = ssar_fixture(42);
    let n = 9;
    let want = {
        let mut tape = Tape::new();
        let mut f = tape.ctx(&store);
        let ctx = ds.forward(&mut f, &store, &batch, n);
        f.value(ctx).clone()
    };

    let mut session = InferenceSession::new();
    let other = SetBatch {
        tables: vec![TableSet {
            tokens: vec![Arc::new(vec![5, 4, 3]), Arc::new(vec![0, 1, 2])],
            segments: Arc::new(vec![0, 1, 1]),
        }],
    };
    let ctx = ds.encode_in(&mut session, &store, &other, 2).clone();
    made.logits_attr_in(&mut session, &store, &tokens(2), Some(&ctx), 1);
    let got = ds.encode_in(&mut session, &store, &batch, n);
    assert_bits_eq(got, &want, "DeepSets context");
}

/// Every store numbers its parameters from 0, so two models' layers carry
/// the same ids: a session that swept one model must sweep the next one's
/// weights all the same, whether either model froze its banded weights or
/// built them on its first sweep. The full-trunk oracle reads no banded
/// weights, so it says what each model's own are.
#[test]
fn a_reused_session_sweeps_each_models_own_weights() {
    let toks = tokens(9);
    for (freeze_a, freeze_b) in [(false, false), (true, true), (false, true), (true, false)] {
        let (a, store_a) = new_made(vec![32, 32], 0, 81);
        let (b, store_b) = new_made(vec![32, 32], 0, 82);
        if freeze_a {
            a.freeze_banded(&store_a);
        }
        if freeze_b {
            b.freeze_banded(&store_b);
        }
        let mut session = InferenceSession::new();
        for attr in 0..CARDS.len() {
            for (made, store, name) in [(&a, &store_a, "a"), (&b, &store_b, "b")] {
                let what = format!("model {name} (frozen: {freeze_a}, {freeze_b}), attr {attr}");
                let mut oracle = InferenceSession::new();
                let want = made.logits_attr_full_in(&mut oracle, store, &toks, None, attr);
                let got = made.logits_attr_in(&mut session, store, &toks, None, attr);
                assert_bits_eq(got, want, &what);
            }
        }
    }
}
