//! Per-layer metrics of a traced run: the benchmark times its own calls
//! into each crate's public functions, on the workload's own inputs, and
//! reads exact counts from the serving processes' `/metrics`. Tracing
//! inside the program is a later change.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use restore_core::model::build_path_join;
use restore_core::{Completer, CompletionModel, ConfidenceQuery, ReStore, Snapshot};
use restore_db::query::executor::join_tables;
use restore_db::{aggregate, execute_on_join, Agg, Query};
use restore_nn::{
    block_cross_entropy_sums, Adam, AttrSpec, Forward, InferenceSession, Made, MadeConfig, Matrix,
    ParamStore, TrainEngine,
};
use restore_serve::SnapshotStore;

use crate::client::Conn;
use crate::fixtures::Expected;
use crate::harness::{out_dir, replay_stages, Entry, Env, LoopFacts};
use crate::stats::median;
use crate::trace::{durations_us, Recorder, Span};

type Values = Vec<(&'static str, f64)>;

/// Calls `f` for about `budget` (at least twice, after one unrecorded
/// warm-up call), one span per call; returns the mean seconds per call.
fn timed(
    rec: &mut Recorder,
    name: &'static str,
    parent: u64,
    budget: Duration,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let started = Instant::now();
    let mut calls = 0u32;
    while calls < 2 || started.elapsed() < budget {
        rec.span(name, parent, 0, &mut f);
        calls += 1;
    }
    started.elapsed().as_secs_f64() / calls as f64
}

const SHORT: Duration = Duration::from_millis(60);
const LONG: Duration = Duration::from_millis(300);

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs every probe; returns one value per per-layer metric name.
pub fn probe(
    env: &Env,
    expected: &[Expected],
    facts: &LoopFacts,
    loop_spans: &[Span],
    rec: &mut Recorder,
) -> Values {
    let root = rec.open();
    let root_start = rec.now_ns();
    let mut values = Values::new();
    let snapshot = &env.snapshot;

    // --- wire stages: replays on the real bytes, in and after the loop.
    let replay_start = rec.now_ns();
    let replay_from = rec.open();
    for _ in 0..20 {
        for entry in &env.plans[0] {
            replay_stages(rec, replay_from, 0, entry, &expected[entry.shape]);
        }
    }
    rec.close(replay_from, "probe.replay", root, 0, replay_start);
    let own_spans = rec.spans();
    let stage_us = |name: &str| {
        let mut all = durations_us(loop_spans, name);
        all.extend(durations_us(own_spans, name));
        median(&all)
    };
    let parse_us = stage_us("serve.http.parse");
    let http_encode_us = stage_us("serve.http.encode");
    let json_us = stage_us("util.json.parse");
    let decode_us = stage_us("core.wire.decode");
    let wire_encode_us = stage_us("core.wire.encode");
    let body_bytes = mean(
        &env.cycle
            .iter()
            .map(|r| r.to_json().len() as f64)
            .collect::<Vec<_>>(),
    );
    values.push(("serve.http.parse_us", parse_us));
    values.push(("serve.http.encode_us", http_encode_us));
    values.push(("util.json.parse_us", json_us));
    values.push(("util.json.parse_mb_per_s", body_bytes / json_us.max(1e-9)));
    values.push(("core.wire.decode_us", decode_us));
    values.push(("core.wire.encode_us", wire_encode_us));

    // --- the cycle, in order, straight on the snapshot: what one request
    // costs between decode and encode (cold on the cold workload, because
    // its cache holds one entry).
    let mut chains: BTreeSet<Vec<String>> = BTreeSet::new();
    let cycle_id = rec.open();
    let cycle_start = rec.now_ns();
    let started = Instant::now();
    let mut rounds = 0u32;
    while rounds < 2 || started.elapsed() < Duration::from_millis(500) {
        for request in &env.cycle {
            rec.span("core.snapshot.execute", cycle_id, 0, || {
                snapshot.execute(&request.query, request.seed)
            })
            .expect("cycle query executes");
            if let Some(spec) = &request.confidence {
                rec.span("core.confidence.interval", cycle_id, 0, || {
                    snapshot.confidence(
                        &request.query.tables,
                        &spec.query,
                        spec.level,
                        request.seed,
                    )
                })
                .expect("cycle confidence executes");
            }
            if rounds == 0 {
                chains.extend(snapshot.cached_completions().into_iter().map(|(c, _)| c));
            }
        }
        rounds += 1;
    }
    let execute_us =
        started.elapsed().as_secs_f64() * 1e6 / (rounds as f64 * env.cycle.len() as f64);
    rec.close(cycle_id, "probe.cycle", root, 0, cycle_start);

    // A request crosses the HTTP layer once per process it passes through.
    let hops = if env.fleet.is_some() { 2.0 } else { 1.0 };
    let stage_sum_us = hops * (parse_us + http_encode_us) + decode_us + execute_us + wire_encode_us;
    let round_trip_us = facts.latency_p50_ms * 1e3;
    values.push(("serve.transport_us", round_trip_us - stage_sum_us));
    values.push((
        "serve.stage_sum_share",
        stage_sum_us / round_trip_us.max(1e-9),
    ));

    // --- warm execute, per shape class.
    let (mut joins, mut singles) = (Vec::new(), Vec::new());
    for request in &env.cycle {
        let secs = timed(rec, "core.snapshot.execute_warm", root, SHORT, || {
            black_box(snapshot.execute(&request.query, request.seed).is_ok());
        });
        if request.query.tables.len() > 1 {
            joins.push(secs * 1e6);
        } else {
            singles.push(secs * 1e6);
        }
    }
    let all: Vec<f64> = joins.iter().chain(&singles).copied().collect();
    values.push(("core.snapshot.execute_warm_us", mean(&all)));
    values.push(("core.snapshot.execute_warm_us.join", mean(&joins)));
    values.push(("core.snapshot.execute_warm_us.single", mean(&singles)));

    // --- counters of the serving processes over the client loop. The
    // cache counters are those of the snapshots being served, so they
    // start over when a rebuild publishes a new version; a counter that
    // went down is read as "since the last publish".
    let (b, a) = (&facts.before, &facts.after);
    let since = |after: f64, before: f64| {
        if after >= before {
            after - before
        } else {
            after
        }
    };
    let served = (a.requests - b.requests).max(1.0);
    let hits = since(a.cache_hits, b.cache_hits);
    let misses = since(a.cache_misses, b.cache_misses);
    values.push((
        "serve.epoll_wakeups_per_req",
        (a.epoll_wakeups - b.epoll_wakeups) / served,
    ));
    values.push((
        "serve.read_would_block_per_req",
        (a.read_would_block - b.read_would_block) / served,
    ));
    values.push(("serve.shed_share", (a.shed - b.shed) / served));
    values.push(("core.cache.hit_share", hits / (hits + misses).max(1.0)));
    let requests = facts.requests.max(1.0);
    values.push(("core.cache.misses_per_req", misses / requests));
    values.push((
        "core.cache.evictions_per_req",
        since(a.cache_evictions, b.cache_evictions) / requests,
    ));
    values.push(("core.cache.waits", since(a.cache_waits, b.cache_waits)));
    values.push(("core.cache.resident_mb", a.cache_bytes / (1024.0 * 1024.0)));
    let dialed_or_reused = (a.pool_reused - b.pool_reused) + (a.pool_dialed - b.pool_dialed);
    values.push((
        "serve.router.pool_reuse_share",
        (a.pool_reused - b.pool_reused) / dialed_or_reused.max(1.0),
    ));
    values.push((
        "serve.router.retried",
        a.forward_retried - b.forward_retried,
    ));
    values.push(("serve.router.failed", a.forward_failed - b.forward_failed));
    values.push((
        "serve.router.added_p50_us",
        router_added_p50_us(env, rec, root),
    ));
    values.push(("serve.rebuild.cycle_s", median(&facts.rebuild_cycles_s)));
    values.push(("serve.rebuild.cycles", facts.rebuild_cycles_s.len() as f64));

    completion_probes(snapshot, &chains, env.seed, rec, root, &mut values);
    confidence_probe(env, rec, root, &mut values);
    persistence_probes(env, rec, root, &mut values);
    db_probes(env, rec, root, &mut values);
    nn_probes(rec, root, &mut values);

    // --- training: the set-up's own numbers, and a rebuild with no readers.
    values.push(("core.train.train_s", facts.train_s));
    values.push(("core.seal_ms", env.seal_ms));
    let rebuild_from_s = rec.span("core.train.rebuild_from", root, 0, || {
        let started = Instant::now();
        ReStore::rebuild_from(snapshot, env.seed).expect("rebuild_from");
        started.elapsed().as_secs_f64()
    });
    values.push(("core.train.rebuild_from_s", rebuild_from_s));

    values.push(("quality.rel_error", facts.rel_error));
    values.push(("quality.rel_error_incomplete", facts.rel_error_incomplete));
    values.push(("client.failed_share", facts.failed_share));
    values.push(("trace.overhead_share", facts.trace_overhead_share));
    rec.close(root, "probe", 0, 0, root_start);
    values
}

/// Router p50 minus direct-to-worker p50 over interleaved windows on one
/// connection each, same tenant, same requests. 0 without a fleet.
fn router_added_p50_us(env: &Env, rec: &mut Recorder, root: u64) -> f64 {
    let Some(fleet) = &env.fleet else {
        return 0.0;
    };
    // One tenant's requests out of client 0's plan.
    let tenant = env.plans[0][0].tenant.as_str();
    let entries: Vec<&Entry> = env.plans[0].iter().filter(|e| e.tenant == tenant).collect();
    let direct_addr = fleet
        .shard_addr(fleet.shard_for(tenant))
        .expect("the tenant's shard has an address");
    let mut router = Conn::connect(env.addr).expect("router connect");
    let mut direct = Conn::connect(direct_addr).expect("worker connect");
    let (mut via_router, mut via_direct) = (Vec::new(), Vec::new());
    for window in 0..8 {
        let (conn, name, samples) = if window % 2 == 0 {
            (&mut router, "client.request.router", &mut via_router)
        } else {
            (&mut direct, "client.request.direct", &mut via_direct)
        };
        let until = Instant::now() + Duration::from_millis(150);
        while Instant::now() < until {
            for entry in &entries {
                let started = Instant::now();
                let status = rec.span(name, root, 0, || conn.roundtrip(&entry.bytes).map(|r| r.0));
                assert_eq!(status.ok(), Some(200), "{name} failed");
                samples.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    median(&via_router) - median(&via_direct)
}

fn completion_probes(
    snapshot: &Snapshot,
    chains: &BTreeSet<Vec<String>>,
    seed: u64,
    rec: &mut Recorder,
    root: u64,
    values: &mut Values,
) {
    let (mut complete_ms, mut encode_ms) = (Vec::new(), Vec::new());
    let (mut tuples, mut secs_total) = (0.0, 0.0);
    for chain in chains {
        let model = snapshot
            .model_for_path(chain)
            .expect("resident chain has a model");
        let completer = Completer::new(snapshot.db(), snapshot.annotation())
            .with_config(snapshot.config().completer.clone());
        let mut synthesized = 0usize;
        let secs = timed(rec, "core.completion.complete", root, LONG, || {
            synthesized = completer
                .complete(&model, seed)
                .expect("completion")
                .n_synthesized();
        });
        complete_ms.push(secs * 1e3);
        tuples += synthesized as f64;
        secs_total += secs;
        let secs = timed(rec, "core.completion.encode", root, SHORT, || {
            black_box(encode_path_join(snapshot, &model));
        });
        encode_ms.push(secs * 1e3);
    }
    values.push(("core.completion.complete_ms", mean(&complete_ms)));
    values.push((
        "core.completion.tuples_per_s",
        tuples / secs_total.max(1e-9),
    ));
    values.push(("core.completion.encode_ms", mean(&encode_ms)));

    // One model, 256-row batches, a warm session.
    let (mut sample_rate, mut tf_rate) = (0.0, 0.0);
    if let Some(chain) = chains.iter().next() {
        let model = snapshot.model_for_path(chain).expect("model");
        let (join, encoded) = encode_path_join(snapshot, &model);
        let rows: Vec<usize> = (0..join.n_rows().min(256)).collect();
        let mut session = InferenceSession::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let target = model.path().tables().len() - 1;
        let secs = timed(rec, "core.model.sample_table_columns", root, SHORT, || {
            model
                .sample_table_columns_encoded_in(
                    &mut session,
                    &join,
                    &encoded,
                    target,
                    &rows,
                    &mut rng,
                )
                .expect("sample");
        });
        sample_rate = rows.len() as f64 / secs;
        let steps = model.path().steps().len();
        if let Some(step) = (0..steps).find(|&s| model.tf_attr(s).is_some()) {
            let secs = timed(rec, "core.model.tf_expectations", root, SHORT, || {
                let expectations = model
                    .tf_expectations_encoded_in(&mut session, &join, &encoded, step, &rows)
                    .expect("tf expectations");
                black_box(CompletionModel::round_tf_expectations(
                    &expectations,
                    &mut rng,
                ));
            });
            tf_rate = rows.len() as f64 / secs;
        }
    }
    values.push(("core.model.sample_tuples_per_s", sample_rate));
    values.push(("core.model.tf_expect_rows_per_s", tf_rate));
}

fn encode_path_join(
    snapshot: &Snapshot,
    model: &CompletionModel,
) -> (restore_db::Table, Vec<Vec<u32>>) {
    let join = build_path_join(snapshot.db(), model.path()).expect("path join");
    let no_factors = vec![Vec::new(); model.path().steps().len()];
    let encoded = model.encode_tokens(&join, &no_factors);
    (join, encoded)
}

fn confidence_probe(env: &Env, rec: &mut Recorder, root: u64, values: &mut Values) {
    let join_shape = env
        .cycle
        .iter()
        .rev()
        .find(|r| r.query.tables.len() > 1)
        .expect("every cycle has a join shape");
    let query = match (&join_shape.confidence, env.workload.housing_scale()) {
        (Some(spec), _) => spec.query.clone(),
        (None, Some(_)) => ConfidenceQuery::Avg {
            table: "apartment".into(),
            column: "price".into(),
        },
        (None, None) => {
            let tb = env.snapshot.db().table("tb").expect("tb");
            ConfidenceQuery::CountFraction {
                table: "tb".into(),
                column: "b".into(),
                value: restore_data::most_frequent_value(tb, "b").expect("tb.b has values"),
            }
        }
    };
    let tables = &join_shape.query.tables;
    let secs = timed(rec, "core.confidence.interval_warm", root, SHORT, || {
        env.snapshot
            .confidence(tables, &query, 0.95, join_shape.seed)
            .expect("confidence");
    });
    values.push(("core.confidence.interval_ms", secs * 1e3));
}

fn persistence_probes(env: &Env, rec: &mut Recorder, root: u64, values: &mut Values) {
    let snapshot = &env.snapshot;
    let mut bytes = Vec::new();
    let secs = timed(rec, "core.persist.to_bytes", root, SHORT, || {
        bytes = snapshot.to_bytes();
    });
    values.push(("core.persist.to_bytes_ms", secs * 1e3));
    values.push(("core.persist.bytes", bytes.len() as f64));
    let secs = timed(rec, "core.persist.from_bytes", root, SHORT, || {
        Snapshot::from_bytes(&bytes).expect("from_bytes");
    });
    values.push(("core.persist.from_bytes_ms", secs * 1e3));

    let dir = out_dir().join(format!("probe-{}", std::process::id()));
    let store = SnapshotStore::new(&dir);
    let secs = timed(rec, "serve.store.save_version", root, SHORT, || {
        store
            .save_version("probe", 1, snapshot)
            .expect("save_version");
    });
    values.push(("serve.store.save_ms", secs * 1e3));
    let secs = timed(rec, "serve.store.load_latest", root, SHORT, || {
        assert!(store.load_latest("probe").0.is_some(), "load_latest");
    });
    values.push(("serve.store.load_ms", secs * 1e3));
    let _ = std::fs::remove_dir_all(dir);
}

fn db_probes(env: &Env, rec: &mut Recorder, root: u64, values: &mut Values) {
    let snapshot = &env.snapshot;
    let db = snapshot.db();
    // The tail of a query on a completed join the cache holds.
    let (chain, output) = snapshot
        .cached_completions()
        .into_iter()
        .next()
        .expect("a completed join is resident after the cycle ran");
    let same_tables =
        |q: &Query| q.tables.len() == chain.len() && q.tables.iter().all(|t| chain.contains(t));
    let query = env
        .cycle
        .iter()
        .map(|r| &r.query)
        .find(|q| same_tables(q) && !q.group_by.is_empty())
        .or_else(|| env.cycle.iter().map(|r| &r.query).find(|q| same_tables(q)))
        .cloned()
        .unwrap_or_else(|| Query::new(chain.clone()).aggregate(Agg::CountStar));
    let secs = timed(rec, "db.execute_on_join", root, SHORT, || {
        execute_on_join(&output.join, &query).expect("execute_on_join");
    });
    values.push(("db.execute_on_join_us", secs * 1e6));
    let secs = timed(rec, "db.aggregate", root, SHORT, || {
        aggregate(&output.join, &query.group_by, &query.aggregates).expect("aggregate");
    });
    values.push((
        "db.aggregate_rows_per_s",
        output.join.n_rows() as f64 / secs,
    ));

    // The incomplete database as it is: the join, and the whole query.
    let widest = env
        .cycle
        .iter()
        .map(|r| &r.query.tables)
        .max_by_key(|t| t.len())
        .expect("non-empty cycle");
    let secs = timed(rec, "db.join_tables", root, SHORT, || {
        join_tables(db, widest).expect("join_tables");
    });
    values.push(("db.hash_join_ms", secs * 1e3));
    let mut per_shape = Vec::new();
    for request in &env.cycle {
        let secs = timed(rec, "db.execute_incomplete", root, SHORT / 4, || {
            restore_db::execute(db, &request.query).expect("execute on incomplete data");
        });
        per_shape.push(secs * 1e6);
    }
    values.push(("db.execute_incomplete_us", mean(&per_shape)));
}

/// Fixed-shape probes of the neural substrate: a housing-shaped MADE
/// (cardinalities 13/25/9/25/4/5, 8-wide embeddings, 64×64 hidden units)
/// on 256-row batches — the shapes the completion sweep runs at.
fn nn_probes(rec: &mut Recorder, root: u64, values: &mut Values) {
    const CARDS: [usize; 6] = [13, 25, 9, 25, 4, 5];
    const EMBED: usize = 8;
    const HIDDEN: usize = 64;
    const ROWS: usize = 256;
    const START_ATTR: usize = 2;
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let attrs: Vec<AttrSpec> = CARDS.iter().map(|&c| AttrSpec::new(c, EMBED)).collect();
    let made = Made::new(
        MadeConfig::new(attrs).with_hidden(vec![HIDDEN, HIDDEN]),
        &mut store,
        &mut rng,
    );
    let base: Vec<Vec<u32>> = CARDS
        .iter()
        .map(|&card| (0..ROWS as u32).map(|r| r % card as u32).collect())
        .collect();
    let fresh = || -> Vec<Arc<Vec<u32>>> { base.iter().map(|t| Arc::new(t.clone())).collect() };

    let mut session = InferenceSession::new();
    let secs = timed(rec, "nn.sweep.sample_range", root, LONG, || {
        let mut cols = fresh();
        made.sample_range_in(
            &mut session,
            &store,
            &mut cols,
            None,
            START_ATTR,
            CARDS.len(),
            &[],
            &mut rng,
        );
        black_box(cols);
    });
    values.push(("nn.sweep.tuples_per_s", ROWS as f64 / secs));
    values.push(("nn.session.pooled_buffers", session.pooled_buffers() as f64));

    let cols = fresh();
    let secs = timed(rec, "nn.logits_attr", root, SHORT, || {
        black_box(
            made.logits_attr_in(&mut session, &store, &cols, None, 3)
                .rows(),
        );
    });
    values.push(("nn.logits_attr.rows_per_s", ROWS as f64 / secs));

    // MACs of one tuple's sweep, from the shapes: the embedding layer and
    // the hidden layer once (each degree band exactly once), plus the
    // logit blocks of the sampled attributes.
    let sampled_logits: usize = CARDS[START_ATTR..].iter().sum();
    let macs_per_tuple = CARDS.len() * EMBED * HIDDEN + HIDDEN * HIDDEN + HIDDEN * sampled_logits;
    values.push(("nn.gemm.macs_per_tuple", macs_per_tuple as f64));

    let (m, k, n) = (ROWS, HIDDEN, HIDDEN);
    let gmacs = |macs: usize, secs: f64| macs as f64 / secs / 1e9;
    let a = Matrix::rand_uniform(m, k, -1.0, 1.0, &mut rng);
    let b = Matrix::rand_uniform(k, n, -1.0, 1.0, &mut rng);
    let mut out = Matrix::zeros(m, n);
    let secs = timed(rec, "nn.gemm.matmul_into", root, SHORT, || {
        a.matmul_into(&b, black_box(&mut out));
    });
    values.push(("nn.gemm.trunk_gmacs_per_s", gmacs(m * k * n, secs)));
    // One lane-aligned degree band of a degree-sorted 64×256 weight.
    let wide = Matrix::rand_uniform(k, 256, -1.0, 1.0, &mut rng);
    let band = 64..80;
    let secs = timed(rec, "nn.gemm.matmul_col_band", root, SHORT, || {
        a.matmul_col_band_limited_into(&wide, band.clone(), k, black_box(&mut out));
    });
    values.push(("nn.gemm.band_gmacs_per_s", gmacs(m * k * band.len(), secs)));

    // Backward accumulate kernels at the same shapes.
    let bt = Matrix::rand_uniform(n, k, -1.0, 1.0, &mut rng);
    let mut acc = Matrix::zeros(m, n);
    let secs_t = timed(rec, "nn.backward.matmul_t_acc", root, SHORT, || {
        a.matmul_t_acc(&bt, black_box(&mut acc));
    });
    let g = Matrix::rand_uniform(m, n, -1.0, 1.0, &mut rng);
    let mut tacc = Matrix::zeros(k, n);
    let secs_tt = timed(rec, "nn.backward.t_matmul_acc", root, SHORT, || {
        a.t_matmul_acc(&g, black_box(&mut tacc));
    });
    values.push((
        "nn.backward.acc_gmacs_per_s",
        gmacs(2 * m * k * n, secs_t + secs_tt),
    ));

    // One data-parallel gradient step: 256 rows in microbatches of 32.
    let mut engine = TrainEngine::new(restore_util::default_workers());
    let mut adam = Adam::new(&store, 5e-3);
    let layout = made.layout().clone();
    let rows: Vec<usize> = (0..ROWS).collect();
    let norm = 1.0 / (CARDS.len() * ROWS) as f32;
    let secs = timed(rec, "nn.train.step", root, LONG, || {
        engine
            .step(&mut store, &rows, 32, |tape, store, chunk, grads| {
                let tokens: Vec<Vec<u32>> = base
                    .iter()
                    .map(|col| chunk.iter().map(|&r| col[r]).collect())
                    .collect();
                let shared: Vec<Arc<Vec<u32>>> = tokens.iter().cloned().map(Arc::new).collect();
                let mut f = tape.ctx(store);
                let logits = made.forward(&mut f, store, &shared, None);
                let sums = block_cross_entropy_sums(f.value(logits), &layout, &tokens, None);
                let mut dlogits = sums.dlogits;
                dlogits.scale_assign(norm);
                tape.backward_with(logits, dlogits, store, grads);
                Ok::<f64, std::convert::Infallible>(sums.loss_sum)
            })
            .expect("infallible step");
        store.clip_grad_norm(5.0);
        adam.step(&mut store);
    });
    values.push(("nn.train.steps_per_s", 1.0 / secs));
}
