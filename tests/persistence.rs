//! Snapshot persistence contract (`restore-core`'s `persist` +
//! `restore-serve`'s `SnapshotStore`):
//!
//! * **round trip** — `load(save(snapshot))` serves byte-identically to
//!   the in-memory original over the full query suite: every workload
//!   query × seed, confidence intervals, and completed tables under a
//!   multi-worker completer;
//! * **atomicity at boot** — a crash inside the write window (temp file
//!   present, rename never happened) is invisible to the boot scan, and a
//!   corrupt newest version falls back to the newest *valid* one;
//! * **idempotence** — re-saving the same snapshot version is byte-equal,
//!   and a server boots tenants straight from the snapshot directory;
//! * **one format** — the meta states each fact once (the training config
//!   under `config` alone, no retired option key, `suspected` always), and
//!   a file of another format version is refused, not read;
//! * **hot swap from disk** — a *loaded* v2 publishes over an in-memory
//!   v1 under concurrent load torn-free (the `http_serving.rs` harness,
//!   with the replacement snapshot coming off disk).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use restore_fixtures::{
    result_fingerprint as fingerprint, sealed_synthetic_snapshot, serving_workload as workload,
};

use restore::core::wire::{self, QueryRequest};
use restore::core::{
    CompleterConfig, ConfidenceQuery, PersistError, ReStore, RestoreConfig, Snapshot,
    SnapshotRegistry, TrainConfig,
};
use restore::data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore::db::{Agg, Query};
use restore::serve::{HttpClient, ServeConfig, Server, SnapshotStore};
use restore::util::fnv1a64;
use restore::util::json::{parse, JsonValue};

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "restore-persistence-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Serving fingerprints across every execution path the snapshot exposes:
/// the query workload under several seeds, a confidence interval, and a
/// completed table.
fn serve_fingerprints(snapshot: &Snapshot) -> Vec<String> {
    let mut out = Vec::new();
    for q in workload() {
        for seed in [0u64, 7, 40] {
            out.push(fingerprint(&snapshot.execute(&q, seed).expect("execute")));
        }
    }
    let tables = vec!["ta".to_string(), "tb".to_string()];
    let cq = ConfidenceQuery::CountFraction {
        table: "tb".into(),
        column: "b".into(),
        value: "b0".into(),
    };
    let ci = snapshot
        .confidence(&tables, &cq, 0.95, 7)
        .expect("confidence");
    out.push(format!(
        "ci:{:016x},{:016x},{:016x}",
        ci.lo.to_bits(),
        ci.hi.to_bits(),
        ci.estimate.to_bits()
    ));
    out.push(wire::table_json(
        &snapshot.completed_table("tb", 3).expect("completed table"),
    ));
    out
}

#[test]
fn round_trip_serves_byte_identically() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("v00001.snap");
    let snapshot = sealed_synthetic_snapshot(11, 23);
    snapshot.save(&path).expect("save");
    let loaded = Snapshot::load(&path).expect("load");
    assert_eq!(loaded.serve_seed(), snapshot.serve_seed());
    assert_eq!(
        serve_fingerprints(&loaded),
        serve_fingerprints(&snapshot),
        "loaded snapshot must serve byte-identically"
    );
    // Trained or loaded, the sweep's banded weights are built once the
    // weights are final, not on the model's first sweep.
    for served in [&snapshot, &loaded] {
        let models = served.trained_models();
        assert!(!models.is_empty());
        assert!(models.iter().all(|m| m.has_frozen_banded()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn round_trip_is_exact_under_multi_worker_completion() {
    // A completer fanning rows over 4 workers exercises the seed-derived
    // parallel synthesis paths; the loaded snapshot must still match the
    // original bit for bit.
    let db = generate_synthetic(
        &SyntheticConfig {
            predictability: 0.9,
            n_parent: 120,
            ..Default::default()
        },
        13,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = 13;
    let sc = apply_removal(&db, &removal);
    let cfg = RestoreConfig {
        train: TrainConfig {
            epochs: 2,
            min_steps: 40,
            hidden: vec![16, 16],
            max_train_rows: 2_000,
            workers: 1,
            ..TrainConfig::default()
        },
        completer: CompleterConfig {
            workers: 4,
            ..CompleterConfig::default()
        },
        max_candidates: 1,
        ..RestoreConfig::default()
    };
    let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
    rs.mark_incomplete("tb");
    rs.train(13).expect("train");
    let q = Query::new(["ta", "tb"])
        .group_by(["b"])
        .aggregate(Agg::CountStar);
    rs.ensure_query_models(&q.tables, 13).expect("ensure");
    let snapshot = rs.seal(29);

    let dir = temp_dir("workers");
    let path = dir.join("v00001.snap");
    snapshot.save(&path).expect("save");
    let loaded = Snapshot::load(&path).expect("load");
    for seed in [0u64, 5] {
        assert_eq!(
            fingerprint(&loaded.execute(&q, seed).expect("loaded")),
            fingerprint(&snapshot.execute(&q, seed).expect("original")),
            "multi-worker completion diverged at seed {seed}"
        );
    }
    assert_eq!(
        wire::table_json(&loaded.completed_table("tb", 2).expect("loaded table")),
        wire::table_json(&snapshot.completed_table("tb", 2).expect("original table")),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resave_of_same_version_is_byte_idempotent() {
    let dir = temp_dir("idempotent");
    let store = SnapshotStore::new(&dir);
    let snapshot = sealed_synthetic_snapshot(17, 5);
    store.save_version("t", 1, &snapshot).expect("first save");
    let first = std::fs::read(store.version_path("t", 1)).expect("read");
    store.save_version("t", 1, &snapshot).expect("re-save");
    let second = std::fs::read(store.version_path("t", 1)).expect("read");
    assert_eq!(first, second, "re-saving the same version must be a no-op");
    // And a load → save cycle reproduces the bytes too.
    let loaded = Snapshot::load(&store.version_path("t", 1)).expect("load");
    assert_eq!(loaded.to_bytes(), first, "serialization is deterministic");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `file` with its meta JSON rewritten by `edit`, the meta length and the
/// checksum fixed up.
fn edit_meta(file: &[u8], edit: impl FnOnce(&str) -> String) -> Vec<u8> {
    let meta_len = u64::from_le_bytes(file[12..20].try_into().unwrap()) as usize;
    let meta = edit(std::str::from_utf8(&file[20..20 + meta_len]).expect("UTF-8 meta"));
    let mut out = file[..12].to_vec();
    out.extend_from_slice(&(meta.len() as u64).to_le_bytes());
    out.extend_from_slice(meta.as_bytes());
    out.extend_from_slice(&file[20 + meta_len..file.len() - 8]);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// `file` with its format version set to `version` and the checksum fixed
/// up: what a writer of that version saves, as far as the header goes.
fn with_format_version(file: &[u8], version: u32) -> Vec<u8> {
    let mut out = file.to_vec();
    out[8..12].copy_from_slice(&version.to_le_bytes());
    let body = out.len() - 8;
    let checksum = fnv1a64(&out[..body]);
    out[body..].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// The meta states each fact once: the training config every model was
/// built under sits under `config` alone, no key of an option that became a
/// constant or a rule is written, and `suspected` is always there. A file
/// of an older format (v1 or v2) is refused by version, not read by a second
/// set of rules.
#[test]
fn the_meta_states_each_fact_once_and_a_v1_file_is_refused() {
    const RETIRED: [&str; 16] = [
        "lr",
        "max_bins",
        "val_fraction",
        "clip_norm",
        "tf_cap",
        "max_set_size",
        "patience",
        "embed_dim",
        "microbatch",
        "ann_bits",
        "ann_tables",
        "max_missing_per_row",
        "max_path_len",
        "incremental_sweep",
        "incremental_encoding",
        "replacement",
    ];
    let bytes = sealed_synthetic_snapshot(29, 4).to_bytes();
    let meta_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let text = std::str::from_utf8(&bytes[20..20 + meta_len]).unwrap();
    let meta = parse(text).expect("meta");
    let field = |v: &JsonValue, key: &str| v.get(key).cloned().expect(key);
    let config = field(&meta, "config");
    assert!(
        config.get("train").is_some(),
        "config states the train config"
    );
    assert_eq!(text.matches(r#""train":"#).count(), 1, "{text}");
    let models = field(&meta, "models");
    let models = models.as_array().expect("models");
    assert!(!models.is_empty());
    for key in RETIRED {
        assert!(
            !text.contains(&format!("\"{key}\"")),
            "a saved file still writes {key:?}"
        );
    }
    assert_eq!(field(&meta, "suspected"), JsonValue::Arr(Vec::new()));

    for old in [1, 2] {
        assert!(matches!(
            Snapshot::from_bytes(&with_format_version(&bytes, old)),
            Err(PersistError::UnsupportedVersion(v)) if v == old
        ));
    }
}

/// A file that declares more rows than its payload holds is refused by
/// table and count before the loader allocates for the declared rows.
#[test]
fn a_declared_row_count_beyond_the_payload_is_refused_before_allocating() {
    let bytes = sealed_synthetic_snapshot(29, 4).to_bytes();
    let declared = 8 * bytes.len();
    let inflated = edit_meta(&bytes, |m| {
        let key = r#""name":"tb","n_rows":"#;
        let start = m.find(key).expect("tb's meta") + key.len();
        let end = start + m[start..].find(',').expect("n_rows ends");
        format!("{}{declared}{}", &m[..start], &m[end..])
    });
    match Snapshot::from_bytes(&inflated) {
        Err(PersistError::Corrupt(m)) => {
            assert!(m.contains(r#""tb""#), "names the table: {m}");
            assert!(m.contains(&declared.to_string()), "names the count: {m}");
        }
        other => panic!("an inflated n_rows must be refused, got {:?}", other.err()),
    }
}

#[test]
fn boot_scan_ignores_crash_window_temp_files_and_corrupt_versions() {
    let dir = temp_dir("bootscan");
    let store = SnapshotStore::new(&dir);
    let snapshot = sealed_synthetic_snapshot(19, 7);
    store.save_version("t", 1, &snapshot).expect("save v1");

    // Crash window: a temp file that never got renamed. Must be invisible.
    std::fs::write(dir.join("t").join("v00002.snap.tmp-4242"), b"half a write").expect("write tmp");
    // Corrupt newest version: one flipped byte. Must be skipped with a
    // reason, falling back to v1.
    let mut corrupt = snapshot.to_bytes();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    std::fs::write(store.version_path("t", 3), &corrupt).expect("write corrupt v3");
    // A version of an older format (a v1 header, checksum intact): skipped
    // by its version, not misread.
    let old_format = with_format_version(&snapshot.to_bytes(), 1);
    std::fs::write(store.version_path("t", 2), old_format).expect("write v1-format v2");

    assert_eq!(store.versions("t"), vec![1, 2, 3], "tmp file must not list");
    let (loaded, skipped) = store.load_latest("t");
    let loaded = loaded.expect("v1 must load");
    assert_eq!(loaded.version, 1, "scan must fall back to the valid v1");
    let reasons: Vec<&str> = skipped.iter().map(|s| s.reason.as_str()).collect();
    assert_eq!(reasons.len(), 2, "v3 and v2 must be skipped, not fatal");
    assert!(
        reasons[0].contains("checksum"),
        "names the failure: {reasons:?}"
    );
    assert!(
        reasons[1].contains("unsupported snapshot format version 1"),
        "names the version: {reasons:?}"
    );

    // End to end: a server pointed at the directory boots the tenant and
    // serves it byte-identically to the in-memory snapshot it came from.
    let registry = Arc::new(SnapshotRegistry::new());
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let request = QueryRequest::new(Query::new(["ta", "tb"]).aggregate(Agg::CountStar), 3);
    let expected =
        wire::query_response_json(&snapshot.execute(&request.query, 3).expect("direct"), None);
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let (status, health) = client.get("/healthz").expect("healthz");
    assert_eq!(status, 200);
    assert!(health.contains("\"t\""), "booted tenant missing: {health}");
    let (status, body) = client
        .post("/v1/t/query", &request.to_json())
        .expect("query");
    assert_eq!((status, body.as_str()), (200, expected.as_str()));
    let (_, metrics) = client.get("/metrics").expect("metrics");
    assert!(
        metrics.contains("\"snapshots_loaded\":1"),
        "boot scan must account its load: {metrics}"
    );
    assert!(server.shutdown(), "drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rebuild_endpoint_retrains_saves_and_republishes() {
    // The background pipeline end to end: boot v1 from disk, POST rebuild
    // with pinned seeds, and wait for the new version to be trained,
    // atomically saved as v2, and hot-swapped into the registry.
    let dir = temp_dir("rebuild");
    let store = SnapshotStore::new(&dir);
    let v1 = sealed_synthetic_snapshot(19, 7);
    store.save_version("t", 1, &v1).expect("save v1");

    let registry = Arc::new(SnapshotRegistry::new());
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    // Guard rails first: unknown tenant 404s, a bad seed param 400s.
    let (status, _) = client.post("/v1/nope/rebuild", "").expect("rebuild");
    assert_eq!(status, 404, "unknown tenant must 404");
    let (status, _) = client
        .post("/v1/t/rebuild?train_seed=banana", "")
        .expect("rebuild");
    assert_eq!(status, 400, "unparseable seed must 400");

    let (status, body) = client
        .post("/v1/t/rebuild?train_seed=5&serve_seed=77", "")
        .expect("rebuild");
    assert_eq!(status, 202, "rebuild must be accepted: {body}");
    assert!(body.contains("\"version\":2"), "next version is 2: {body}");
    assert!(
        body.contains("\"serve_seed\":\"77\""),
        "pinned seed: {body}"
    );

    // The pipeline runs on a detached thread; poll the registry for the
    // hot swap (the publish happens only after the atomic save).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let v2 = loop {
        if let Some(snap) = registry.get("t") {
            if snap.serve_seed() == 77 {
                break snap;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "rebuild did not publish within 60s"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    // v2 landed on disk through the atomic path and round-trips.
    assert_eq!(store.versions("t"), vec![1, 2], "v2 must be saved");
    let from_disk = Snapshot::load(&store.version_path("t", 2)).expect("load v2");
    assert_eq!(from_disk.serve_seed(), 77);

    // And the server now serves the rebuilt snapshot, byte-identical to
    // direct execution against both the published and the on-disk v2.
    let request = QueryRequest::new(Query::new(["ta", "tb"]).aggregate(Agg::CountStar), 3);
    let expected = wire::query_response_json(&v2.execute(&request.query, 3).expect("direct"), None);
    assert_eq!(
        wire::query_response_json(&from_disk.execute(&request.query, 3).expect("disk"), None),
        expected,
        "published and on-disk v2 must serve the same bytes"
    );
    let (status, body) = client
        .post("/v1/t/query", &request.to_json())
        .expect("query");
    assert_eq!((status, body.as_str()), (200, expected.as_str()));
    let (_, metrics) = client.get("/metrics").expect("metrics");
    assert!(
        metrics.contains("\"completed\":1"),
        "rebuild must be accounted: {metrics}"
    );
    assert!(server.shutdown(), "drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_swap_from_loaded_snapshot_under_load_is_torn_free() {
    // The http_serving.rs torn-free harness, with the twist that v2 comes
    // off disk: publishing a *loaded* snapshot over a draining in-memory
    // v1 must behave exactly like publishing an in-memory one.
    let v1 = sealed_synthetic_snapshot(31, 31);
    let dir = temp_dir("hotswap");
    let path = dir.join("v00002.snap");
    sealed_synthetic_snapshot(31, 99)
        .save(&path)
        .expect("save v2");
    let v2 = Arc::new(Snapshot::load(&path).expect("load v2"));

    let query = Query::new(["ta", "tb"])
        .group_by(["b"])
        .aggregate(Agg::CountStar);
    let request = QueryRequest::new(query, 5);
    let body = Arc::new(request.to_json());
    let direct = |snap: &Snapshot| {
        wire::query_response_json(&snap.execute(&request.query, 5).expect("direct"), None)
    };
    let e1 = Arc::new(direct(&v1));
    let e2 = Arc::new(direct(&v2));
    assert_ne!(e1, e2, "serve seeds must give distinguishable responses");

    let registry = Arc::new(SnapshotRegistry::new());
    registry.publish("swap", Arc::clone(&v1));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();

    let responded = Arc::new(AtomicUsize::new(0));
    let threads = 4;
    let iters = 10;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let (body, responded) = (Arc::clone(&body), Arc::clone(&responded));
        handles.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let mut responses = Vec::with_capacity(iters);
            for _ in 0..iters {
                let (status, response) = client.post("/v1/swap/query", &body).expect("request");
                assert_eq!(status, 200, "no request may fail across the swap");
                responses.push(response);
                responded.fetch_add(1, Ordering::SeqCst);
            }
            responses
        }));
    }
    while responded.load(Ordering::SeqCst) < threads * 2 {
        std::thread::yield_now();
    }
    registry.publish("swap", Arc::clone(&v2));

    for handle in handles {
        let responses = handle.join().expect("client thread");
        let mut seen_v2 = false;
        for response in &responses {
            let is_v1 = response == e1.as_str();
            let is_v2 = response == e2.as_str();
            assert!(is_v1 || is_v2, "torn response: {response}");
            if is_v2 {
                seen_v2 = true;
            }
            assert!(!(is_v1 && seen_v2), "regressed to v1 after observing v2");
        }
    }
    let (status, response) = HttpClient::connect(addr)
        .expect("connect")
        .post("/v1/swap/query", &body)
        .expect("request");
    assert_eq!((status, response.as_str()), (200, e2.as_str()));
    assert!(server.shutdown(), "drain");
    let _ = std::fs::remove_dir_all(&dir);
}
