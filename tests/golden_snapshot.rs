//! Golden snapshot fixture: a committed v3-format snapshot file that
//! today's loader must read and serve **byte-for-byte** as pinned when it
//! was created, and that its writer must save back to the same bytes.
//! This is the format-compatibility gate — any change to the on-disk
//! layout, the rehydration path, or serving numerics breaks it, and the
//! only sanctioned escape is bumping `SNAPSHOT_FORMAT_VERSION` and
//! regenerating the fixture (run the `#[ignore]`d
//! `regenerate_golden_fixture` test, commit both files under the new
//! version's name and pin the re-save it prints). The loader reads one
//! version, so the old fixture goes.

use std::path::PathBuf;

use restore_fixtures::{result_fingerprint as fingerprint, serving_workload as workload};

use restore::core::{
    CompleterConfig, ConfidenceQuery, ReStore, RestoreConfig, Snapshot, TrainConfig,
    SNAPSHOT_FORMAT_VERSION,
};
use restore::data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore::util::fnv1a64;

fn fixture_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
}

fn fixture_path() -> PathBuf {
    fixture_dir().join("golden_v3.snap")
}

fn expected_path() -> PathBuf {
    fixture_dir().join("golden_v3_expected.txt")
}

/// The fixture's serving transcript: the shared workload under two seeds,
/// plus one confidence interval — small but covering every execution path.
fn transcript(snapshot: &Snapshot) -> Vec<String> {
    let mut out = Vec::new();
    for q in workload() {
        for seed in [1u64, 9] {
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
        .confidence(&tables, &cq, 0.95, 1)
        .expect("confidence");
    out.push(format!(
        "ci:{:016x},{:016x},{:016x}",
        ci.lo.to_bits(),
        ci.hi.to_bits(),
        ci.estimate.to_bits()
    ));
    out
}

/// Builds the snapshot behind the fixture — deliberately tiny (60 parents,
/// 8×8 hidden layers, 1 epoch) so the committed file stays a few KB.
fn build_golden() -> Snapshot {
    let db = generate_synthetic(
        &SyntheticConfig {
            predictability: 0.9,
            n_parent: 60,
            ..Default::default()
        },
        41,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = 41;
    let sc = apply_removal(&db, &removal);
    let cfg = RestoreConfig {
        train: TrainConfig {
            epochs: 1,
            min_steps: 20,
            hidden: vec![8, 8],
            max_train_rows: 500,
            workers: 1,
            ..TrainConfig::default()
        },
        completer: CompleterConfig {
            workers: 1,
            ..CompleterConfig::default()
        },
        max_candidates: 1,
        ..RestoreConfig::default()
    };
    let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
    rs.mark_incomplete("tb");
    rs.train(41).expect("train");
    for q in workload() {
        rs.ensure_query_models(&q.tables, 41).expect("ensure");
    }
    rs.seal(41)
}

#[test]
fn golden_fixture_loads_and_serves_pinned_results() {
    assert_eq!(
        SNAPSHOT_FORMAT_VERSION, 3,
        "format version changed: regenerate the golden fixture \
         (cargo test --test golden_snapshot -- --ignored) and rename it"
    );
    let snapshot = Snapshot::load(&fixture_path()).expect(
        "committed golden_v3.snap must load with today's loader \
         (format change without a version bump?)",
    );
    assert_eq!(snapshot.serve_seed(), 41);
    let expected: Vec<String> = std::fs::read_to_string(expected_path())
        .expect("committed golden_v3_expected.txt")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(
        transcript(&snapshot),
        expected,
        "golden snapshot no longer serves its pinned results byte-for-byte"
    );
}

/// What the writer makes of the fixture, pinned: its length and
/// checksum — the committed file's own, since the reader drops nothing the
/// writer wrote — and a reload that saves the same bytes again.
#[test]
fn golden_fixture_resaves_to_pinned_bytes() {
    let bytes = Snapshot::load(&fixture_path()).expect("load").to_bytes();
    assert_eq!(bytes.len(), 9_497);
    assert_eq!(fnv1a64(&bytes), 0x15d0_70a4_6718_4793);
    let again = Snapshot::from_bytes(&bytes).expect("reload").to_bytes();
    assert_eq!(again, bytes, "re-saving a loaded snapshot is idempotent");
}

/// Regenerates the committed fixture + expected transcript. Run manually
/// after an intentional format bump:
/// `cargo test --test golden_snapshot -- --ignored`
#[test]
#[ignore = "regenerates the committed fixture; run only on format bumps"]
fn regenerate_golden_fixture() {
    std::fs::create_dir_all(fixture_dir()).expect("fixtures dir");
    let snapshot = build_golden();
    let bytes = snapshot.save(&fixture_path()).expect("save fixture");
    let mut expected = transcript(&snapshot).join("\n");
    expected.push('\n');
    std::fs::write(expected_path(), expected).expect("write expected");
    let resaved = Snapshot::load(&fixture_path()).expect("load").to_bytes();
    println!(
        "regenerated {} ({bytes} bytes) and {}; its re-save, for \
         golden_fixture_resaves_to_pinned_bytes: {} bytes, fnv1a64 {:#018x}",
        fixture_path().display(),
        expected_path().display(),
        resaved.len(),
        fnv1a64(&resaved)
    );
}
