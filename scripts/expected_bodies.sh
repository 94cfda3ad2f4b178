#!/usr/bin/env bash
# Byte identity of what the program serves, checked against a pinned file:
#   scripts/expected_bodies.sh          # check the working tree
#   scripts/expected_bodies.sh --pin    # rewrite tests/fixtures/expected_bodies.txt
# Builds, from the working tree (under .bench_build/bodies, so the root
# .cargo/config.toml applies; a RUSTFLAGS such as `-C target-cpu=x86-64-v2`
# overrides it), a throwaway crate that includes benchmark/src/{spec,fixtures}.rs
# and prints one `label fnv1a64` line, the hash of the line's body, for:
#   * every workload's cycle shapes at benchmark seeds 1-4 (sealed with the
#     serve seed the benchmark's `--seed` seals with): the wire body,
#     `fixtures::expected(..).body`;
#   * the completed join, `wire::table_json` of `Snapshot::complete_join`, of
#     every chain the snapshot holds a trained model for (the 3-table housing
#     chains and their n:1 steps included, whether or not a shape serves them);
#   * the completed join of one n:1 fixture the benchmark lacks: housing with
#     landlords removed, completed along `apartment -> landlord`, so apartments
#     whose landlord is gone lose their one partner and the n:1 step
#     synthesizes it (no benchmark chain ever leaves an n:1 row partnerless).
# Names every label whose hash differs from the pinned file's, or that only
# one side has, and then exits non-zero. About 40 s on two cores once the
# build is cached, most of it the housing training.
set -euo pipefail
cd "$(dirname "$0")/.."
case ${1:-} in
    '') pin=false ;;
    --pin) pin=true ;;
    *) echo "usage: $0 [--pin]" >&2; exit 2 ;;
esac
root=$PWD dir=$PWD/.bench_build/bodies pinned=$PWD/tests/fixtures/expected_bodies.txt
crate=$dir/crate
mkdir -p "$crate/src"
cat >"$crate/Cargo.toml" <<EOF
[package]
name = "expected-bodies"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
restore-core = { path = "$root/crates/restore-core" }
restore-data = { path = "$root/crates/restore-data" }
restore-db = { path = "$root/crates/restore-db" }
restore-util = { path = "$root/crates/restore-util" }
EOF
cat >"$crate/src/main.rs" <<EOF
#![allow(dead_code)]
#[path = "$root/benchmark/src/spec.rs"]
mod spec;
#[path = "$root/benchmark/src/fixtures.rs"]
mod fixtures;
EOF
cat >>"$crate/src/main.rs" <<'EOF'

use restore_core::wire::table_json;
use restore_core::{ReStore, RestoreConfig, TrainConfig};
use restore_data::housing::{generate_housing, HousingConfig};
use restore_data::{apply_removal, BiasSpec, RemovalConfig};
use restore_util::{derive_seed, fnv1a64};
use spec::Workload;

/// One line of the pinned file: `label` and the fnv1a64 of `body`.
fn pin(label: &str, body: &str) {
    println!("{label} {:016x}", fnv1a64(body.as_bytes()));
}

/// Housing with 60 % of the landlords removed, completed from apartments.
fn n_to_1_fixture() {
    let complete = generate_housing(&HousingConfig::scaled(0.1), 41);
    let mut removal = RemovalConfig::new(
        BiasSpec::continuous("landlord", "landlord_response_rate"),
        0.6,
        0.5,
    );
    removal.seed = 41;
    let train = TrainConfig {
        epochs: 3,
        min_steps: 60,
        hidden: vec![24, 24],
        workers: 1,
        ..TrainConfig::default()
    };
    let config = RestoreConfig {
        train,
        ..RestoreConfig::default()
    };
    let mut restore = ReStore::new(apply_removal(&complete, &removal).incomplete, config);
    restore.mark_incomplete("landlord");
    let chain = ["apartment".to_string(), "landlord".to_string()];
    restore.set_selected_path("landlord", &chain, 41).expect("train the n:1 chain");
    for seed in 1..=4 {
        let snapshot = restore.seal(seed);
        let out = snapshot.complete_join(&chain).expect("the n:1 chain completes");
        let synthesized = out.syn[1].iter().filter(|&&s| s).count();
        assert!(synthesized > 0, "the n:1 step synthesizes landlords");
        pin(&format!("n:1 seed {seed} chain {}", chain.join(",")), &table_json(&out.join));
    }
}

fn main() {
    n_to_1_fixture();
    for workload in Workload::ALL {
        let name = workload.name();
        // Training does not depend on the seed: only the query seeds do.
        let built = fixtures::build(workload, &fixtures::cycle(workload, 1));
        for seed in 1..=4 {
            // The serve seed a benchmark run of `--seed` seals with.
            let snapshot = built.restore.seal(derive_seed(seed, 0x5e41));
            for (i, request) in fixtures::cycle(workload, seed).iter().enumerate() {
                let body = fixtures::expected(&snapshot, request).body;
                pin(&format!("{name} seed {seed} shape {i}"), &body);
            }
            let mut chains: Vec<Vec<String>> = snapshot
                .trained_models()
                .iter()
                .map(|m| m.path().tables().to_vec())
                .collect();
            chains.sort();
            for chain in chains {
                let out = snapshot.complete_join(&chain).expect("a trained chain completes");
                pin(&format!("{name} seed {seed} chain {}", chain.join(",")), &table_json(&out.join));
            }
        }
    }
}
EOF
echo "expected bodies: building and running the working tree" >&2
(cd "$crate" && CARGO_TARGET_DIR=$dir/target cargo run --release --offline --quiet) >"$dir/work.out"
if $pin; then
    cp "$dir/work.out" "$pinned"
    echo "expected bodies: pinned $(wc -l <"$pinned") lines to ${pinned#"$root"/}" >&2
    exit 0
fi
# A line's label is everything before its last field, the hash.
if ! awk '
    { label = substr($0, 1, length($0) - length($NF) - 1) }
    NR == FNR { want[label] = $NF; next }
    !(label in want) { print "expected bodies: not pinned: " label; bad++; next }
    want[label] != $NF { print "expected bodies: differs: " label; bad++ }
    { delete want[label] }
    END {
        for (label in want) { print "expected bodies: missing: " label; bad++ }
        exit bad > 0
    }' "$pinned" "$dir/work.out" >&2; then
    echo "expected bodies: the working tree does not serve the pinned bytes" \
        "(scripts/expected_bodies.sh --pin re-pins them on purpose)" >&2
    exit 1
fi
echo "expected bodies: $(wc -l <"$dir/work.out") lines identical to the pinned file" >&2
