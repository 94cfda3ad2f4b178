#!/usr/bin/env bash
# Byte identity of what the program serves, REF against the working tree:
#   scripts/expected_bodies.sh [REF=HEAD]
# Builds, from a `git archive` copy of REF and from the working tree (both
# under .bench_build/bodies, so the root .cargo/config.toml applies to both),
# a throwaway crate that includes benchmark/src/{spec,fixtures}.rs and prints,
# for every workload at benchmark seeds 1-4 (sealed with the serve seed the
# benchmark's `--seed` seals with):
#   * every cycle shape's wire body, `fixtures::expected(..).body`;
#   * the completed join, `wire::table_json` of `Snapshot::complete_join`, of
#     every chain the snapshot holds a trained model for (the 3-table housing
#     chains and their n:1 steps included, whether or not a shape serves them);
#   * the completed join of one n:1 fixture the benchmark lacks: housing with
#     landlords removed, completed along `apartment -> landlord`, so apartments
#     whose landlord is gone lose their one partner and the n:1 step
#     synthesizes it (no benchmark chain ever leaves an n:1 row partnerless).
# Exits non-zero unless the two outputs are `cmp`-equal. About 4 minutes on
# two cores, most of it the two release builds and the housing training.
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:-HEAD} root=$PWD dir=$PWD/.bench_build/bodies
echo "expected bodies: ref = $ref ($(git rev-parse --short "$ref")), work = working tree" >&2
rm -rf "$dir/ref" && mkdir -p "$dir/ref" && git archive "$ref" | tar -x -C "$dir/ref"

declare -A tree=([ref]=$dir/ref [work]=$root)
for side in ref work; do
    crate=$dir/crate-$side src=${tree[$side]}
    mkdir -p "$crate/src"
    cat >"$crate/Cargo.toml" <<EOF
[package]
name = "expected-bodies"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
restore-core = { path = "$src/crates/restore-core" }
restore-data = { path = "$src/crates/restore-data" }
restore-db = { path = "$src/crates/restore-db" }
restore-util = { path = "$src/crates/restore-util" }
EOF
    cat >"$crate/src/main.rs" <<EOF
#![allow(dead_code)]
#[path = "$src/benchmark/src/spec.rs"]
mod spec;
#[path = "$src/benchmark/src/fixtures.rs"]
mod fixtures;
EOF
    cat >>"$crate/src/main.rs" <<'EOF'

use restore_core::wire::table_json;
use restore_core::{ReStore, RestoreConfig, TrainConfig};
use restore_data::housing::{generate_housing, HousingConfig};
use restore_data::{apply_removal, BiasSpec, RemovalConfig};
use restore_util::derive_seed;
use spec::Workload;

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
        println!("n:1 seed {seed} chain {}: {}", chain.join(","), table_json(&out.join));
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
                println!("{name} seed {seed} shape {i}: {body}");
            }
            let mut chains: Vec<Vec<String>> = snapshot
                .trained_models()
                .iter()
                .map(|m| m.path().tables().to_vec())
                .collect();
            chains.sort();
            for chain in chains {
                let out = snapshot.complete_join(&chain).expect("a trained chain completes");
                println!("{name} seed {seed} chain {}: {}", chain.join(","), table_json(&out.join));
            }
        }
    }
}
EOF
    echo "expected bodies: building and running $side" >&2
    (cd "$crate" && CARGO_TARGET_DIR=$dir/target-$side \
        cargo run --release --offline --quiet) >"$dir/$side.out"
done
echo "expected bodies: $(wc -l <"$dir/work.out") lines, $(wc -c <"$dir/work.out") bytes" >&2
cmp "$dir/ref.out" "$dir/work.out"
echo "expected bodies: identical" >&2
