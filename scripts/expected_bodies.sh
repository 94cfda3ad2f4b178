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
#     chains and their n:1 steps included, whether or not a shape serves them).
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
use restore_util::derive_seed;
use spec::Workload;

fn main() {
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
