#!/usr/bin/env bash
# Lints, tests and smoke-runs the benchmark's own workspace. The root
# `cargo fmt --all` / `cargo clippy --workspace` / `cargo test` do not reach
# this crate (it is not a member of the root workspace), so run this after
# touching anything under benchmark/.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
# Every workload once with one-second runs, untraced and traced; a run that
# was not correct says so in its result line.
for mode in run trace; do
    cargo run --release --offline --quiet -- "$mode" --all --quick | tee /dev/stderr |
        awk '!/"correct":true/ { bad = 1 } END { exit bad }'
done
echo "benchmark/check.sh: ok"
