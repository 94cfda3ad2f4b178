#!/usr/bin/env sh
# Lines of Rust per crate, with tests/ and benchmark/ kept apart: the size
# number of north-star point 2 (ROADMAP item 11). Beside it, the crate's
# `pub fn` lines: lines that begin, after indentation, with `pub fn`, outside
# unit-test modules. A unit-test module is everything from a `#[cfg(test)]`
# line directly followed by a `mod` line to the end of its file, which is
# where this workspace puts them; `pub(crate) fn` does not count.
# Run from anywhere inside the repo.
cd "$(dirname "$0")/.." || exit 1
files() { find "$1" -name '*.rs' -not -path '*/target/*'; }
count() { files "$1" | xargs cat | wc -l; }
pub_fns() {
    files "$1" | xargs awk '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = FNR; next }
        FNR == cfg + 1 && /^[[:space:]]*mod / { test = 1 }
        !test && /^[[:space:]]*pub fn / { n++ }
        END { print n + 0 }'
}
total=0 total_fns=0
printf '%7s  %6s  %s\n' lines pub-fn path
for dir in crates/* vendor/* src; do
    n=$(count "$dir") fns=$(pub_fns "$dir")
    total=$((total + n)) total_fns=$((total_fns + fns))
    printf '%7d  %6d  %s\n' "$n" "$fns" "$dir"
done
printf '%7d  %6d  total (crates + src + vendor)\n' "$total" "$total_fns"
printf '%7d  %6s  tests\n%7d  %6s  benchmark\n' "$(count tests)" - "$(count benchmark)" -
