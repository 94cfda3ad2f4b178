#!/usr/bin/env sh
# Lines of Rust per crate, with tests/ and benchmark/ kept apart: the
# number ROADMAP item 3 tracks. Run from anywhere inside the repo.
cd "$(dirname "$0")/.." || exit 1
count() { find "$1" -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l; }
total=0
for dir in crates/* vendor/* src; do
    n=$(count "$dir")
    total=$((total + n))
    printf '%7d  %s\n' "$n" "$dir"
done
printf '%7d  total (crates + src + vendor)\n' "$total"
printf '%7d  tests\n%7d  benchmark\n' "$(count tests)" "$(count benchmark)"
