#!/usr/bin/env sh
# Lines of Rust per crate, with tests/ and benchmark/ kept apart: the size
# number of north-star point 2 (ROADMAP item 11). Beside it, the crate's
# `pub fn` and `pub mod` lines: lines that begin, after indentation, with
# `pub fn ` or `pub mod `, outside unit-test modules. A unit-test module is
# everything from a `#[cfg(test)]` line directly followed by a `mod` line to
# the end of its file, which is where this workspace puts them;
# `pub(crate) fn` and `pub(crate) mod` do not count.
# Run from anywhere inside the repo.
cd "$(dirname "$0")/.." || exit 1
files() { find "$1" -name '*.rs' -not -path '*/target/*'; }
count() { files "$1" | xargs cat | wc -l; }
# pub_lines DIR KEYWORD: the `pub KEYWORD ` lines of DIR outside unit tests.
pub_lines() {
    files "$1" | xargs awk -v pat="^[[:space:]]*pub $2 " '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = FNR; next }
        FNR == cfg + 1 && /^[[:space:]]*mod / { test = 1 }
        !test && $0 ~ pat { n++ }
        END { print n + 0 }'
}
total=0 total_fns=0 total_mods=0
printf '%7s  %6s  %7s  %s\n' lines pub-fn pub-mod path
for dir in crates/* vendor/* src; do
    n=$(count "$dir") fns=$(pub_lines "$dir" fn) mods=$(pub_lines "$dir" mod)
    total=$((total + n)) total_fns=$((total_fns + fns)) total_mods=$((total_mods + mods))
    printf '%7d  %6d  %7d  %s\n' "$n" "$fns" "$mods" "$dir"
done
printf '%7d  %6d  %7d  total (crates + src + vendor)\n' "$total" "$total_fns" "$total_mods"
printf '%7d  %6s  %7s  tests\n%7d  %6s  %7s  benchmark\n' "$(count tests)" - - "$(count benchmark)" - -
