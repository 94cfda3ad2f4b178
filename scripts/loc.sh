#!/usr/bin/env sh
# Lines of Rust per crate, with tests/ and benchmark/ kept apart: the size
# number of north-star point 2 (ROADMAP item 11). Beside it, the crate's
# non-test lines: its lines outside unit-test modules. A unit-test module is
# everything from a `#[cfg(test)]` line directly followed by a `mod` line to
# the end of its file, which is where this workspace puts them. Then the
# crate's `pub fn` and `pub mod` lines: lines that begin, after indentation,
# with `pub fn ` or `pub mod `, outside unit-test modules;
# `pub(crate) fn` and `pub(crate) mod` do not count. Last, the crate's
# options: the `pub` fields of every `pub struct` whose name ends in `Config`
# or `Policy`, and of `Limits`, outside unit-test modules — the values a
# caller can set independently, which the simplicity guide counts before and
# after every change.
# Run from anywhere inside the repo.
cd "$(dirname "$0")/.." || exit 1
files() { find "$1" -name '*.rs' -not -path '*/target/*'; }
count() { files "$1" | xargs cat | wc -l; }
# non_test DIR: the lines of DIR outside unit-test modules (a module's
# `#[cfg(test)]` line counts as the module's).
non_test() {
    files "$1" | xargs awk '
        FNR == 1 { test = 0; cfg = -1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = FNR }
        FNR == cfg + 1 && /^[[:space:]]*mod / { test = 1; n-- }
        !test { n++ }
        END { print n + 0 }'
}
# pub_lines DIR KEYWORD: the `pub KEYWORD ` lines of DIR outside unit tests.
pub_lines() {
    files "$1" | xargs awk -v pat="^[[:space:]]*pub $2 " '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = FNR; next }
        FNR == cfg + 1 && /^[[:space:]]*mod / { test = 1 }
        !test && $0 ~ pat { n++ }
        END { print n + 0 }'
}
# options DIR: the `pub` fields of DIR's option structs outside unit tests.
options() {
    files "$1" | xargs awk '
        FNR == 1 { test = 0; cfg = -1; opt = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = FNR; next }
        FNR == cfg + 1 && /^[[:space:]]*mod / { test = 1 }
        test { next }
        /^[[:space:]]*pub struct ([A-Za-z0-9_]*(Config|Policy)|Limits)[[:space:]]*\{/ { opt = 1; next }
        opt && /^[[:space:]]*\}/ { opt = 0 }
        opt && /^[[:space:]]*pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }'
}
total=0 total_nt=0 total_fns=0 total_mods=0 total_opts=0
printf '%7s  %8s  %6s  %7s  %7s  %s\n' lines non-test pub-fn pub-mod options path
for dir in crates/* vendor/* src; do
    n=$(count "$dir") nt=$(non_test "$dir") fns=$(pub_lines "$dir" fn) mods=$(pub_lines "$dir" mod)
    opts=$(options "$dir")
    total=$((total + n)) total_nt=$((total_nt + nt)) total_fns=$((total_fns + fns))
    total_mods=$((total_mods + mods)) total_opts=$((total_opts + opts))
    printf '%7d  %8d  %6d  %7d  %7d  %s\n' "$n" "$nt" "$fns" "$mods" "$opts" "$dir"
done
printf '%7d  %8d  %6d  %7d  %7d  total (crates + src + vendor)\n' \
    "$total" "$total_nt" "$total_fns" "$total_mods" "$total_opts"
printf '%7d  %8s  %6s  %7s  %7s  tests\n%7d  %8s  %6s  %7s  %7s  benchmark\n' \
    "$(count tests)" - - - - "$(count benchmark)" - - - -
