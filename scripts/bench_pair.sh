#!/usr/bin/env bash
# Alternating parent-vs-change runs of one benchmark workload, the procedure
# of the choosing-metrics guide, section 8:
#   scripts/bench_pair.sh WORKLOAD|all [PAIRS=10] [REF=HEAD]
# Builds the benchmark of REF (from a `git archive` copy) and of the working tree
# into separate target dirs under .bench_build/pair, runs PAIRS pairs (the
# seed is the pair number, which side goes first alternates) and prints per
# end-to-end metric both sides' median [quartiles], the pairs each won and the
# guide's verdict: `gain` (work won >= 9/10 of the pairs and the medians are
# further apart than ref's interquartile distance), `regression beyond bound`
# (work's median worse than ref's by more than the metric's BENCHMARK.json
# bound), `unresolved` (either side's interquartile distance is wider than that
# bound and the two sides' runs overlap) or `flat`.
# `all` runs every workload of BENCHMARK.json on the one build: a markdown table.
set -euo pipefail
cd "$(dirname "$0")/.."
workloads=${1:?usage: scripts/bench_pair.sh WORKLOAD|all [PAIRS=10] [REF=HEAD]}
pairs=${2:-10} ref=${3:-HEAD} root=$PWD dir=$PWD/.bench_build/pair
seconds=$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' BENCHMARK.json)
echo "$workloads: $pairs pairs, ref = $ref ($(git rev-parse --short "$ref")), work = working tree"
row='%-16s ref %-30s work %-30s pairs won: work %d, ref %d (%s is better): %s\n'
if [[ $workloads == all ]]; then
    workloads=$(awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
        on && /"name"/ { gsub(/[",]/, ""); print $2 }' BENCHMARK.json)
    row='| `%s` | %s | %s | work %d, ref %d (%s) | %s |\n'
    printf '%s\n' '| workload, metric | ref median [q1, q3] | work median [q1, q3] | pairs won | verdict |' '|---|---|---|---|---|'
fi
rm -rf "$dir/ref" && mkdir -p "$dir/ref" && git archive "$ref" | tar -x -C "$dir/ref"

declare -A tree=([ref]=$dir/ref [work]=$root)
for side in ref work; do
    (cd "${tree[$side]}" && CARGO_TARGET_DIR=$dir/target-$side \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done
run_pairs() {
    rm -f "$dir"/*.runs
    for pair in $(seq 1 "$pairs"); do
        if ((pair % 2)); then order="ref work"; else order="work ref"; fi
        for side in $order; do
            (cd "${tree[$side]}" && "$dir/target-$side/release/restore-benchmark" --workload "$workload" \
                --seed "$pair" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) >>"$dir/$side.runs"
        done
        echo "$workload: pair $pair/$pairs done ($order)" >&2
    done
    if grep -hv '"correct":true,"attempted":[0-9]*,"failed":0,' "$dir"/*.runs; then
        echo "the runs above were not correct or had failed requests" >&2
        exit 1
    fi
}

values() { sed -E "s/.*\"$2\":\{\"value\":([^,}]+).*/\1/" "$dir/$1.runs"; }
summary() {
    sort -g | awk 'function ceil(x) { return int(x) + (x > int(x)) }
        { v[NR] = $1 }
        END { printf "%.5g [%.5g, %.5g]", (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2,
              v[ceil(NR / 4)], v[ceil(3 * NR / 4)] }'
}
for workload in $workloads; do
    run_pairs
    awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
        on && /"name"/ { gsub(/[",]/, ""); name = $2 }
        on && /"better"/ { gsub(/[",]/, ""); better = $2 }
        on && /"bound"/ { print name, better, $2 + 0 }' BENCHMARK.json |
        while read -r metric better bound; do
            read -r won_work won_ref verdict < <(paste <(values ref "$metric") <(values work "$metric") \
                <(values ref "$metric" | sort -g) <(values work "$metric" | sort -g) |
                awk -v better="$better" -v bound="$bound" '
                function ceil(x) { return int(x) + (x > int(x)) }
                function med(v) { return (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2 }
                function iqd(v) { return v[ceil(3 * NR / 4)] - v[ceil(NR / 4)] }
                { d = (better == "higher") ? $2 - $1 : $1 - $2; if (d > 0) work++; else if (d < 0) ref++
                  r[NR] = $3; w[NR] = $4 }
                END { gap = (better == "higher") ? med(w) - med(r) : med(r) - med(w)
                  apart = (better == "higher") ? w[1] > r[NR] : w[NR] < r[1]
                  spread = iqd(r) > iqd(w) ? iqd(r) : iqd(w)
                  if (work >= 0.9 * NR && gap > iqd(r)) verdict = "gain"
                  else if (-gap > bound * med(r)) verdict = "regression beyond bound"
                  else if (spread > bound * med(r) && !apart) verdict = "unresolved"
                  else verdict = "flat"
                  print work + 0, ref + 0, verdict }')
            # shellcheck disable=SC2059
            printf "$row" "$workload $metric" "$(values ref "$metric" | summary)" \
                "$(values work "$metric" | summary)" "$won_work" "$won_ref" "$better" "$verdict"
        done
done
