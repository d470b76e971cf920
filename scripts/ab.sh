#!/usr/bin/env bash
# A/B of two commits on the benchmark, in interleaved pairs.
#
#   scripts/ab.sh [--pairs N] [--seconds S] [--base REV] [--head REV] [--workload W]...
#
# Defaults: 10 pairs of 20-second runs, base HEAD~1, head HEAD, every
# workload BENCHMARK.json declares (repeat --workload to pick some).
#
# Each side is built from `git archive REV` into its own directory under
# $TMPDIR, with its own cargo target dir, so the tracked
# benchmark/Cargo.lock is never rewritten. Pair i runs
# `benchmark/run.sh --workload W --seed i --seconds S --trace 0` on both
# sides back to back, base first in odd pairs and head first in even ones.
#
# Per workload it prints, for every end-to-end metric of BENCHMARK.json:
# each side's median and q1-q3 over the pairs, how many pairs head won
# (strictly better in the metric's direction), and the head/base ratio of
# the medians. Then whether final_test_loss, attempted and failed were
# identical in every pair. The raw result lines stay in the work directory,
# whose path is printed first.
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=10
seconds=20
base=HEAD~1
head=HEAD
workloads=()
usage="usage: scripts/ab.sh [--pairs N] [--seconds S] [--base REV] [--head REV] [--workload W]..."
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
    case "$1" in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --base) base=$2 ;;
        --head) head=$2 ;;
        --workload) workloads+=("$2") ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    shift 2
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "--pairs must be a positive integer" >&2; exit 2; }
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\([a-z0-9_]*\)".*/\1/p' BENCHMARK.json)
fi
# "name better" for each end-to-end metric.
metrics=$(sed -n '/"end_to_end"/,/"per_layer"/p' BENCHMARK.json \
    | awk -F'"' '/"name"/ { name = $4 } /"better"/ { print name, $4 }')

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "work dir: $work"
declare -A revs=([base]=$(git rev-parse --verify "$base^{commit}") [head]=$(git rev-parse --verify "$head^{commit}"))
for side in base head; do
    mkdir -p "$work/$side/src"
    git archive "${revs[$side]}" | tar -x -C "$work/$side/src"
    echo "building $side (${revs[$side]:0:10})" >&2
    cargo build --release --offline --quiet --manifest-path "$work/$side/src/benchmark/Cargo.toml" \
        --target-dir "$work/$side/target" >&2
done

# One run: its result line (the last line of standard output) goes to
# $work/runs as "side workload pair <json>". A failed output check still
# leaves a result line; a run that prints none is reported and skipped.
run() {
    local side=$1 w=$2 i=$3 line
    line=$(CARGO_TARGET_DIR="$work/$side/target" bash "$work/$side/src/benchmark/run.sh" \
        --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1) || true
    case "$line" in
        '{'*) echo "$side $w $i $line" >> "$work/runs" ;;
        *) echo "$side $w seed $i: no result line" >&2 ;;
    esac
}
for i in $(seq 1 "$pairs"); do
    for w in "${workloads[@]}"; do
        echo "pair $i/$pairs $w" >&2
        if [ $((i % 2)) -eq 1 ]; then run base "$w" "$i"; run head "$w" "$i"; else run head "$w" "$i"; run base "$w" "$i"; fi
    done
done

echo "base ${revs[base]:0:10}  head ${revs[head]:0:10}  pairs $pairs  seconds $seconds"
awk -v metrics="$metrics" '
    function quantile(list, q,    v, n, a, b, t, pos, lo) {
        n = split(list, v, " ")
        for (a = 2; a <= n; a++)
            for (b = a; b > 1 && v[b - 1] + 0 > v[b] + 0; b--) { t = v[b]; v[b] = v[b - 1]; v[b - 1] = t }
        pos = 1 + (n - 1) * q
        lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    BEGIN {
        n = split(metrics, m, "\n")
        for (k = 1; k <= n; k++) { split(m[k], f, " "); name[k] = f[1]; better[f[1]] = f[2] }
        nm = n
    }
    {
        side = $1; w = $2; i = $3
        if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
        pair[w, i] = 1
        line = $0
        if (match(line, /"attempted": [0-9]+/)) val[side, w, i, "attempted"] = substr(line, RSTART + 13, RLENGTH - 13)
        if (match(line, /"failed": [0-9]+/)) val[side, w, i, "failed"] = substr(line, RSTART + 10, RLENGTH - 10)
        for (k = 1; k <= nm; k++) {
            pat = "\"" name[k] "\": .\"value\": [-0-9.eE+]+"
            if (match(line, pat)) {
                s = substr(line, RSTART, RLENGTH)
                sub(/.*"value": /, "", s)
                val[side, w, i, name[k]] = s
            }
        }
    }
    END {
        for (o = 1; o <= nw; o++) {
            w = order[o]
            printf "\n== %s\n%-16s %28s %28s %6s %7s\n", w, "metric", "base median [q1-q3]", "head median [q1-q3]", "wins", "ratio"
            same = 1; npairs = 0
            for (key in pair) {
                split(key, kp, SUBSEP)
                if (kp[1] != w) continue
                i = kp[2]
                if (!((("base", w, i, "attempted") in val) && (("head", w, i, "attempted") in val))) continue
                npairs++
                for (c = 1; c <= 3; c++) {
                    field = c == 1 ? "final_test_loss" : c == 2 ? "attempted" : "failed"
                    if (val["base", w, i, field] != val["head", w, i, field]) same = 0
                }
            }
            for (k = 1; k <= nm; k++) {
                mname = name[k]; lb = ""; lh = ""; wins = 0; cnt = 0
                for (key in pair) {
                    split(key, kp, SUBSEP)
                    if (kp[1] != w) continue
                    i = kp[2]
                    if (!((("base", w, i, mname) in val) && (("head", w, i, mname) in val))) continue
                    b = val["base", w, i, mname] + 0; h = val["head", w, i, mname] + 0
                    lb = lb " " val["base", w, i, mname]; lh = lh " " val["head", w, i, mname]; cnt++
                    if ((better[mname] == "lower" && h < b) || (better[mname] == "higher" && h > b)) wins++
                }
                if (cnt == 0) continue
                mb = quantile(lb, 0.5); mh = quantile(lh, 0.5)
                printf "%-16s %10.5g [%7.5g-%7.5g] %10.5g [%7.5g-%7.5g] %3d/%-2d %7.3f\n", mname, \
                    mb, quantile(lb, 0.25), quantile(lb, 0.75), mh, quantile(lh, 0.25), quantile(lh, 0.75), \
                    wins, cnt, mb == 0 ? 0 : mh / mb
            }
            printf "final_test_loss, attempted and failed identical in every pair: %s (%d pairs)\n", same ? "yes" : "no", npairs
        }
    }' "$work/runs"
