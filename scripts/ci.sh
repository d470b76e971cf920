#!/usr/bin/env bash
# The repository's CI gate, runnable locally. The workspace is hermetic
# (no crates.io dependencies), so everything runs with --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no mutable process-global state =="
# Counters belong to the run: a `static` atomic or lock is read by every
# study in the process. The thread-locals and the one immutable `OnceLock`
# (the CPU count) do not match this pattern.
if grep -rnE 'static +(mut +)?[A-Z_]+ *: *(Atomic|Mutex|RwLock)' crates/*/src; then
    echo "process-global mutable static found (see above)"
    exit 1
fi

echo "== cargo build (release) =="
cargo build --release --workspace --offline

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== scripts parse =="
bash -n scripts/ab.sh

echo "== cargo test --release (bitwise pins: bo and tree goldens, kernel parity, trial_path, resume_replay, surrogate work, co-tenant, serve/fit parity) =="
# The surrogate's bit-for-bit contract, the histogram-tree goldens and
# kernel-parity tests, and the StudyState pins must hold under optimisation
# too; tier-1 runs these in debug only.
cargo test -q --release --offline -p volcanoml-bo --lib golden
cargo test -q --release --offline -p volcanoml-models --lib -- \
    hist_goldens kernels_are_bitwise_identical u8_and_u16_codes_grow_identical_trees \
    feature_parallel_fill_is_bitwise_identical touched_bins_and_runs_walk_exactly_the_set
cargo test -q --release --offline -p volcanoml-integration --test trial_path --test resume_replay
cargo test -q --release --offline -p volcanoml-integration --test run_counters \
    joint_bo_surrogate_work_is_pinned
cargo test -q --release --offline -p volcanoml-integration --test exec_engine \
    co_tenant_fits_on_a_shared_pool_match_their_solo_runs
cargo test -q --release --offline -p volcanoml-serve --lib serve_and_fit_run_the_same_search

echo "== cargo test (benchmark/: its own workspace, path-deps on crates/) =="
# The harness only touches the workspace through benchmark/src/layers.rs; a
# workspace API change that breaks it would otherwise leave tier-1 green.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== cargo clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "clippy not installed; skipping lint step"
fi

echo "== cargo bench --no-run (compile-check every bench) =="
cargo bench --no-run --offline

echo "== smoke: micro_models histogram-kernel report =="
# Re-emits results/BENCH_models.json (exact vs histogram, kernel comparison)
# and fails on its own gates: |accuracy_delta| <= 0.01, kernel_speedup >= 1.0.
cargo bench --offline --bench micro_models

echo "== smoke: traced fit + report =="
# The CLI smokes assert no more than "it runs, and report renders": what they
# once checked beyond that is tier-1 — the journal/trace join
# (observability::every_journal_row_joins_exactly_one_trial_span,
# trial_records), zero-copy gathers (zero_copy), --space incremental
# (automl::tests::incremental_space_expands_and_is_deterministic,
# report::tests::space_growth_section_renders_timeline_and_stage_counts,
# resume_replay), the pooled mfes-hb fidelity mix
# (multifidelity_pool::pooled_mfes_hb_exercises_sub_full_fidelities) and
# pooled-CV billing (exec_engine::pooled_cv_fit_bills_each_fold_to_the_worker_that_ran_it).
SMOKE_DIR="$(mktemp -d)"
# Kill any background servers/streams on the way out so a failed assertion
# can't leave a daemon spinning (or holding CI's stdout pipe open).
trap 'kill -9 $(jobs -p) 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
VOLCANOML=target/release/volcanoml
"$VOLCANOML" generate moons "$SMOKE_DIR/data.csv" --seed 7
"$VOLCANOML" fit "$SMOKE_DIR/data.csv" --max-evaluations 10 --tier small --workers 4 \
    --journal "$SMOKE_DIR/trials.jsonl" --trace "$SMOKE_DIR/trace.jsonl" \
    --metrics "$SMOKE_DIR/metrics.json"
"$VOLCANOML" report "$SMOKE_DIR/trace.jsonl" \
    --journal "$SMOKE_DIR/trials.jsonl" --metrics "$SMOKE_DIR/metrics.json"
# A flag that is not a spec field fails before any trial, naming the flag.
if ERR=$("$VOLCANOML" fit "$SMOKE_DIR/data.csv" --evals 10 2>&1); then
    echo "fit accepted the unknown flag --evals"; exit 1
fi
grep -q '"evals"' <<<"$ERR" || { echo "the error does not name evals: $ERR"; exit 1; }

echo "== smoke: serve crash-resume (kill -9, restart --resume) =="
SERVE_DIR="$SMOKE_DIR/serve"
"$VOLCANOML" serve --dir "$SERVE_DIR" --port 0 --workers 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SERVE_DIR/serve.addr" ] && break
    sleep 0.1
done
ADDR="$(cat "$SERVE_DIR/serve.addr")"
# Two studies, one cost-aware. Once the first has journaled a few rows,
# kill -9 mid-run: the restarted server must finish both from their journals.
curl -fsS -X POST "http://$ADDR/studies" -d \
    '{"name":"smoke","dataset":"moons","engine":"mfes-hb","max_evaluations":80,"seed":11}' \
    >/dev/null
curl -fsS -X POST "http://$ADDR/studies" -d \
    '{"name":"costaware","dataset":"moons","engine":"bo","max_evaluations":12,"seed":5,"cost_aware":true,"objective":"loss_and_cost","latency_weight":50.0}' \
    >/dev/null
JOURNAL="$SERVE_DIR/smoke/journal.jsonl"
for _ in $(seq 1 300); do
    ROWS=$(grep -c '"schema"' "$JOURNAL" 2>/dev/null || true)
    [ "${ROWS:-0}" -ge 3 ] && break
    sleep 0.1
done
[ "${ROWS:-0}" -ge 3 ] || { echo "study never journaled rows"; exit 1; }
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
[ ! -f "$SERVE_DIR/smoke/result.json" ] || { echo "kill -9 arrived too late (study already finished); tune the smoke"; exit 1; }
"$VOLCANOML" serve --dir "$SERVE_DIR" --port 0 --workers 2 --resume &
SERVE_PID=$!
for _ in $(seq 1 600); do
    [ -f "$SERVE_DIR/smoke/result.json" ] && [ -f "$SERVE_DIR/costaware/result.json" ] && break
    sleep 0.1
done
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
# Both studies finish with unique trial ids; the cost-aware spec keeps the
# cost fields that drive its resume, and its journal rows carry real costs.
for name in smoke costaware; do
    grep -q '"status":"done"' "$SERVE_DIR/$name/result.json" \
        || { echo "$name: $(cat "$SERVE_DIR/$name/result.json")"; exit 1; }
    JOURNAL="$SERVE_DIR/$name/journal.jsonl"
    DUPES=$(grep -o '^{"schema":[0-9]*,"trial":[0-9]*,' "$JOURNAL" | sort | uniq -d)
    [ -z "$DUPES" ] || { echo "$name: duplicate trial ids after crash-resume: $DUPES"; exit 1; }
    echo "crash-resume smoke ok: $name, $(grep -c '"worker":' "$JOURNAL") trials"
done
for field in '"cost_aware":true' '"objective":"loss_and_cost"' '"latency_weight":50[,}]'; do
    grep -qE "$field" "$SERVE_DIR/costaware/spec.json" \
        || { echo "cost-aware spec lost $field: $(cat "$SERVE_DIR/costaware/spec.json")"; exit 1; }
done
grep -qE '"cost":(0\.[0-9]*[1-9]|[1-9])' "$SERVE_DIR/costaware/journal.jsonl" \
    || { echo "no cost-aware journal row has a positive cost"; exit 1; }

echo "== smoke: live observability (/metrics scrape + SSE stream mid-run) =="
OBS_DIR="$SMOKE_DIR/obsserve"
"$VOLCANOML" serve --dir "$OBS_DIR" --port 0 --workers 2 --log-requests &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$OBS_DIR/serve.addr" ] && break
    sleep 0.1
done
ADDR="$(cat "$OBS_DIR/serve.addr")"
# mfes-hb like the crash-resume smoke: long enough for a mid-run window.
# (Any engine terminates now even when the tier's distinct-config space is
# smaller than the budget — the evaluator's cached-saturation guard ends
# exhausted searches; see exhausted_tiny_space_terminates_instead_of_spinning.)
# An 8000-row dataset (vs the 500-row synthetic toys) keeps per-trial cost
# well above the fixed per-trial recording cost, so the 1% overhead gate
# below measures a real ratio instead of noise around sub-millisecond trials.
# 8000 rows x 12 gaussian features; features 0-5 shift by 0.9 when the
# label is 1 (Box-Muller normals from awk's seeded rand()).
awk 'BEGIN {
    srand(13)
    printf "#types:"; for (i = 0; i < 12; i++) printf "n,"; print "label"
    for (i = 0; i < 12; i++) printf "f%d,", i; print "target"
    for (r = 0; r < 8000; r++) {
        y = int(rand() * 2)
        for (i = 0; i < 12; i++) {
            g = sqrt(-2 * log(1 - rand())) * cos(6.283185307179586 * rand())
            printf "%.6f,", g + ((y && i < 6) ? 0.9 : 0)
        }
        print y
    }
}' > "$SMOKE_DIR/obs_data.csv"
curl -fsS -X POST "http://$ADDR/studies" -d \
    "{\"name\":\"obs\",\"csv\":\"$SMOKE_DIR/obs_data.csv\",\"engine\":\"mfes-hb\",\"max_evaluations\":60,\"seed\":13}" \
    >/dev/null
# Stream the study's event feed in the background while it runs.
STREAM="$SMOKE_DIR/obs_events.txt"
curl -sN --max-time 120 "http://$ADDR/studies/obs/events" > "$STREAM" &
CURL_PID=$!
# Mid-run: the stream must yield at least one TrialFinished BEFORE the study
# writes its terminal result.json.
TRIAL_SEEN=0
for _ in $(seq 1 600); do
    if grep -q "event: TrialFinished" "$STREAM" 2>/dev/null; then
        [ ! -f "$OBS_DIR/obs/result.json" ] && TRIAL_SEEN=1
        break
    fi
    sleep 0.05
done
[ "$TRIAL_SEEN" -eq 1 ] || { echo "stream yielded no TrialFinished before completion"; exit 1; }
# Mid-run scrape: must be valid Prometheus exposition with live trial counters.
curl -fsS "http://$ADDR/metrics" > "$SMOKE_DIR/obs_scrape.txt"
SCRAPE="$SMOKE_DIR/obs_scrape.txt"
BAD=$(grep -vE '^(#|$)' "$SCRAPE" \
    | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$' || true)
[ -z "$BAD" ] || { echo "invalid exposition line: $BAD"; exit 1; }
TRIALS=$(awk 'index($0, "volcanoml_trial_total{study=\"obs\"} ") == 1 { n = $NF } END { print n + 0 }' "$SCRAPE")
awk -v n="$TRIALS" 'BEGIN { exit !(n > 0) }' \
    || { echo "mid-run scrape shows no finished trials for study obs"; exit 1; }
for want in volcanoml_serve_pool_workers volcanoml_serve_uptime_seconds volcanoml_http_requests_total; do
    grep -qE "^$want(\{| )" "$SCRAPE" || { echo "scrape missing $want"; exit 1; }
done
echo "observability scrape ok: $TRIALS trials mid-run"
for _ in $(seq 1 1200); do
    [ -f "$OBS_DIR/obs/result.json" ] && break
    sleep 0.1
done
[ -f "$OBS_DIR/obs/result.json" ] || { echo "observability study did not finish"; exit 1; }
wait "$CURL_PID" 2>/dev/null || true
grep -q "event: StudyDone" "$STREAM" || { echo "stream missed terminal StudyDone"; exit 1; }
# Final scrape, taken while the server is still up: the finished study's
# registry holds the totals the overhead gate below reads.
curl -fsS "http://$ADDR/metrics" > "$SMOKE_DIR/obs_final.txt"
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
# The observability plane must prove its own cost: time spent recording
# metrics/traces/events stays within ~1% of total trial wall time.
awk '
    index($0, "volcanoml_obs_self_overhead_s_sum{study=\"obs\"} ") == 1 { overhead = $NF }
    index($0, "volcanoml_run_total_cost_s{study=\"obs\"} ") == 1 { total = $NF }
    END {
        num = "^[-+]?([0-9.]+|Inf)$"  # a missing series or NaN fails, as in the checks below
        if (overhead !~ num || total !~ num) {
            print "scrape lacks obs.self_overhead_s or run.total_cost_s for study obs"
            exit 1
        }
        overhead += 0; total += 0
        if (!(total > 0)) { print "no trial time recorded: " total; exit 1 }
        budget = 0.01 * total  # 1%, with a tiny floor for sub-second runs
        if (budget < 0.002) budget = 0.002
        if (!(overhead <= budget)) {
            printf "observability overhead %.3fms exceeds budget %.3fms (%.3fs of trials)\n", \
                overhead * 1e3, budget * 1e3, total
            exit 1
        }
        printf "overhead smoke ok: %.3fms of accounting over %.3fs of trials (%.3f%%)\n", \
            overhead * 1e3, total, 100 * overhead / total
    }' "$SMOKE_DIR/obs_final.txt"

echo "== non-test line count =="
scripts/loc.sh

echo "CI checks passed."
