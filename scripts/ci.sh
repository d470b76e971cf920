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

echo "== cargo test --release (volcanoml-bo golden digests) =="
# The surrogate's bit-for-bit contract must hold under optimisation too; tier-1 runs these in debug only.
cargo test -q --release --offline -p volcanoml-bo --lib golden

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

echo "== smoke: cost_aware bench (EI-per-second time-to-target gate) =="
# Deterministic synthetic costs, so the ratio is exact: cost-aware search
# must reach the target loss at no more total cost than cost-blind.
VOLCANO_QUICK=1 cargo bench --offline --bench cost_aware
python3 - results/BENCH_cost.json <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
r = b["cost_ratio"]
assert r <= 1.0, f"cost-aware time-to-target is {r:.2f}x cost-blind (> 1.0x)"
print(f"cost_aware smoke ok: {r:.2f}x cost-blind over {b['n_seeds']} seeds "
      f"(aware {b['cost_aware_total']:.0f}s vs blind {b['cost_blind_total']:.0f}s)")
EOF

echo "== smoke: space_growth bench (incremental space construction gate) =="
# Deterministic seeds: incremental construction must reach fixed-space
# quality within 1.05x the trials, and at least one expansion must have
# been journaled (the growth machinery actually engaged).
VOLCANO_QUICK=1 cargo bench --offline --bench space_growth
python3 - results/BENCH_space.json <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
r = b["incremental_ratio"]
assert r <= 1.05, f"incremental trials-to-target is {r:.2f}x fixed (> 1.05x)"
assert b["expansions_total"] >= 1, "no journaled expansion across the bench seeds"
assert b["stage0_vars"] < b["full_vars"], \
    f"stage-0 must be smaller: {b['stage0_vars']} vs {b['full_vars']}"
print(f"space_growth smoke ok: {r:.2f}x fixed over {b['n_seeds']} seeds, "
      f"{b['expansions_total']} expansions, "
      f"stage0 {b['stage0_vars']} vars vs full {b['full_vars']}")
EOF

echo "== smoke: micro_models histogram-kernel report =="
# Re-emits results/BENCH_models.json (exact vs histogram, kernel comparison).
cargo bench --offline --bench micro_models
python3 - results/BENCH_models.json <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
delta = abs(b["accuracy_delta"])
assert delta <= 0.01, f"histogram accuracy drifted {delta:.4f} from exact (> 0.01)"
ks = b["kernel_speedup"]
assert ks >= 1.0, f"flat kernel slower than the per-node baseline ({ks:.2f}x)"
print(f"micro_models smoke ok: kernel_speedup {ks:.2f}x on {b['n_cpus']} cpu(s), "
      f"accuracy_delta {b['accuracy_delta']:+.4f}")
EOF

# Joins a journal to a trace on `trial`: every journal row must have exactly
# one kind:"trial" span, and the two must agree on arm/digest/rung/bracket —
# both are written from the one record the evaluator builds per trial.
join_journal_to_trace() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
spans = {}
for line in open(sys.argv[2]):
    e = json.loads(line)
    if e["kind"] == "trial":
        spans.setdefault(e["trial"], []).append(e)
rows = [r for r in map(json.loads, open(sys.argv[1])) if "event" not in r]
assert rows, "journal has no trial rows"
for row in rows:
    matched = spans.get(row["trial"], [])
    assert len(matched) == 1, f"trial {row['trial']}: {len(matched)} trial spans"
    for key in ("arm", "digest", "rung", "bracket"):
        assert row[key] == matched[0][key], \
            f"trial {row['trial']}: {key} is {row[key]!r} in the journal, {matched[0][key]!r} in the trace"
assert len(spans) == len(rows), f"{len(spans)} trial spans for {len(rows)} journal rows"
tagged = sum(1 for r in rows if r["rung"] >= 0)
print(f"journal/trace join ok: {len(rows)} rows, {tagged} rung-tagged")
EOF
}

echo "== smoke: traced fit + report =="
SMOKE_DIR="$(mktemp -d)"
# Kill any background servers/streams on the way out so a failed assertion
# can't leave a daemon spinning (or holding CI's stdout pipe open).
trap 'kill -9 $(jobs -p) 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
VOLCANOML=target/release/volcanoml
"$VOLCANOML" generate moons "$SMOKE_DIR/data.csv" --seed 7
"$VOLCANOML" fit "$SMOKE_DIR/data.csv" --evals 10 --tier small --workers 4 \
    --journal "$SMOKE_DIR/trials.jsonl" --trace "$SMOKE_DIR/trace.jsonl" \
    --metrics "$SMOKE_DIR/metrics.json"
"$VOLCANOML" report "$SMOKE_DIR/trace.jsonl" \
    --journal "$SMOKE_DIR/trials.jsonl" --metrics "$SMOKE_DIR/metrics.json"
join_journal_to_trace "$SMOKE_DIR/trials.jsonl" "$SMOKE_DIR/trace.jsonl"
# The zero-copy trial path must actually engage: full-view borrows show up
# as skipped gathers in the metrics snapshot.
python3 - "$SMOKE_DIR/metrics.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
skipped = counters.get("data.gathers_skipped", 0)
assert skipped > 0, f"expected data.gathers_skipped > 0, got {skipped}"
print(f"zero-copy smoke ok: {skipped} gathers skipped, "
      f"{counters.get('data.bytes_gathered', 0)} bytes gathered")
EOF

echo "== smoke: incremental space construction (--space incremental) =="
# A permissive threshold so the plateau fires within the tiny budget; the
# journal must hold at least one expansion row and the report must render
# the growth timeline.
"$VOLCANOML" fit "$SMOKE_DIR/data.csv" --evals 24 --tier small --space incremental:10 \
    --journal "$SMOKE_DIR/grow.jsonl" --trace "$SMOKE_DIR/grow_trace.jsonl"
grep -q '"event":"expansion"' "$SMOKE_DIR/grow.jsonl" \
    || { echo "no journaled expansion in incremental fit"; exit 1; }
"$VOLCANOML" report "$SMOKE_DIR/grow_trace.jsonl" --journal "$SMOKE_DIR/grow.jsonl" \
    | grep -q "Space growth" \
    || { echo "report missing the space-growth section"; exit 1; }
echo "incremental smoke ok: journaled expansion present, report renders growth timeline"

echo "== smoke: pooled multi-fidelity fit (mfes-hb, 4 workers) =="
# Regression gate for the suggest_batch fallback: a pooled MFES-HB run must
# exercise at least two distinct sub-1.0 fidelities (the broken batch path
# collapsed every slot after the first to a random full-fidelity draw).
"$VOLCANOML" fit "$SMOKE_DIR/data.csv" --evals 24 --tier small \
    --engine mfes-hb --workers 4 --journal "$SMOKE_DIR/mfes.jsonl" \
    --trace "$SMOKE_DIR/mfes_trace.jsonl"
# The pooled bracket run is the one with real rung tags to compare.
join_journal_to_trace "$SMOKE_DIR/mfes.jsonl" "$SMOKE_DIR/mfes_trace.jsonl"
python3 - "$SMOKE_DIR/mfes.jsonl" <<'EOF'
import json, sys
sub_full = set()
rung_tagged = 0
for line in open(sys.argv[1]):
    row = json.loads(line)
    f = row["fidelity"]
    if isinstance(f, (int, float)) and f < 1.0 - 1e-9:
        sub_full.add(round(f, 6))
    if row.get("rung", -1) >= 0:
        rung_tagged += 1
assert len(sub_full) >= 2, f"expected >=2 distinct sub-1.0 fidelities, got {sorted(sub_full)}"
assert rung_tagged > 0, "no rung/bracket attribution in the journal"
print(f"mfes-hb smoke ok: sub-1.0 fidelities {sorted(sub_full)}, {rung_tagged} rung-tagged trials")
EOF

echo "== smoke: pooled CV fit (each fold a pool job) =="
# A CV trial's folds run as separate pool jobs: both workers must have been
# billed for fold time, and the journal must still hold one row per trial.
"$VOLCANOML" fit "$SMOKE_DIR/data.csv" --evals 24 --tier small --engine mfes-hb --cv 3 \
    --workers 2 --journal "$SMOKE_DIR/cv.jsonl" --trace "$SMOKE_DIR/cv_trace.jsonl" \
    --metrics "$SMOKE_DIR/cv_metrics.json"
join_journal_to_trace "$SMOKE_DIR/cv.jsonl" "$SMOKE_DIR/cv_trace.jsonl"
python3 - "$SMOKE_DIR/cv.jsonl" "$SMOKE_DIR/cv_metrics.json" <<'EOF'
import json, sys
rows = [r for r in map(json.loads, open(sys.argv[1])) if "event" not in r]
m = json.load(open(sys.argv[2]))
busy = [m["gauges"].get(f"worker.{w}.busy_s", 0.0) for w in (0, 1)]
assert all(b > 0 for b in busy), f"a worker ran no fold: busy_s {busy}"
trials = m["counters"]["trial.total"]
assert len(rows) == trials, f"{len(rows)} journal rows for {trials} trials"
assert len({r["trial"] for r in rows}) == len(rows), "duplicate trial ids"
print(f"pooled CV smoke ok: {len(rows)} rows, worker busy_s {busy[0]:.3f}/{busy[1]:.3f}")
EOF

echo "== smoke: serve crash-resume (kill -9, restart --resume) =="
SERVE_DIR="$SMOKE_DIR/serve"
"$VOLCANOML" serve --dir "$SERVE_DIR" --port 0 --workers 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SERVE_DIR/serve.addr" ] && break
    sleep 0.1
done
ADDR="$(cat "$SERVE_DIR/serve.addr")"
# Submit a study and wait until its journal holds a few rows, then kill -9
# mid-run: the restarted server must resume it from the journal alone.
python3 - "$ADDR" <<'EOF'
import http.client, json, sys
c = http.client.HTTPConnection(sys.argv[1], timeout=10)
c.request("POST", "/studies", json.dumps({
    "name": "smoke", "dataset": "moons", "engine": "mfes-hb",
    "max_evaluations": 80, "seed": 11}))
r = c.getresponse()
assert r.status == 201, (r.status, r.read())
EOF
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
    [ -f "$SERVE_DIR/smoke/result.json" ] && break
    sleep 0.1
done
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
# The resumed study must complete with unique trial ids and a best loss
# that only ever improves along the journal.
python3 - "$SERVE_DIR/smoke" <<'EOF'
import json, sys
d = sys.argv[1]
result = json.load(open(f"{d}/result.json"))
assert result["status"] == "done", result
ids, best, best_seen = [], float("inf"), []
for line in open(f"{d}/journal.jsonl"):
    row = json.loads(line)
    ids.append(row["trial"])
    loss = row["loss"]
    if isinstance(loss, (int, float)) and row["fidelity"] >= 1.0 - 1e-9:
        best = min(best, loss)
        best_seen.append(best)
assert len(ids) == len(set(ids)), "duplicate trial ids after crash-resume"
assert all(a >= b for a, b in zip(best_seen, best_seen[1:])), "best loss regressed"
print(f"crash-resume smoke ok: {len(ids)} trials, unique ids, best loss {best:.4f}")
EOF

echo "== smoke: cost-aware study via serve (objective loss_and_cost) =="
COST_DIR="$SMOKE_DIR/costserve"
"$VOLCANOML" serve --dir "$COST_DIR" --port 0 --workers 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$COST_DIR/serve.addr" ] && break
    sleep 0.1
done
ADDR="$(cat "$COST_DIR/serve.addr")"
curl -fsS -X POST "http://$ADDR/studies" -d \
    '{"name":"costaware","dataset":"moons","engine":"bo","max_evaluations":12,"seed":5,"cost_aware":true,"objective":"loss_and_cost","latency_weight":50.0}' \
    >/dev/null
for _ in $(seq 1 600); do
    [ -f "$COST_DIR/costaware/result.json" ] && break
    sleep 0.1
done
[ -f "$COST_DIR/costaware/result.json" ] || { echo "cost-aware study did not finish"; exit 1; }
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
# The spec must round-trip the cost fields (they drive resume), the study
# must complete, and every fresh journal row must carry a real cost the
# cost model can learn from.
python3 - "$COST_DIR/costaware" <<'EOF'
import json, sys
d = sys.argv[1]
spec = json.load(open(f"{d}/spec.json"))
assert spec.get("cost_aware") is True, spec
assert spec.get("objective") == "loss_and_cost", spec
assert spec.get("latency_weight") == 50.0, spec
result = json.load(open(f"{d}/result.json"))
assert result["status"] == "done", result
costs = [row["cost"] for row in map(json.loads, open(f"{d}/journal.jsonl"))]
assert any(c > 0 for c in costs), "no journal row recorded a positive trial cost"
print(f"cost-aware serve smoke ok: {len(costs)} trials, best loss {result['best_loss']:.4f}")
EOF

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
python3 - "$SMOKE_DIR/obs_data.csv" <<'EOF'
import random, sys
rng = random.Random(13)
with open(sys.argv[1], "w") as f:
    cols = [f"f{i}" for i in range(12)]
    f.write("#types:" + ",".join(["n"] * 12) + ",label\n")
    f.write(",".join(cols) + ",target\n")
    for _ in range(8000):
        y = rng.randint(0, 1)
        row = [rng.gauss(0.9 if (y and i < 6) else 0.0, 1.0) for i in range(12)]
        f.write(",".join(f"{v:.6f}" for v in row) + f",{y}\n")
EOF
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
python3 - "$SMOKE_DIR/obs_scrape.txt" <<'EOF'
import re, sys
line_re = re.compile(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$')
trials = 0.0
names = set()
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line or line.startswith("#"):
        continue
    assert line_re.match(line), f"invalid exposition line: {line!r}"
    name = line.split("{")[0].split(" ")[0]
    names.add(name)
    if line.startswith('volcanoml_trial_total{study="obs"}'):
        trials = float(line.rsplit(" ", 1)[1])
assert trials > 0, "mid-run scrape shows no finished trials for study obs"
for want in ("volcanoml_serve_pool_workers", "volcanoml_serve_uptime_seconds",
             "volcanoml_http_requests_total"):
    assert want in names, f"scrape missing {want}"
print(f"observability scrape ok: {trials:.0f} trials mid-run, {len(names)} series families")
EOF
for _ in $(seq 1 1200); do
    [ -f "$OBS_DIR/obs/result.json" ] && break
    sleep 0.1
done
[ -f "$OBS_DIR/obs/result.json" ] || { echo "observability study did not finish"; exit 1; }
wait "$CURL_PID" 2>/dev/null || true
grep -q "event: StudyDone" "$STREAM" || { echo "stream missed terminal StudyDone"; exit 1; }
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
# The observability plane must prove its own cost: time spent recording
# metrics/traces/events stays within ~1% of total trial wall time.
python3 - "$OBS_DIR/obs/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
overhead = m["histograms"]["obs.self_overhead_s"]["sum"]
total = m["gauges"]["run.total_cost_s"]
assert total > 0, f"no trial time recorded: {total}"
budget = max(0.01 * total, 0.002)  # 1%, with a tiny floor for sub-second runs
assert overhead <= budget, \
    f"observability overhead {overhead * 1e3:.3f}ms exceeds budget {budget * 1e3:.3f}ms ({total:.3f}s of trials)"
print(f"overhead smoke ok: {overhead * 1e3:.3f}ms of accounting over {total:.3f}s of trials "
      f"({100 * overhead / total:.3f}%)")
EOF

echo "== non-test line count =="
scripts/loc.sh

echo "CI checks passed."
