#!/usr/bin/env bash
# Flake hunt: runs the tier-1 suite N times (default 20) and stops at the
# first red run, leaving its output on screen. A suite that is green once
# but not N times has a scheduling- or state-dependent test in it.
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-20}"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
for i in $(seq 1 "$runs"); do
    if ! cargo test -q --workspace --offline >"$log" 2>&1; then
        cat "$log"
        echo "flake.sh: run $i/$runs failed"
        exit 1
    fi
    echo "flake.sh: run $i/$runs green"
done
echo "flake.sh: $runs/$runs green"
