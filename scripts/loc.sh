#!/usr/bin/env bash
# Non-test Rust line count: for every .rs file under a crate's src/, the lines
# above its first `#[cfg(test)]` (the whole file when it has none). Printed per
# crate, for crates/core/src + crates/bo/src (the figure simplicity PRs
# quote), and for crates/bench/benches so the weight of the bench tree shows
# next to src. Run from anywhere; takes an optional repo root (default: this
# repo).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }'
}

for src in crates/*/src; do
    printf '%6d  %s\n' "$(count "$src")" "$src"
done
printf '%6d  %s\n' "$(count crates/core/src crates/bo/src)" "crates/core/src + crates/bo/src"
printf '%6d  %s\n' "$(count crates/bench/benches)" "crates/bench/benches"
