#!/usr/bin/env bash
# Builds the benchmark package from source, then runs it; every argument goes
# to the program (see README.md). The build lands in $CARGO_TARGET_DIR when
# that is set and in benchmark/target otherwise. A failed build ends the
# script before any result is printed.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/volcanoml-benchmark" --home "$here" "$@"
