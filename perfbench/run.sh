#!/usr/bin/env bash
# Build the release server and the benchmark client from this checkout,
# then run the client with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# `--workload all` runs every workload in turn and fails if any fails.
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin voxolap-server >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
bench=("$CARGO_TARGET_DIR/release/voxolap-perfbench"
    --server "$CARGO_TARGET_DIR/release/voxolap-server"
    --out-dir "$CARGO_TARGET_DIR/perfbench")
args=("$@")
for i in "${!args[@]}"; do
    if [[ ${args[i]} == --workload && ${args[i + 1]:-} == all ]]; then
        status=0
        for workload in session-repeat ingest-mixed; do
            args[i + 1]=$workload
            "${bench[@]}" "${args[@]}" || status=1
        done
        exit "$status"
    fi
done
exec "${bench[@]}" "$@"
