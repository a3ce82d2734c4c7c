#!/usr/bin/env bash
# Build the service and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); results and spans go to .bench_out/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path ./Cargo.toml --bin stream-score >&2
cargo build --release --offline --quiet --manifest-path ./perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server-bin "$CARGO_TARGET_DIR/release/stream-score" "$@"
