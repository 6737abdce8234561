#!/usr/bin/env bash
# Build the release `ccq` binary and the benchmark crate (offline), then run
# the benchmark. With arguments they go to ccq-benchmark as they are — this
# is the command BENCHMARK.json names; without, it runs `run` then `trace`.
# Run it from the repository root.
set -euo pipefail

cargo build --release --offline --bin ccq
cargo build --release --offline --manifest-path benchmark/Cargo.toml

export CCQ_BIN="${CARGO_TARGET_DIR:-target}/release/ccq"
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/ccq-benchmark"

if [ "$#" -gt 0 ]; then
    exec "$bench" "$@"
fi
"$bench" run
"$bench" trace
