#!/usr/bin/env bash
# The benchmark's own gate: formatting, clippy with warnings denied, the
# unit tests of its arithmetic, and a short run of every workload both ways
# (4 s each; tails are not meaningful at that length, correctness is).
#
# Run from anywhere: benchmark/check.sh

set -euo pipefail
cd "$(dirname "$0")"

echo "== benchmark: formatting =="
cargo fmt -- --check

echo "== benchmark: clippy =="
cargo clippy --release --all-targets -- -D warnings

echo "== benchmark: unit tests =="
cargo test --release -q

echo "== benchmark: smoke run =="
cargo run --release -q -- all --smoke

echo "benchmark OK"
