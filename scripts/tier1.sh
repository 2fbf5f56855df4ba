#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green.
#
#   release build  →  fmt, clippy, docs  →  full test suite  →  every
#   example runs  →  float-bit pins in release  →  low-memory batteries  →
#   benchmark smoke
#   (`benchmark all --smoke`: the correctness gate on all four workloads,
#   traced and untraced; a failed gate fails tier-1)  →  bare `repro`
#   compared byte-for-byte with docs/repro_output.txt  →  audit  →  surface
#   report
#
# Run from the repository root: ./scripts/tier1.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release --workspace

echo "== tier-1: formatting =="
cargo fmt --all -- --check

echo "== tier-1: clippy =="
cargo clippy --workspace -- -D warnings

echo "== tier-1: docs (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: tests =="
cargo test -q --workspace

# `cargo test` only compiles the examples; run each so one that panics at
# runtime fails the gate.
echo "== tier-1: examples run to completion (output discarded) =="
for example in examples/*.rs; do
  cargo run -q --release -p mvdesign --example "$(basename "$example" .rs)" > /dev/null
done

# The golden designs and the incremental evaluator are pinned to the f64
# bit, the golden routes byte for byte; the pins must hold with the
# optimiser on too. So must the
# benchmark's `period_io_blocks` (tests/simulation.rs pins the number), in
# the build the benchmark measures.
echo "== tier-1: float-bit and block-count pins under optimisation =="
cargo test -q --release -p mvdesign --test designer_golden
cargo test -q --release -p mvdesign --test route_golden
cargo test -q --release -p mvdesign --test incremental_eval
cargo test -q --release -p mvdesign --test simulation

echo "== tier-1: low-memory batteries (forced eviction + spill) =="
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test engine_batch
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test engine_paged
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test engine_delta
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test maintain
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test view_rewrite
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test result_cache
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign-serve --test serve

# 256 bytes spills every keyed operator and no budget spills none; 64 KiB is
# the mixed regime the state-sized spill rule creates, where some operators
# spill and others do not (the held-bytes oracle checks both kinds). The
# routed γ-over-join plans of roll-up views run there too.
echo "== tier-1: mixed-spill batteries (64 KiB operator budget) =="
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test engine_batch
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test engine_paged
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test engine_delta
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test view_rewrite
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test result_cache

# benchmark/ is a package outside the workspace: nothing above compiles it,
# so an API change could break it with every other step green. Its smoke
# builds it and runs every workload's correctness gate before its timing.
echo "== tier-1: benchmark smoke (all four workloads, untraced + traced, 4 s each) =="
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --smoke

echo "== tier-1: paper artifacts are digit-identical (bare repro vs docs/repro_output.txt) =="
cmp <(cargo run --release -p mvdesign-bench --bin repro) docs/repro_output.txt

echo "== tier-1: correctness audit =="
cargo run --release -p mvdesign-bench --bin repro -- audit > /dev/null

echo "== tier-1: surface report (printed for the trend, never gated) =="
rust_lines() { find "$@" -name '*.rs' -exec cat {} + | wc -l; }
for crate in crates/*/; do
  items=$(grep -rhE '^\s*pub (const )?(fn|struct|enum|trait|const|type) ' "$crate/src" \
    --include='*.rs' | wc -l || true)
  printf '%-12s %6d lines %4d pub items\n' "$(basename "$crate")" "$(rust_lines "$crate/src")" "$items"
done
printf '%-12s %6d lines\n' "vendor/" "$(rust_lines vendor)"
printf '%-12s %6d lines (every .rs under crates/)\n' "workspace" "$(rust_lines crates)"
printf '%-12s %6d lines (every .rs under tests/)\n' "tests/" "$(rust_lines tests)"
printf '%-12s %6d `pub parallelism` fields (thread-count knobs)\n' "knobs" \
  "$(grep -rhE '^\s*pub parallelism:' crates --include='*.rs' | wc -l)"
printf '%-12s %6d public fields of `ExecContext` (should read 1: `mem_budget`)\n' "" \
  "$(sed -n '/^pub struct ExecContext {/,/^}/p' crates/engine/src/exec/mod.rs | grep -cE '^\s+pub ' || true)"
printf '%-12s %6d `thread::` under crates/engine/src (should read 0: cores go per query, not per kernel)\n' "" \
  "$(grep -rhoF 'thread::' crates/engine/src --include='*.rs' | wc -l || true)"
printf '%-12s %6d `HashMap<i64, Vec<usize>>` under crates/engine (per-key match lists; one chain table instead)\n' \
  "hash builds" "$(grep -rhoF 'HashMap<i64, Vec<usize>>' crates/engine --include='*.rs' | wc -l || true)"
printf '%-12s %6d `BTreeMap<Vec<Value>`/`HashMap<Vec<Value>` under crates/engine/src (row-keyed maps; should read 0: keys are one i64 per row)\n' \
  "row maps" "$(grep -rhoE '(BTreeMap|HashMap)<Vec<Value>' crates/engine/src --include='*.rs' | wc -l || true)"
printf '%-12s %6d `Resident`/`make_resident`/`page_out_resident` under crates/ outside crates/engine/src/storage/ (should read 0: only the storage layer knows where a page lives)\n' \
  "residency" "$(grep -rnoE 'Resident|make_resident|page_out_resident' crates --include='*.rs' | grep -vc '^crates/engine/src/storage/' || true)"
printf '%-12s %6d `InsertDelete`/`pub struct Delta<` under crates/ (should read 0: a delta is a batch of appended rows)\n' \
  "delete deltas" "$(grep -rhoE 'InsertDelete|pub struct Delta<' crates --include='*.rs' | wc -l || true)"

printf '%-12s per TPC-H-lite class, parse and rewrite (ceilings in tests/front_end_allocs.rs):\n' "allocations"
cargo test -q --release -p mvdesign --test front_end_allocs -- --nocapture | grep '^front-end allocs'

echo "tier-1 OK"
