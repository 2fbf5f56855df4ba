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
cargo clippy --workspace --all-targets -- -D warnings

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
# the build the benchmark measures. The evaluator's own bit-exact flip and
# policy tests are unit tests of mvdesign-core, hence its release run. The
# stand-in `rand` is outside the workspace; its tests check that
# `Bernoulli`'s integer compare draws the float compare's stream.
echo "== tier-1: float-bit and block-count pins under optimisation =="
cargo test -q --release -p rand
cargo test -q --release -p mvdesign-core
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
# routed γ-over-join plans of roll-up views run there too, and so do refresh
# passes along the MVPP DAG with their transients paged into the pool.
echo "== tier-1: mixed-spill batteries (64 KiB operator budget) =="
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test engine_batch
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test engine_paged
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test engine_delta
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test maintain
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test view_rewrite
MVDESIGN_MEM_BUDGET=65536 cargo test -q --release -p mvdesign --test result_cache

# benchmark/ is a package outside the workspace: nothing above compiles it,
# so an API change could break it with every other step green. Its smoke
# builds it and runs every workload's correctness gate before its timing.
echo "== tier-1: benchmark smoke (all four workloads, untraced + traced, 4 s each) =="
# Building the benchmark rewrites its committed lock file, which still lists
# the removed `mvdesign-distributed` crate; keep a copy and put it back, so a
# tier-1 run leaves the tree as it found it (the lock itself is mended with
# the next change to benchmark/, ROADMAP item 1(g)).
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --smoke
cp "$bench_lock" benchmark/Cargo.lock
echo "benchmark/Cargo.lock restored as committed (stale entry waits on ROADMAP item 1(g))"

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
printf '%-12s %6d `impl Statistics for`/`fn estimate(` under crates/ (should read 0: design and refresh share one cardinality estimator, `CardinalityEstimator`)\n' \
  "estimators" "$(grep -rhoE 'impl Statistics for|fn estimate\(' crates --include='*.rs' | wc -l || true)"
printf '%-12s %6d `fn eager_chain(`/`fn eager_aggregation(` under crates/ (should read 0: the join DP plans eager aggregation, `JoinGraph::order`)\n' \
  "eager forms" "$(grep -rhoE 'fn eager_chain\(|fn eager_aggregation\(' crates --include='*.rs' | wc -l || true)"
printf '%-12s %6d `saw_connected`/`fn restructure(`/`fn optimal_order(`/`fn eager_order(` under crates/ (should read 0: one join DP over connected pairs plans every query, `JoinGraph::order`)\n' \
  "join entries" "$(grep -rhoE 'saw_connected|fn restructure\(|fn optimal_order\(|fn eager_order\(' crates --include='*.rs' | wc -l || true)"
printf '%-12s %6d `Vec<bool>`/`&[bool]` under crates/core/src (should read 0: a genome is a `NodeSet` of MVPP node ids)\n' \
  "genomes" "$(grep -rhoE 'Vec<bool>|&\[bool\]' crates/core/src --include='*.rs' | wc -l || true)"
printf '%-12s %6d `select_with_policies`/`choose_policies`/`set_delta_policies`/`PolicyChoice` under crates/ (should read 0: each view has one maintenance price, `Cm = min(Ca, Cmᵟ)`)\n' \
  "policy search" "$(grep -rhoE 'select_with_policies|choose_policies|set_delta_policies|PolicyChoice' crates --include='*.rs' | wc -l || true)"
printf '%-12s DESIGN.md %d, README.md %d, EXPERIMENTS.md %d lines (DESIGN.md states the current design; history goes to docs/history/)\n' \
  "docs" "$(wc -l < DESIGN.md)" "$(wc -l < README.md)" "$(wc -l < EXPERIMENTS.md)"

printf '%-12s measured period, query and refresh halves, the views a first build rebuilds by eager aggregation, and each unit (view or transient) of the TPC-H-lite build pass with its blocks (pins in tests/simulation.rs):\n' "period"
cargo test -q --release -p mvdesign --test simulation -- --nocapture | grep -oE '(period halves|refresh unit).*'

printf '%-12s per TPC-H-lite class, parse, rewrite and a warm repeated query; then sequential design calls: greedy on paper, TPC-H-lite and star-6x40, genetic on star-6x40, exhaustive on star-4x4, and the nine calls of one design benchmark pass (ceilings in tests/front_end_allocs.rs):\n' "allocations"
cargo test -q --release -p mvdesign --test front_end_allocs -- --nocapture | grep -oE '(front-end|design) allocs.*'

echo "tier-1 OK"
