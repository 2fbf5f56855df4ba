#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green.
#
#   release build  →  full test suite  →  bench smoke (compile + run each
#   benchmark once in --test mode, no timing)  →  paper artifacts compared
#   byte-for-byte with docs/repro_output.txt  →  audit  →  surface report
#
# Run from the repository root: ./scripts/tier1.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release --workspace

# benchmark/ is a package outside the workspace: nothing above compiles it,
# so an API change could break it with every other step green.
echo "== tier-1: the benchmark still compiles against the public API =="
cargo check --release --offline --manifest-path benchmark/Cargo.toml

echo "== tier-1: formatting =="
cargo fmt --all -- --check

echo "== tier-1: clippy =="
cargo clippy --workspace -- -D warnings

echo "== tier-1: docs (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: tests =="
cargo test -q --workspace

echo "== tier-1: low-memory batteries (forced eviction + spill) =="
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test engine_morsel
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test engine_paged
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test engine_delta
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign --test maintain
MVDESIGN_MEM_BUDGET=256 cargo test -q --release -p mvdesign-serve --test serve

echo "== tier-1: serve smoke (64 clients, correctness gate + timing, no artifact) =="
cargo run --release -p mvdesign-bench --bin repro -- perf-serve smoke \
  --clients 64 --duration-ms 500 --no-write > /dev/null

echo "== tier-1: bench smoke (--test mode) =="
cargo bench -p mvdesign-bench --bench selection_scaling -- --test
cargo bench -p mvdesign-bench --bench engine_and_optimizer -- --test
cargo bench -p mvdesign-bench --bench engine_batch -- --test
cargo bench -p mvdesign-bench --bench engine_parallel -- --test

# The section of docs/repro_output.txt that `repro <name>` printed: from the
# blank line above the banner whose title starts with $1 to just above the
# blank line of the next banner.
doc_section() {
  awk -v title="$1" '
    function flush() { if (inside && have) print held; have = 0 }
    /^=+$/ && ++bars % 2 == 1 {
      blank = held; bar = $0; inside = 0; have = 0; opening = 1; next
    }
    opening { opening = 0; inside = index($0, title) == 1; if (inside) { print blank; print bar } }
    { flush(); held = $0; have = 1 }
    END { flush() }
  ' docs/repro_output.txt
}

echo "== tier-1: paper artifacts are digit-identical (fig9, table2 vs docs/repro_output.txt) =="
cmp <(cargo run --release -p mvdesign-bench --bin repro -- fig9) <(doc_section "Figure 9")
cmp <(cargo run --release -p mvdesign-bench --bin repro -- table2) <(doc_section "Table 2")

echo "== tier-1: correctness audit =="
cargo run --release -p mvdesign-bench --bin repro -- audit > /dev/null

echo "== tier-1: surface report (printed for the trend, never gated) =="
for crate in crates/*/; do
  lines=$(find "$crate/src" -name '*.rs' -exec cat {} + | wc -l)
  items=$(grep -rhE '^\s*pub (const )?(fn|struct|enum|trait|const|type) ' "$crate/src" \
    --include='*.rs' | wc -l || true)
  printf '%-12s %6d lines %4d pub items\n' "$(basename "$crate")" "$lines" "$items"
done

echo "tier-1 OK"
