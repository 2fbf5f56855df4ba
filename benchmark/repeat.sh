#!/usr/bin/env bash
# N full sets of untraced runs (default 10), a new seed per set. Prints, per
# workload and end-to-end metric, min / median / max and the inter-quartile
# spread against the metric's bound, and records them in spread.json.
#
#   benchmark/repeat.sh 10
#   benchmark/repeat.sh 10 --seed 101     # another ten seeds
#   benchmark/repeat.sh 3 --seconds 8     # shorter runs, wider spreads

set -euo pipefail
cd "$(dirname "$0")"
cargo run --release -q -- repeat "${1:-10}" "${@:2}"
