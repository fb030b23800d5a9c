#!/usr/bin/env bash
# Run the layered host benchmark in release mode: every rung (engine,
# observers, schedule) at 64/256/512 nodes, min of 16 interleaved passes,
# one row per (rung, nodes) in BENCH_layers.json.
#
#   scripts/bench_all.sh             # each rung's default seed
#   scripts/bench_all.sh --seed 7    # one seed for every rung
set -euo pipefail
cd "$(dirname "$0")/.."
cargo run -q --release -p harbor-bench --bin layers -- "$@"
