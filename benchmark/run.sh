#!/usr/bin/env bash
# Build the benchmark (release, offline, inside benchmark/) and run it.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one workload in one process: the command of BENCHMARK.json
#   benchmark/run.sh [--smoke] [--seed S] [--runs N] [--seconds T] [--out FILE]
#       `run` then `trace` over all five workloads, one results JSON
#       (default benchmark/results.json); --smoke = 3 rounds per
#       workload, correctness and JSON shape only
#   benchmark/run.sh run|trace|all|compare ...
#       straight through to the binary (see benchmark/README.md)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# A driver may point CARGO_TARGET_DIR somewhere of its own (relative
# paths resolve against the repository root); otherwise build outputs
# stay inside benchmark/.
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/switchml-benchmark"

case "${1:-}" in
run | trace | all | compare) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
# The first --out wins, so one given by the caller overrides the default.
exec "$bin" all "$@" --out benchmark/results.json
