#!/usr/bin/env bash
# The benchmark's one command. Builds `pc-benchmark` offline (release,
# the root manifest's profile) and runs it with the arguments given:
#
#   benchmark/run.sh [--seed S] [--repeat N] [--smoke] [--bless]
#       every workload, each in its own child process, untraced then
#       traced; prints every metric and writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one workload, as BENCHMARK.json's driver calls it
#   benchmark/run.sh check BASE.json[,...] CHANGE.json[,...]
#
# Honours CARGO_TARGET_DIR (relative to the repo root); defaults to
# benchmark/target.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

build_start=$(date +%s.%N)
# Build chatter goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
build_s=$(echo "$(date +%s.%N) $build_start" | awk '{printf "%.3f", $1 - $2}')

bin="$CARGO_TARGET_DIR/release/pc-benchmark"
if [ "${1:-}" = check ]; then
    exec "$bin" "$@"
fi
exec "$bin" "$@" --build-s "$build_s"
