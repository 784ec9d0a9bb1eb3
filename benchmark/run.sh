#!/usr/bin/env bash
# Builds pigbench and runs it from the repository root.
#
#   benchmark/run.sh                        every workload, seed 42
#   benchmark/run.sh run --trace            the per-layer (traced) pass
#   benchmark/run.sh run --seed 7           another seed
#   benchmark/run.sh --twice                two passes of 5 runs per workload, then `agree`
#   benchmark/run.sh agree a.json b.json    compare two result sets
#   benchmark/run.sh --workload feed_read --seed 1 --seconds 10 --trace 0
#                                           one run; last stdout line = result
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin="$CARGO_TARGET_DIR/release/pigbench"

if [ "$#" -eq 0 ]; then
    exec "$bin" run --seed 42
elif [ "$1" = "--twice" ]; then
    shift
    mkdir -p benchmark/out
    # Medians of five: a single run is at the mercy of the minute it ran in.
    "$bin" run --reps 5 "$@" --out benchmark/out/twice-a.json
    "$bin" run --reps 5 "$@" --out benchmark/out/twice-b.json
    exec "$bin" agree benchmark/out/twice-a.json benchmark/out/twice-b.json
else
    exec "$bin" "$@"
fi
