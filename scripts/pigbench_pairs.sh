#!/usr/bin/env bash
# Alternating parent/change pairs of pigbench runs — the procedure the
# choosing-metrics and simplicity-review guides require of a claimed gain.
#
#   scripts/pigbench_pairs.sh <parent-checkout> <workload|all> [pairs=10] [seconds=8]
#
# Builds each side's pigbench from its own checkout into its own
# CARGO_TARGET_DIR (under $PAIRS_DIR, default .bench_build/pairs), runs
# pair i with seed $SEED0 + i (default 40 + i) on both sides, alternating
# which side goes first, each run from its own checkout, and prints per
# end-to-end metric of BENCHMARK.json: both medians, the parent's
# inter-quartile range, wins/pairs (ties count for neither), `failed` and
# each side's median `attempted` (the operations a run completed).
# Every result line is kept in $PAIRS_DIR/<workload>.jsonl. Run nothing
# else meanwhile: two vCPUs do not resolve 25% under a compile.
set -euo pipefail
if [ "$#" -lt 2 ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$(dirname "$0")/.." && pwd)"
workload="$2"
pairs="${3:-10}"
seconds="${4:-8}"
seed0="${SEED0:-40}"
dir="${PAIRS_DIR:-$change/.bench_build/pairs}"
mkdir -p "$dir"

build() { # <checkout> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml 1>&2)
}
build "$parent" "$dir/target-parent"
build "$change" "$dir/target-change"

run() { # <side> <checkout> <workload> <seed>  ->  one tagged result line
    local line
    line="$(cd "$2" && "$dir/target-$1/release/pigbench" --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
    printf '{"side": "%s", "seed": %s, "result": %s}\n' "$1" "$4" "$line"
}

if [ "$workload" = all ]; then
    workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$change/BENCHMARK.json")"
else
    workloads="$workload"
fi

for w in $workloads; do
    out="$dir/$w.jsonl"
    : > "$out"
    for i in $(seq 1 "$pairs"); do
        seed=$((seed0 + i))
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$parent" "$w" "$seed" >> "$out"
            run change "$change" "$w" "$seed" >> "$out"
        else
            run change "$change" "$w" "$seed" >> "$out"
            run parent "$parent" "$w" "$seed" >> "$out"
        fi
        echo "$w: pair $i/$pairs done" >&2
    done
    python3 - "$change/BENCHMARK.json" "$out" "$w" <<'EOF'
import json, statistics, sys

manifest, path, workload = sys.argv[1:4]
rows = [json.loads(line) for line in open(path)]
sides = {s: [r["result"] for r in rows if r["side"] == s] for s in ("parent", "change")}
pairs = len(sides["parent"])
print(f"{workload}: {pairs} pairs; failed parent "
      f"{sum(r['failed'] for r in sides['parent'])}, change "
      f"{sum(r['failed'] for r in sides['change'])}; correct "
      f"{all(r['correct'] for r in sides['parent'] + sides['change'])}")
# Work done in the fixed window: peak RSS grows with it (more view rings
# fill), so read an RSS move against this line.
print(f"  median attempted: parent "
      f"{statistics.median(r['attempted'] for r in sides['parent']):.0f}, change "
      f"{statistics.median(r['attempted'] for r in sides['change']):.0f}")
print(f"  {'metric':<14}{'parent':>12}{'change':>12}{'delta':>9}{'parent IQR':>12}{'wins':>8}")
for m in json.load(open(manifest))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in sides["parent"]]
    c = [r["metrics"][name]["value"] for r in sides["change"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    mp, mc = statistics.median(p), statistics.median(c)
    q = statistics.quantiles(p, n=4) if len(p) > 1 else [mp, mp, mp]
    delta = (mc - mp) / mp * 100 if mp else 0.0
    print(f"  {name:<14}{mp:>12.5g}{mc:>12.5g}{delta:>+8.1f}%{q[2] - q[0]:>12.4g}"
          f"{wins:>5}/{pairs - ties}")
EOF
done
