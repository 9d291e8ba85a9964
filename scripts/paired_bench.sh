#!/usr/bin/env bash
# Paired parent/change benchmark runs, the way every perf PR measures a claim
# (benchmark/README.md, "Landing a change"): N pairs, one fresh seed per pair,
# alternating which side runs first, then the benchmark's own `compare`.
#
#   scripts/paired_bench.sh <parent-checkout> <change-checkout> [pairs=10] [first-seed=11]
#
# Each checkout is a full tree of this repository (a `git clone` or
# `git archive` copy at the commit to measure) and is built and run by its
# own `benchmark/run.sh`, all workloads. Records land in
# ./paired_bench_out/{a,b}.jsonl (a = parent, b = change).
set -euo pipefail

if [ "$#" -lt 2 ]; then
  sed -n '2,11p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
pairs="${3:-10}"
first_seed="${4:-11}"
out="$PWD/paired_bench_out"

mkdir -p "$out"
rm -f "$out/a.jsonl" "$out/b.jsonl"

run_side() { # <checkout> <records file> <seed>
  bash "$1/benchmark/run.sh" --seed "$3" --out "$2" >>"$out/runs.log"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  if ((i % 2 == 0)); then
    echo "pair $((i + 1))/$pairs seed $seed: parent, change" >&2
    run_side "$parent" "$out/a.jsonl" "$seed"
    run_side "$change" "$out/b.jsonl" "$seed"
  else
    echo "pair $((i + 1))/$pairs seed $seed: change, parent" >&2
    run_side "$change" "$out/b.jsonl" "$seed"
    run_side "$parent" "$out/a.jsonl" "$seed"
  fi
done

bash "$change/benchmark/run.sh" compare "$out/a.jsonl" "$out/b.jsonl"
