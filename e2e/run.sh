#!/usr/bin/env bash
# Run the end-to-end benchmark and write one result file (JSON Lines, one run
# per line) per set.
#
#   e2e/run.sh                  one set: every workload, RUNS seeds with tracing
#                               off, then one traced run for the per-layer part
#   e2e/run.sh --sets 2         two sets of the same code, then compare them
#   e2e/run.sh --quick          wiring check: every workload at 1/8 size for 2 s,
#                               every check on; never compared to a baseline
#   e2e/run.sh --runs 5 --seconds 28 --out e2e/out
#
# Sets land in OUT/set<k>.jsonl; traces in e2e/out/<workload>.trace.json.
set -euo pipefail
cd "$(dirname "$0")/.."

sets=1 runs=3 seconds=28 shrink=1 out=e2e/out quick=0
while [ $# -gt 0 ]; do
  case "$1" in
    --sets) sets=$2; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --quick) quick=1 sets=1 runs=1 seconds=2 shrink=8; shift ;;
    *) echo "unknown argument $1" >&2; sed -n '2,12p' "$0" >&2; exit 2 ;;
  esac
done

export E2E_RUSTC E2E_COMMIT
E2E_RUSTC=$(rustc -V)
E2E_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)

cargo build --release --offline --manifest-path e2e/Cargo.toml
bin="${CARGO_TARGET_DIR:-e2e/target}/release/e2e"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
mkdir -p "$out"

for k in $(seq 1 "$sets"); do
  set_file="$out/set$k.jsonl"
  [ "$quick" = 1 ] && set_file="$out/quick.jsonl"
  rm -f "$set_file"
  for w in $workloads; do
    for seed in $(seq 1 "$runs"); do
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        --shrink "$shrink" --set "$set_file" | sed '$d'
    done
    "$bin" --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
      --shrink "$shrink" --set "$set_file" | sed '$d'
  done
  echo "wrote $set_file"
done

if [ "$sets" -ge 2 ]; then
  python3 e2e/compare.py "$out/set1.jsonl" "$out/set2.jsonl"
fi
