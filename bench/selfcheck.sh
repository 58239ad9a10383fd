#!/usr/bin/env bash
# A/A check: two sets of runs of this checkout, compared with the bounds in
# BENCHMARK.json the way a later change is compared with its parent.  Each set
# is RUNS runs (default 3) of every workload, each with another seed; a
# metric's figure for a set is the median of its runs.  Exits non-zero when
# the second set is worse than the first by more than a metric's bound on any
# (metric, workload) pair, or when any run reports a failed operation.
#
#     bench/selfcheck.sh              all workloads
#     RUNS=5 bench/selfcheck.sh join_mix scan_mix
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${RUNS:-3}
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(point_hot join_mix scan_mix corpus_fanout update_churn)
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
log=bench/out/selfcheck
mkdir -p "$log"
rm -f "$log"/*.jsonl

seed=1
for set in a b; do
  for _ in $(seq "$runs"); do
    for w in "${workloads[@]}"; do
      echo "selfcheck: set $set $w seed $seed" >&2
      bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 >>"$log/$set.$w.jsonl"
    done
    seed=$((seed + 1))
  done
done

python3 - "$log" "${workloads[@]}" <<'PY'
import json, statistics, sys
log, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
bad = 0
for w in workloads:
    sets = {}
    for s in "ab":
        rows = [json.loads(l) for l in open(f"{log}/{s}.{w}.jsonl")]
        if not all(r["correct"] for r in rows):
            print(f"FAIL {w}: set {s} has a run with failed operations")
            bad += 1
        sets[s] = rows
    for m in bench["end_to_end"]:
        a, b = (statistics.median(r["metrics"][m["name"]]["value"] for r in sets[s]) for s in "ab")
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok"
        if worse > m["bound"]:
            verdict, bad = "FAIL", bad + 1
        print(f"{verdict:4} {w:14} {m['name']:16} a={a:<12.6g} b={b:<12.6g} worse by {worse*100:+6.2f}% (bound {m['bound']*100:.0f}%)")
sys.exit(1 if bad else 0)
PY
