#!/usr/bin/env bash
# check_repeat.sh: is the benchmark steady enough to gate on?
#
# Runs two sets of the benchmark on the same code: in each set every workload
# is run RUNS times, each time with another seed (set 1 uses seeds
# BASE+1..BASE+RUNS, set 2 the RUNS seeds after those). For every end-to-end
# metric of every workload it prints each set's median and quartiles, the
# spread (distance between the quartiles as a share of the median, as
# Python's statistics.quantiles(values, n=4) gives them) and the relative gap
# between the two sets' medians in the metric's worse direction, and it
# exits non-zero if a spread (setup_s excepted) or a gap exceeds the bound
# BENCHMARK.json fixes for the metric. Bounds are derived from this output:
# max(3 × spread, 2 × largest gap), capped.
#
#   bench/check_repeat.sh [RUNS [BASE [WORKLOAD...]]]     (defaults: 10, 100, all)
#
# Raw result lines are kept in .bench_build/repeat/ for later inspection.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
runs=${1:-10}
base=${2:-100}
shift $(($# < 2 ? $# : 2))
out=.bench_build/repeat
mkdir -p "$out"

workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

for set in 1 2; do
	for w in "${workloads[@]}"; do
		: >"$out/$w.set$set.jsonl"
		for i in $(seq 1 "$runs"); do
			seed=$((base + (set - 1) * runs + i))
			echo "set $set: $w seed $seed" >&2
			bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$w.set$set.jsonl"
		done
	done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys
out, workloads = sys.argv[1], sys.argv[2:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = 0
print(f'{"workload":16} {"metric":22} {"set":>3} {"q1":>12} {"median":>12} {"q3":>12} {"spread":>8} {"gap":>8} {"bound":>6}')
for w in workloads:
    sets = []
    for s in (1, 2):
        rows = [json.loads(l) for l in open(f"{out}/{w}.set{s}.jsonl")]
        for r in rows:
            if not r["correct"] or r["failed"]:
                print(f"{w}: a run of set {s} failed: {r['failed']} of {r['attempted']} operations"); bad += 1
        sets.append(rows)
    for name, m in spec.items():
        med = []
        for s, rows in enumerate(sets, 1):
            v = [r["metrics"][name]["value"] for r in rows]
            q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            q2 = statistics.median(v)
            spread = (q3 - q1) / q2
            med.append(q2)
            flag = ""
            if spread > m["bound"] and name != "setup_s":
                flag, bad = "  SPREAD > BOUND", bad + 1
            print(f"{w:16} {name:22} {s:>3} {q1:12.5g} {q2:12.5g} {q3:12.5g} {spread:8.2%} {'':8} {m['bound']:6.2f}{flag}")
        gap = (med[1] - med[0]) / med[0]
        if m["better"] == "higher":
            gap = -gap
        flag = ""
        if gap > m["bound"]:
            flag, bad = "  GAP > BOUND", bad + 1
        print(f"{w:16} {name:22} {'gap':>3} {'':12} {'':12} {'':12} {'':8} {gap:+8.2%} {m['bound']:6.2f}{flag}")
sys.exit(1 if bad else 0)
EOF
