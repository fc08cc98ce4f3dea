#!/usr/bin/env bash
# Measures how well the benchmark repeats, the way the driver that gates PRs
# does: RUNS gated runs of every workload, each with another seed, then per
# (workload, end-to-end metric) cell the distance between the first and third
# quartile of the reported values as a share of their median.
#
#   benchmark/calibrate.sh            # 10 runs per workload, seeds 1..10
#   RUNS=6 SEED0=100 benchmark/calibrate.sh wire_rw_mem
#
# A cell whose quartile spread exceeds a third of its bound in BENCHMARK.json
# is marked "noisy" (the target the bounds were set to); past half its bound
# the script fails. setup_s is exempt, as it is in the driver. It also fails
# if a workload's median harness.drift_ratio leaves 0.85-1.15; single runs do
# leave it when the host slows down mid-run, so the extremes are only printed.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
runs=${RUNS:-10}
seed0=${SEED0:-1}
seconds=$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")
out="$here/out/calibrate"
rm -rf "$out"
mkdir -p "$out"
if [ $# -gt 0 ]; then workloads=("$@"); else
	mapfile -t workloads < <(python3 -c "import json; [print(w['name']) for w in json.load(open('$root/BENCHMARK.json'))['workloads']]")
fi
# Interleave the workloads, so that drift of the machine over the calibration
# lands on every cell alike.
for ((i = 0; i < runs; i++)); do
	for w in "${workloads[@]}"; do
		seed=$((seed0 + i))
		echo "calibrate: $w seed $seed ($((i + 1))/$runs)" >&2
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w.$seed.txt"
	done
done
python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import glob, json, os, re, statistics, sys

spec = json.load(open(sys.argv[1]))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
failed = False
print(f'{"workload":18} {"metric":15} {"median":>12} {"iqr/med":>8} {"range/med":>9} {"bound":>6}  verdict')
for w in [w["name"] for w in spec["workloads"]]:
    files = sorted(glob.glob(os.path.join(sys.argv[2], w + ".*.txt")))
    if not files:
        continue
    values, drifts = {}, []
    for path in files:
        lines = open(path).read().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"{path}: incorrect or failed transactions"); failed = True
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        drifts += [float(l.split()[2]) for l in lines if l.startswith("# harness.drift_ratio")]
    for name, bound in bounds.items():
        vs = values[name]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        iqr, rng = (q[2] - q[0]) / med, (max(vs) - min(vs)) / med
        verdict = "ok"
        if name != "setup_s" and iqr > bound / 3:
            verdict = "noisy (over a third of the bound)"
        if name != "setup_s" and iqr > bound / 2:
            verdict, failed = "TOO NOISY (over half the bound)", True
        print(f'{w:18} {name:15} {med:12.3f} {iqr:8.4f} {rng:9.4f} {bound:6.2f}  {verdict}')
    ok = 0.85 <= statistics.median(drifts) <= 1.15
    failed |= not ok
    print(f'{w:18} {"drift_ratio":15} {statistics.median(drifts):12.3f} {"":8} {max(drifts) - min(drifts):9.4f} {"":6}  '
          f'{"ok" if ok else "DRIFTS"} (min {min(drifts):.3f}, max {max(drifts):.3f})')
sys.exit(1 if failed else 0)
EOF
