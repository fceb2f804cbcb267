#!/usr/bin/env bash
# Repeatability check: runs the suite `sets × runs` times, alternating
# workloads, then compares the per-set medians of every end-to-end metric
# with the bound BENCHMARK.json fixes for it.
#
#   bench/run.sh <out-dir> [sets=2] [runs-per-set=5]      (from the repo root)
#
# SEED (default 1) is the --seed of every run; run length is the
# `run_seconds` of BENCHMARK.json.  Exits non-zero when a run fails or when
# any later set's median is worse than the first set's by more than the
# metric's bound.  To compare two commits, run it once per checkout with
# `sets=1` into two directories and pass both to `bench/run.sh --compare`.
set -euo pipefail

compare() {
    python3 - "$@" <<'PY'
import glob, json, os, statistics, sys

bench = json.load(open("BENCHMARK.json"))
sets = sys.argv[1:]
worst = 0
print(f"{'workload':<14} {'metric':<14} " + " ".join(f"{'median ' + os.path.basename(s):>16}" for s in sets)
      + f" {'worse by':>9} {'bound':>6}")
for workload in (w["name"] for w in bench["workloads"]):
    medians = []
    for directory in sets:
        runs = [json.loads(open(p).read()) for p in sorted(glob.glob(f"{directory}/{workload}-*.json"))]
        if not runs or not all(r["correct"] for r in runs):
            sys.exit(f"{directory}: missing or incorrect runs of {workload}")
        medians.append({m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
                        for m in bench["end_to_end"]})
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        base = medians[0][name]
        sign = 1 if metric["better"] == "lower" else -1
        worse = max((sign * (m[name] - base) / base for m in medians[1:]), default=0.0)
        flag = "  FAIL" if worse > bound else ""
        worst += worse > bound
        print(f"{workload:<14} {name:<14} " + " ".join(f"{m[name]:>16.4f}" for m in medians)
              + f" {100 * worse:>8.2f}% {100 * bound:>5.0f}%{flag}")
sys.exit(1 if worst else 0)
PY
}

if [[ "${1:-}" == "--compare" ]]; then
    shift
    compare "$@"
    exit
fi

out=${1:?usage: bench/run.sh <out-dir> [sets] [runs-per-set]}
sets=${2:-2}
runs=${3:-5}
seed=${SEED:-1}
[[ -f BENCHMARK.json && -f bench/Cargo.toml ]] || { echo "run from the repository root" >&2; exit 2; }

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
binary=${CARGO_TARGET_DIR:-bench/target}/release/ssrq-repo-bench

dirs=()
for set in $(seq 1 "$sets"); do
    dir=$out/set$set
    mkdir -p "$dir"
    dirs+=("$dir")
    for run in $(seq 1 "$runs"); do
        for workload in $workloads; do
            echo "set $set run $run $workload" >&2
            "$binary" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 >"$dir/$workload-$run.json"
        done
    done
done
compare "${dirs[@]}"
