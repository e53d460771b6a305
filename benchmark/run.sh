#!/usr/bin/env bash
# Build, lint and run the end-to-end benchmark in sets, then summarize.
#
#   benchmark/run.sh               # the baseline protocol: 2 sets x 10 runs
#   RUNS=5 SEED=5000 benchmark/run.sh
#
# Each run lasts run_seconds from BENCHMARK.json. Run r of both sets uses
# seed SEED+r, so both sets see the same inputs and every (workload, seed)
# must give the same digest in both. Each set runs every workload RUNS
# times untraced, then once traced with seed SEED; the first set runs the
# workloads forward and the second in reverse, so a slow drift of the
# machine does not land on one workload.
#
# Writes to $TARGET (CARGO_TARGET_DIR, else benchmark/target):
#   results.json  every run: set, workload, seed, trace, digest, JSON line
#   summary.json  per workload and set: median, quartiles and spread
#                 (quartile distance / median) of each end-to-end metric,
#                 the traced per-layer metrics, the change of each median
#                 from the first set, and the bounds from BENCHMARK.json
# Exits nonzero if a run fails its checks, digests disagree, a spread
# exceeds its bound, or a later set's median is worse than the first
# set's by more than the bound.
set -euo pipefail
cd "$(dirname "$0")"

RUNS=${RUNS:-10}
SEED=${SEED:-1000}
RUN_SECONDS=$(python3 -c 'import json; print(json.load(open("../BENCHMARK.json"))["run_seconds"])')
TARGET=${CARGO_TARGET_DIR:-target}
export CARGO_TARGET_DIR=$TARGET

cargo fmt --check
cargo build --release --offline
cargo clippy --release --offline --all-targets -- -D warnings

BIN=$TARGET/release/iorch-e2e-bench
RAW=$TARGET/results.jsonl
: >"$RAW"
run() { # set workload seed trace
    local out digest
    out=$("$BIN" --workload "$2" --seed "$3" --seconds "$RUN_SECONDS" --trace "$4")
    digest=$(head -1 <<<"$out" | sed 's/.* digest //')
    echo "set $1 $2 seed $3 trace $4 digest $digest" >&2
    printf '{"set": %d, "workload": "%s", "seed": %d, "trace": %d, "digest": "%s", "result": %s}\n' \
        "$1" "$2" "$3" "$4" "$digest" "$(tail -1 <<<"$out")" >>"$RAW"
}
for set in 0 1; do
    order=(webserver fileserver colocated churn)
    if ((set == 1)); then
        order=(churn colocated fileserver webserver)
    fi
    for w in "${order[@]}"; do
        for ((r = 0; r < RUNS; r++)); do
            run "$set" "$w" $((SEED + r)) 0
        done
        run "$set" "$w" "$SEED" 1
    done
done

python3 - "$RAW" "$TARGET" ../BENCHMARK.json <<'EOF'
import json, os, statistics, sys
raw, target, manifest = sys.argv[1:]
rows = [json.loads(line) for line in open(raw)]
json.dump(rows, open(f"{target}/results.json", "w"), indent=1)
os.remove(raw)
spec = json.load(open(manifest))
bounds = {m["name"]: m for m in spec["end_to_end"]}
problems, summary = [], {}
for w in dict.fromkeys(r["workload"] for r in rows):
    mine = [r for r in rows if r["workload"] == w]
    digests = {}
    for r in mine:
        digests.setdefault(r["seed"], set()).add(r["digest"])
    agree = all(len(d) == 1 for d in digests.values())
    if not agree:
        problems.append(f"{w}: digests differ between runs of one seed")
    sets = {}
    for s in sorted({r["set"] for r in mine}):
        e2e, layers = {}, {}
        for r in mine:
            if r["set"] != s:
                continue
            dest = layers if r["trace"] else e2e
            for name, m in r["result"]["metrics"].items():
                dest.setdefault(name, []).append(m["value"])
        stats = {}
        for name, v in e2e.items():
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med = statistics.median(v)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(v)}
        sets[s] = {"end_to_end": stats, "per_layer": {k: v[0] for k, v in layers.items()}}
    first = sets[min(sets)]["end_to_end"]
    for s, data in sets.items():
        for name, st in data["end_to_end"].items():
            b = bounds.get(name)
            if not b:
                continue
            worse = (st["median"] - first[name]["median"]) / first[name]["median"]
            if b["better"] == "higher":
                worse = -worse
            st["worse_than_first_set"] = worse
            if name != "setup_s" and st["spread"] > b["bound"]:
                problems.append(f"{w} set {s} {name}: spread {st['spread']:.3f} > bound {b['bound']}")
            if worse > b["bound"]:
                problems.append(f"{w} set {s} {name}: median {worse:.3f} worse than set 0")
    summary[w] = {"digests_agree": agree, "sets": sets}
json.dump({"bounds": bounds, "workloads": summary}, open(f"{target}/summary.json", "w"), indent=1)
for w, data in summary.items():
    print(f"{w}: digests agree: {data['digests_agree']}")
    for name in next(iter(data["sets"].values()))["end_to_end"]:
        cells = "  ".join(
            f"set {s}: {d['end_to_end'][name]['median']:.4g} "
            f"[{d['end_to_end'][name]['q1']:.4g}, {d['end_to_end'][name]['q3']:.4g}] "
            f"spread {d['end_to_end'][name]['spread']:.3f}"
            for s, d in data["sets"].items())
        print(f"  {name:12s} {cells}")
for p in problems:
    print("PROBLEM:", p)
sys.exit(1 if problems else 0)
EOF
