#!/usr/bin/env bash
# Repeatability of the benchmark on unchanged code: two sets of RUNS runs
# per workload, each run with another seed, back to back.
#
# For every end-to-end metric x workload it prints the spread of each set
# (distance between the first and third quartile as a share of the
# median) and how much worse the second set's median is than the first's,
# both against the metric's bound in BENCHMARK.json, and writes the table
# to benchmark/REPEATABILITY.md. It fails if a spread (setup_s excepted)
# or a median shift is outside its bound.
#
#   benchmark/repeat.sh            # 2 x 10 runs x 5 workloads, ~25 min
#   RUNS=4 benchmark/repeat.sh     # quicker, coarser quartiles
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-10}"
OUT="benchmark/out/repeat"
rm -rf "$OUT"
mkdir -p "$OUT"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/mdb-benchmark"
SECONDS_PER_RUN="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
WORKLOADS="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

for set in 1 2; do
  for workload in $WORKLOADS; do
    for i in $(seq 1 "$RUNS"); do
      seed=$((set * 1000 + i))
      "$BIN" --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
        | tail -n 1 > "$OUT/$set.$workload.$i.json"
      echo "set $set $workload seed $seed done" >&2
    done
  done
done

python3 - "$OUT" "$RUNS" <<'EOF'
import json, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
rows, failed = [], False
for w in (w["name"] for w in bench["workloads"]):
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        sets = []
        for s in (1, 2):
            runs_ = [json.load(open(f"{out}/{s}.{w}.{i}.json")) for i in range(1, runs + 1)]
            assert all(r["correct"] and r["failed"] == 0 for r in runs_), f"{w}: a run failed"
            sets.append([r["metrics"][name]["value"] for r in runs_])
        med = [statistics.median(v) for v in sets]
        q = [statistics.quantiles(v, n=4) for v in sets]
        spread = [(q[i][2] - q[i][0]) / med[i] for i in (0, 1)]
        worse = (med[1] - med[0]) / med[0] * (1 if lower else -1)
        ok = worse <= bound and (name == "setup_s" or max(spread) <= bound)
        failed |= not ok
        rows.append((w, name, m["unit"], med[0], med[1], spread[0], spread[1], worse, bound,
                     "ok" if ok else "OUTSIDE"))

lines = [
    "# Repeatability",
    "",
    f"Two sets of {runs} runs per workload on the same code (`benchmark/repeat.sh`), one seed",
    "per run. `spread` is the distance between the first and third quartile of a set as a",
    "share of its median; `worse` is how much worse the second set's median is than the",
    "first's (negative: better). Both must stay within `bound` (`setup_s`: only `worse`).",
    "",
    "| workload | metric | unit | median 1 | median 2 | spread 1 | spread 2 | worse | bound | |",
    "|---|---|---|---:|---:|---:|---:|---:|---:|---|",
]
for r in rows:
    lines.append("| {} | {} | {} | {:.4g} | {:.4g} | {:.4f} | {:.4f} | {:+.4f} | {} | {} |".format(*r))
text = "\n".join(lines) + "\n"
open("benchmark/REPEATABILITY.md", "w").write(text)
print(text)
sys.exit(1 if failed else 0)
EOF
