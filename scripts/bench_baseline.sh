#!/usr/bin/env bash
# Runs the E10 microbenchmarks (micro_sim, micro_graph) and records their
# results under a label in BENCH_micro.json at the repository root.
# Existing labels are preserved, so the file accumulates a baseline and
# any number of "after" snapshots for comparison:
#
#   scripts/bench_baseline.sh baseline     # before a change
#   scripts/bench_baseline.sh current      # after it
#
# Env: BUILD_DIR (default: build), MCS_BENCH_MIN_TIME (default: 0.2),
#      MCS_BENCH_FILTER (optional --benchmark_filter regex; use it to skip
#      configurations that are infeasible on one side of a comparison, e.g.
#      the full BM_EngineThroughput_1M on pre-wheel builds).
set -euo pipefail

label="${1:-current}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"
min_time="${MCS_BENCH_MIN_TIME:-0.2}"
bench_filter="${MCS_BENCH_FILTER:-}"
out_json="${repo_root}/BENCH_micro.json"

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

for bin in micro_sim micro_graph; do
  exe="${build_dir}/bench/${bin}"
  if [[ ! -x "${exe}" ]]; then
    echo "error: ${exe} not found — build first (cmake --build ${build_dir})" >&2
    exit 1
  fi
  echo "== ${bin} =="
  filter_args=()
  if [[ -n "${bench_filter}" ]]; then
    filter_args=(--benchmark_filter="${bench_filter}")
  fi
  "${exe}" --benchmark_format=json \
           --benchmark_min_time="${min_time}" \
           "${filter_args[@]}" \
           > "${tmp_dir}/${bin}.json"
done

python3 - "${out_json}" "${label}" "${tmp_dir}/micro_sim.json" \
    "${tmp_dir}/micro_graph.json" <<'PY'
import json
import sys

out_path, label = sys.argv[1], sys.argv[2]
try:
    with open(out_path) as f:
        doc = json.load(f)
except (FileNotFoundError, json.JSONDecodeError):
    doc = {}

merged = {}
for path in sys.argv[3:]:
    with open(path) as f:
        text = f.read()
    if not text.strip():
        continue  # MCS_BENCH_FILTER matched nothing in this binary
    run = json.loads(text)
    for bench in run.get("benchmarks", []):
        merged[bench["name"]] = {
            "real_time_ns": bench["real_time"],
            "cpu_time_ns": bench["cpu_time"],
            "iterations": bench["iterations"],
        }
        if "items_per_second" in bench:
            merged[bench["name"]]["items_per_second"] = (
                bench["items_per_second"])

doc[label] = merged
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {len(merged)} benchmark entries under '{label}' to {out_path}")
PY
