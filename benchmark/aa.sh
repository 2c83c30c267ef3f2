#!/usr/bin/env bash
# A/A check: N interleaved runs of the same code per workload, split
# into two sets (A and B). Fails if
#   * any end-to-end metric's two set medians differ by more than its bound, or
#   * any single run's cost_x or ttfb_x is more than 10 % from its set's median.
#
#   benchmark/aa.sh [--runs <n per set, default 5>] [--disturb]
#
# --disturb is not an A/A check. It runs gate_only with a CPU hog (20 ms
# of every 40 ms) on the benchmark's own core in set B only, prints the
# same table, and judges two things: cost_x agrees within 5 % while
# client.ops_per_s_mean falls by more than 15 %. Everything else is shown
# as measured: half a core less is half a core less for setup_s, the one
# absolute time, and the A/A rules are not claimed to hold under the hog.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=5
disturb=0
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --disturb) disturb=1; shift ;;
    *) echo "usage: aa.sh [--runs <n>] [--disturb]" >&2; exit 2 ;;
  esac
done

out="$here/results/aa.$$"
rm -rf "$out"
mkdir -p "$out/a" "$out/b"
hog=""
cleanup() { [ -n "$hog" ] && kill "$hog" 2>/dev/null; wait 2>/dev/null || true; }
trap cleanup EXIT

bench="${CARGO_TARGET_DIR:-$here/target}/release/botwall-benchmark"

one() { # <set dir> <workload> <seed> <trace>
  "$here/run.sh" --workload "$2" --seed "$3" --trace "$4" --out "$1" >/dev/null
}

if [ "$disturb" = 0 ]; then
  workloads="browse_mix page_stream gate_only first_contact"
  for w in $workloads; do
    for i in $(seq 1 "$runs"); do
      # Same seeds in both sets, so counts compare exactly.
      one "$out/a" "$w" "$i" 0
      one "$out/b" "$w" "$i" 0
    done
  done
else
  "$here/run.sh" --workload gate_only --smoke --trace 0 >/dev/null   # builds
  for i in $(seq 1 "$runs"); do
    one "$out/a" gate_only "$i" 0
    one "$out/a" gate_only "$i" 1
    "$bench" hog & hog=$!
    one "$out/b" gate_only "$i" 0
    one "$out/b" gate_only "$i" 1
    kill "$hog"; wait "$hog" 2>/dev/null || true; hog=""
  done
fi

"$bench" compare "$out/a" "$out/b" || true
python3 - "$out" "$disturb" "$here/../BENCHMARK.json" <<'PY'
import glob, json, os, statistics, sys
out, disturb = sys.argv[1], sys.argv[2] == "1"
bounds = {m["name"]: m["bound"] for m in json.load(open(sys.argv[3]))["end_to_end"]}
def load(side, trace):
    runs = {}
    for path in glob.glob(os.path.join(out, side, f"*.trace{trace}.json")):
        workload = os.path.basename(path).split(".")[0]
        result = json.loads(open(path).read().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, path
        for name, m in result["metrics"].items():
            runs.setdefault((workload, name), []).append(m["value"])
    return runs
a, b = load("a", 0), load("b", 0)
failed = False
for (workload, name), va in sorted(a.items()):
    vb = b[(workload, name)]
    ma, mb = statistics.median(va), statistics.median(vb)
    gap = abs(mb - ma) / ma
    stray_a = stray_b = 0.0
    if name in ("cost_x", "ttfb_x"):
        stray_a = max(abs(v - ma) / ma for v in va)
        stray_b = max(abs(v - mb) / mb for v in vb)
    if disturb:
        judged = name == "cost_x"
        limit = 0.05
        bad = judged and gap > limit
    else:
        judged = True
        limit = bounds[name]
        bad = gap > limit or stray_a > 0.10 or stray_b > 0.10
    failed |= bad
    print(f"{workload:<14} {name:<20} A {ma:12.4f}  B {mb:12.4f}  gap {gap:7.2%}"
          + (f" (limit {limit:.0%})" if judged else " " * 12)
          + f"  worst single run A {stray_a:6.2%} B {stray_b:6.2%}  "
          + ("FAIL" if bad else "ok" if judged else "shown"))
if disturb:
    ta, tb = load("a", 1), load("b", 1)
    key = ("gate_only", "client.ops_per_s_mean")
    qa, qb = statistics.median(ta[key]), statistics.median(tb[key])
    fall = 1 - qb / qa
    bad = fall <= 0.15
    failed |= bad
    print(f"gate_only      client.ops_per_s_mean quiet {qa:10.0f}  hogged {qb:10.0f}  fell {fall:6.2%}"
          f" (must exceed 15%)  {'FAIL' if bad else 'ok'}")
sys.exit(1 if failed else 0)
PY
