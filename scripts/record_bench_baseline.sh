#!/usr/bin/env bash
# Runs the criterion benches and collects their results into
# BENCH_baseline.json at the repo root. The vendored criterion shim emits
# one JSON object per benchmark to $CRITERION_SHIM_JSON; this script wraps
# the stream into a JSON array. The baseline holds the latest recording
# only; every recording is also appended, as one line
# {"commit", "date", "rows"}, to BENCH_history.jsonl, which keeps the
# trajectory. The commit is HEAD at recording time, with "+" appended
# when the tree has uncommitted changes (a PR records before it commits).
#
# Usage: scripts/record_bench_baseline.sh [extra cargo bench args...]
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_baseline.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

CRITERION_SHIM_JSON="$tmp" cargo bench -p botwall-bench "$@"

if [[ ! -s "$tmp" ]]; then
    echo "error: no benchmark records were emitted" >&2
    exit 1
fi

{
    echo '['
    sed '$!s/$/,/' "$tmp"
    echo ']'
} > "$out"

commit=$(git rev-parse --short HEAD)
if [[ -n $(git status --porcelain --untracked-files=no) ]]; then
    commit+="+"
fi
printf '{"commit":"%s","date":"%s","rows":[%s]}\n' \
    "$commit" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(paste -sd, "$tmp")" \
    >> BENCH_history.jsonl

echo "wrote $out ($(grep -c mean_ns "$out") benchmarks), appended to BENCH_history.jsonl"
