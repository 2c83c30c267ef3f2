#!/usr/bin/env bash
# Counts the workspace's Rust lines: one row per crate split into src,
# tests and benches, the workspace total (the facade's `src/`, the root
# `tests/` and `examples/` included, shims and the standalone
# `benchmark/` crate listed apart), and the five largest files. These
# are the numbers ROADMAP's aim 2 and its re-anchors quote. Plain `wc -l`
# over `*.rs`: blank lines, comments and in-file test modules all count.
# Informational: nothing here fails a build.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of every *.rs file under the given directories (missing ones
# count as nothing).
lines() {
    local total=0 dir n
    for dir in "$@"; do
        [[ -d $dir ]] || continue
        n=$(find "$dir" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l)
        total=$((total + n))
    done
    echo "$total"
}

printf '%-22s %8s %8s %8s %8s\n' crate src tests benches total
sum=0
for crate in crates/*/; do
    crate=${crate%/}
    src=$(lines "$crate/src")
    tests=$(lines "$crate/tests")
    benches=$(lines "$crate/benches")
    total=$((src + tests + benches))
    sum=$((sum + total))
    printf '%-22s %8d %8d %8d %8d\n' "$crate" "$src" "$tests" "$benches" "$total"
done
root=$(lines src tests examples)
printf '%-22s %8d %8d %8s %8d\n' "(root)" "$(lines src examples)" "$(lines tests)" - "$root"
printf '%-22s %35d\n' "crates + root" $((sum + root))
printf '%-22s %35d\n' "shims" "$(lines shims)"
printf '%-22s %35d\n' "benchmark" "$(lines benchmark)"

echo
echo "largest files:"
find crates src tests examples -name '*.rs' -print0 | xargs -0 wc -l | grep -v ' total$' \
    | sort -rn | head -5
