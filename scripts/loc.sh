#!/usr/bin/env bash
# Counts the workspace's Rust lines: one row per crate split into src,
# tests and benches, the workspace total (the facade's `src/`, the root
# `tests/` and `examples/` included, shims and the standalone
# `benchmark/` crate listed apart), and the five `src` files with the
# most non-test lines. These
# are the numbers ROADMAP's aim 2 and its re-anchors quote. Plain `wc -l`
# over `*.rs`: blank lines, comments and in-file test modules all count.
# The `non-test` column is the part of `src` that is not an in-file test
# module: each file up to the `#[cfg(test)]` line that opens its test
# module (all of it when it has none; a `#[cfg(test)]` on a counter or a
# helper above the module does not end the count), so "non-test lines"
# is a printed number too, and the
# front door's sum of it (`serve` + `gateway` + `instrument` + `http`,
# the code a request through `botwall-serve` runs) is printed under the
# totals instead of being added up by hand, and so are the session
# layer's (`sessions` + `core`), the in-process clients' (`agents` +
# `codeen` + the root `examples/`) and the offline study's (`ml` +
# `bench`: the learner, the baselines and the paper's experiments).
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

# Counts the lines of its input files that come before each file's test
# module: a `#[cfg(test)]` line with a `mod` line next. One on anything
# else (a test counter, a test-only method) counts like any line.
before_tests='FNR == 1 { n += cfg; in_tests = 0; cfg = 0 }
    in_tests { next }
    cfg && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ { in_tests = 1; cfg = 0; next }
    cfg { n++; cfg = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { cfg = 1; next }
    { n++ }
    END { print n + cfg }'

# Non-test lines of every *.rs file under one directory.
non_test() {
    [[ -d $1 ]] || { echo 0; return; }
    find "$1" -name '*.rs' -not -path '*/target/*' -print0 \
        | xargs -0 -r awk "$before_tests" | awk '{ sum += $1 } END { print sum + 0 }'
}

printf '%-22s %8s %8s %8s %8s %8s\n' crate src non-test tests benches total
sum=0
for crate in crates/*/; do
    crate=${crate%/}
    src=$(lines "$crate/src")
    tests=$(lines "$crate/tests")
    benches=$(lines "$crate/benches")
    total=$((src + tests + benches))
    sum=$((sum + total))
    printf '%-22s %8d %8d %8d %8d %8d\n' "$crate" "$src" "$(non_test "$crate/src")" \
        "$tests" "$benches" "$total"
done
root=$(lines src tests examples)
printf '%-22s %8d %8d %8d %8s %8d\n' "(root)" "$(lines src examples)" \
    $(($(non_test src) + $(non_test examples))) "$(lines tests)" - "$root"
printf '%-22s %44d\n' "crates + root" $((sum + root))
printf '%-22s %44d\n' "shims" "$(lines shims)"
printf '%-22s %44d\n' "benchmark" "$(lines benchmark)"
front=0
for crate in serve gateway instrument http; do
    front=$((front + $(non_test "crates/$crate/src")))
done
printf '%-22s %17d\n' "front door, non-test" "$front"
printf '%-25s %14d\n' "sessions + core, non-test" \
    $(($(non_test crates/sessions/src) + $(non_test crates/core/src)))
printf '%-42s %d\n' "clients (agents + codeen + examples), non-test" \
    $(($(non_test crates/agents/src) + $(non_test crates/codeen/src) + $(non_test examples)))
printf '%-34s %8d\n' "offline (ml + bench), non-test" \
    $(($(non_test crates/ml/src) + $(non_test crates/bench/src)))

echo
echo "largest src files by non-test lines (non-test lines, lines):"
find crates/*/src src -name '*.rs' -print0 | while IFS= read -r -d '' file; do
        printf '%7d %7d %s\n' "$(awk "$before_tests" "$file")" "$(wc -l < "$file")" "$file"
    done | sort -rn | head -5
