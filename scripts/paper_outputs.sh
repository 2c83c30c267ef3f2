#!/usr/bin/env bash
# The nine paper binaries (the tables and figures, and the offline §4.1
# machine-learning stage) and the four examples, built in release, each
# run twice: the two stdouts must be byte-identical (every seed is baked
# in). Prints one line a program, the first 16 hex digits of its
# stdout's sha256, so two trees can be compared by their lines.
#
#   scripts/paper_outputs.sh   # exits non-zero if a run fails or differs
set -euo pipefail
cd "$(dirname "$0")/.."

target=${CARGO_TARGET_DIR:-target}
out="$target/artifacts"
cargo build --release -q -p botwall-bench
cargo build --release -q -p botwall --examples
mkdir -p "$out"
for bin in table1 table2 figure2 figure3 figure4 overhead staged decoys ablate_ml \
    examples/quickstart examples/site_protection examples/open_proxy_defense examples/ml_pipeline; do
    name=${bin#examples/}
    "$target/release/$bin" > "$out/$name.1"
    "$target/release/$bin" > "$out/$name.2"
    cmp "$out/$name.1" "$out/$name.2"
    printf '%-9s %s\n' "$name" "$(sha256sum < "$out/$name.1" | cut -c1-16)"
done
