#!/usr/bin/env bash
# The nine paper binaries (the tables and figures, and the offline §4.1
# machine-learning stage) built in release, each run twice: the two
# stdouts must be byte-identical (seed 20060106 is baked in). Prints one
# line a binary, the first 16 hex digits of its stdout's sha256, so two
# trees can be compared by their lines.
#
#   scripts/paper_outputs.sh   # exits non-zero if a run fails or differs
set -euo pipefail
cd "$(dirname "$0")/.."

target=${CARGO_TARGET_DIR:-target}
out="$target/artifacts"
cargo build --release -q -p botwall-bench
mkdir -p "$out"
for bin in table1 table2 figure2 figure3 figure4 overhead staged decoys ablate_ml; do
    "$target/release/$bin" > "$out/$bin.1"
    "$target/release/$bin" > "$out/$bin.2"
    cmp "$out/$bin.1" "$out/$bin.2"
    printf '%-9s %s\n' "$bin" "$(sha256sum < "$out/$bin.1" | cut -c1-16)"
done
