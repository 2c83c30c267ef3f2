#!/usr/bin/env bash
# Builds botwall-serve and the benchmark (release, offline), then runs
# the benchmark. With no arguments: every workload, untraced and traced.
#
#   benchmark/run.sh [--workload <name>] [--seed <n>] [--trace <0|1>]
#                    [--smoke] [--out <dir>]
#
# `--seconds 10` is accepted and changes nothing: BENCHMARK.json's
# run_seconds, handed back by whoever runs its command.
#
# Everything it writes goes under CARGO_TARGET_DIR (default:
# benchmark/target) and, with --out, under that directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet \
  --manifest-path "$root/Cargo.toml" -p botwall-serve --bin botwall-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/botwall-benchmark" run \
  --server "$target/release/botwall-serve" "$@"
