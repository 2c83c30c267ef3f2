#!/usr/bin/env bash
# Dependency guard: every `[dependencies]` entry of the root package,
# `crates/*` and `shims/*` must be named in that package's `src/`, as a
# path (`name::`) or an import (`use name as`), with `-` read as `_`. An
# edge only tests, benches or examples use belongs in
# `[dev-dependencies]`; an edge nothing uses goes.
#
#   scripts/deps.sh        # prints each unused edge; exits 1 if any
set -euo pipefail
cd "$(dirname "$0")/.."

unused=0
for manifest in Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    package=$(awk -F'"' '/^\[package\]/ { p = 1 } p && /^name *=/ { print $2; exit }' "$manifest")
    # Entry names of the `[dependencies]` table, up to the next table.
    deps=$(awk '
        /^\[/ { section = $0; next }
        section == "[dependencies]" && /^[A-Za-z0-9_-]/ {
            name = $0
            sub(/[ .=].*/, "", name)
            print name
        }' "$manifest")
    for dep in $deps; do
        crate=${dep//-/_}
        if ! grep -rqE "(^|[^A-Za-z0-9_])${crate}::|use ${crate} as " "$dir/src"; then
            echo "$package -> $dep: not named in $dir/src"
            unused=1
        fi
    done
done
exit $unused
