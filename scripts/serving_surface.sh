#!/usr/bin/env bash
# The serving crates' orphaned public surface: every name declared `pub`
# in the non-test code of the seven crates `botwall-serve` links (`http`,
# `sessions`, `core`, `instrument`, `captcha`, `gateway`, `serve`, its
# `main.rs` included) that no other non-test line of those crates names.
# Such a name is read, if at all, by the in-process clients, the offline
# study, `benchmark/` or tests; `scripts/serving_surface.expected` lists
# each one with the reason it stays.
#
# Grep-based, like `scripts/deps.sh`: a name is read when it appears as a
# whole word (`[A-Za-z0-9_]` runs) on any other non-test line, strings and
# trailing comments included. So an orphan whose name is common (`new`,
# `len`, a name declared twice) can be missed, but a name that is read is
# never printed. Not read: comment lines, the lines of a `pub use`
# (re-exporting a name does not read it), each file's in-file test module
# and each out-of-line `#[cfg(test)] mod x;` file. A declaration under
# `#[cfg(test)]` is test code and is not printed.
#
# Each orphan prints as `<file> <Type::name>`. One the expected file lists
# (`<file> <Type::name>  # <reason>`) prints as that line, so
#
#   scripts/serving_surface.sh | diff scripts/serving_surface.expected -
#
# shows exactly the new orphans (no reason) and the stale entries (a name
# something now reads, or that is gone).
set -euo pipefail
cd "$(dirname "$0")/.."

crates=(http sessions core instrument captcha gateway serve)
dirs=()
for crate in "${crates[@]}"; do
    dirs+=("crates/$crate/src")
done

source scripts/non_test.sh

non_test_files "${dirs[@]}" | tr '\n' '\0' \
    | xargs -0 awk -v expected=scripts/serving_surface.expected '
    BEGIN {
        while ((getline line < expected) > 0) {
            split(line, f, " ")
            if (line ~ /  # [^ ]/) reason[f[1] " " f[2]] = line
        }
    }
    FNR == 1 { in_tests = 0; cfg = 0; in_use = 0; type = "" }
    in_tests { next }
    cfg && /'"$mod_line"'[A-Za-z0-9_]+[[:space:]]*;/ { cfg = 0; next }
    cfg && /'"$mod_line"'/ { in_tests = 1; next }
    /^[[:space:]]*\/\// { next }
    /^[[:space:]]*pub use / { in_use = 1 }
    in_use { if (/;/) in_use = 0; next }
    # The type a column-0 item or impl block names, for the printed path.
    /^(pub )?(struct|enum|trait|union) / {
        type = $0
        sub(/^(pub )?(struct|enum|trait|union) /, "", type)
        sub(/[^A-Za-z0-9_].*$/, "", type)
    }
    /^impl/ {
        type = $0
        sub(/^impl/, "", type)
        if (type ~ /^</) {
            depth = 0
            for (i = 1; i <= length(type); i++) {
                c = substr(type, i, 1)
                if (c == "<") depth++
                if (c == ">" && --depth == 0) break
            }
            type = substr(type, i + 1)
        }
        if (type ~ / for /) sub(/^.* for /, "", type)
        sub(/^[^A-Za-z_]*/, "", type)
        sub(/[^A-Za-z0-9_].*$/, "", type)
    }
    /^}/ { type = "" }
    !cfg && /^[[:space:]]*pub (((const|unsafe|async) )*fn|struct|enum|trait|type|const|static|union) [A-Za-z_]/ {
        name = $0
        sub(/^[[:space:]]*pub (((const|unsafe|async) )*fn|struct|enum|trait|type|const|static|union) /, "", name)
        sub(/[^A-Za-z0-9_].*$/, "", name)
        declared(name)
    }
    !cfg && /^[[:space:]]+pub [a-z_][A-Za-z0-9_]*:/ {
        name = $0
        sub(/^[[:space:]]+pub /, "", name)
        sub(/:.*$/, "", name)
        declared(name)
    }
    {
        cfg = /^[[:space:]]*#\[cfg\(test\)\]/
        # Each word once per line: a name is read on as many lines as name it.
        n = split($0, words, /[^A-Za-z0-9_]+/)
        delete seen
        for (i = 1; i <= n; i++) {
            if (words[i] != "" && !(words[i] in seen)) {
                seen[words[i]] = 1
                lines[words[i]]++
            }
        }
    }
    function declared(name) {
        decls[++ndecls] = FILENAME " " (type == "" || /^pub/ ? "" : type "::") name
        names[ndecls] = name
    }
    END {
        for (i = 1; i <= ndecls; i++) {
            if (lines[names[i]] > 1) continue
            key = decls[i]
            print (key in reason ? reason[key] : key)
        }
    }' | sort
