# Sourced by scripts/loc.sh and scripts/serving_surface.sh: which Rust
# source is test code.
#
# A file's in-file test module is a `#[cfg(test)]` line with a `mod`
# line (`mod_line`) next; each script's awk stops reading the file there.
# A `#[cfg(test)]` with `mod x;` next declares an out-of-line test module:
# those two lines are test code, the file goes on, and `non_test_files`
# leaves out the file that `mod x;` names.

mod_line='^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]'

# Every *.rs file under the given directories (missing ones hold none),
# one path a line, but the files of out-of-line test modules: for
# `#[cfg(test)] mod x;` in `dir/lib.rs`, `dir/main.rs` or `dir/mod.rs`,
# `dir/x.rs`; in `dir/y.rs`, `dir/y/x.rs`.
non_test_files() {
    local files
    files=$(find "$@" -name '*.rs' -not -path '*/target/*' 2>/dev/null | sort)
    [[ -n $files ]] || return 0
    tr '\n' '\0' <<< "$files" \
        | xargs -0 awk 'cfg && /'"$mod_line"'[A-Za-z0-9_]+[[:space:]]*;/ {
                name = $0
                sub(/^.*mod[[:space:]]+/, "", name)
                sub(/[[:space:]]*;.*$/, "", name)
                dir = FILENAME
                if (dir ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir)
                else sub(/\.rs$/, "", dir)
                print dir "/" name ".rs"
            }
            { cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }' \
        | grep -vxF -f - <(echo "$files") || true
}
