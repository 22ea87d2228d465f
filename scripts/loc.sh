#!/usr/bin/env bash
# Non-test Rust lines per crate: the counter behind the ROADMAP's "fewer
# non-test lines" acceptance.
#
# Every `*.rs` under a crate's `src/` is counted up to (not including)
# its first `#[cfg(test)]` line — in this workspace the unit-test module
# is always the tail of the file.  Integration tests (`tests/`), benches
# and examples are not counted.  Lines are physical lines: comments and
# blanks count, so the figure moves only when source is added or removed,
# not when it is reformatted into denser expressions.  The in-tree
# dependency shims (`shims/*/src`, same cut rule) get one line of their
# own after the total: they are not the system, but they are code kept.
# Then the number of `too_many_arguments` allowances in non-test source,
# the number of panic sites in it, and the five longest non-test
# functions.
#
# Usage: scripts/loc.sh [ROOT]   (ROOT defaults to the repository root, so
# the same script can count a checkout of another commit)
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Non-test lines of every `*.rs` under the given directories.
count() {
    find "$@" -name '*.rs' -print0 | sort -z \
        | xargs -0 awk 'FNR == 1 { skip = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }'
}

total=0
for src in crates/*/src src; do
    [[ -d "$src" ]] || continue
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$(dirname "$src")/Cargo.toml" | head -n 1)
    lines=$(count "$src")
    printf '%-18s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-18s %6d\n' total "$total"
printf '%-18s %6d\n' shims "$(count shims/*/src)"

# Occurrences of the extended regex $1 in non-test source (same cut
# rule), outside `//` comment lines.  The regex travels through the
# environment, which awk does not unescape.
sites() {
    find crates/*/src src -name '*.rs' -print0 | sort -z | RE="$1" xargs -0 awk '
        FNR == 1 { skip = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
        !skip && !/^[[:space:]]*\/\// { n += gsub(ENVIRON["RE"], "&") }
        END { print n + 0 }'
}

# `#[allow(clippy::too_many_arguments)]` allowances, so "fewer long
# argument lists" is a number too, and panic sites (`panic!`,
# `unreachable!`, `.expect(`, `.unwrap()`), so "fewer ways to panic" is.
printf '%-18s %6d\n' too_many_arguments \
    "$(sites '#\[allow\(clippy::too_many_arguments\)\]')"
printf '%-18s %6d\n' panics "$(sites 'panic!|unreachable!|\.expect\(|\.unwrap\(\)')"

# The five longest non-test functions, `lines file:line name`, so "no
# 500-line function" is a number.  A function runs from its `fn` line to
# the `}` at the same indentation (the tree is rustfmt-formatted);
# bodiless trait declarations end in `;` and are skipped.  (`sed` reads
# to the end of its input: `head` would close the pipe on `sort` and fail
# the script under `pipefail`.)
echo "longest functions:"
find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { skip = 0; split("", start); split("", name) }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    skip { next }
    {
        match($0, /^ */)
        indent = RLENGTH
        if ($0 ~ /^ *(pub(\([a-z]+\))? )?(const )?(unsafe )?fn [A-Za-z0-9_]+/) {
            start[indent] = FNR
            name[indent] = $0
            sub(/^ *(pub(\([a-z]+\))? )?(const )?(unsafe )?fn /, "", name[indent])
            sub(/[^A-Za-z0-9_].*$/, "", name[indent])
            if ($0 ~ /;$/) delete start[indent]
        } else if (indent in start) {
            if ($0 ~ /^ *}$/) {
                printf "%d %s:%d %s\n", FNR - start[indent] + 1, FILENAME, start[indent], name[indent]
                delete start[indent]
            } else if ($0 ~ /^ *\).*;$/) {
                delete start[indent]
            }
        }
    }' | sort -k1,1nr -k2,2 | sed -n '1,5s/^/  /p'
