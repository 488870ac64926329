#!/bin/sh
# Non-test Rust lines per crate: the "net-negative LOC" figure of a
# CHANGES.md entry, counted the same way every time.
#
#   tools/loc.sh [REV]
#   tools/loc.sh --files
#
# Counts every line (code, comments, blanks) of every `.rs` file outside
# `tests/` directories and outside `#[cfg(test)]` items, grouped by crate
# (`crates/<name>`, `crates/vendor/<name>`, the root package `hades` =
# `src/`, `benchmark`, `examples`). Without REV: the worktree (tracked
# and untracked files, minus ignored ones). With REV (e.g. `HEAD~1`, or
# `HEAD` before committing): the same count at that revision next to it,
# and the delta worktree - REV per crate and in total. With --files: the
# worktree's count per file instead of per crate, largest first, as
# "<lines> <path>" (the CI file-size gate reads this).
set -eu
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev=${1:-}

# Reads "<<< path" headers followed by file contents; prints
# "<crate> <lines>" per crate, or "<path> <lines>" per file with BY=file.
count() {
    awk -v by="${BY:-crate}" '
        function crate_of(path,    part) {
            if (by == "file") return path
            split(path, part, "/")
            if (part[1] == "crates") return part[2] == "vendor" ? "vendor/" part[3] : part[2]
            return part[1] == "src" ? "hades" : part[1]
        }
        /^<<< / { crate = crate_of($2); skip = 0; pending = 0; next }
        skip { if ($0 == close_line) skip = 0; next }
        /^[ \t]*#\[cfg\(test\)\]/ { pending = 1; match($0, /^[ \t]*/); close_line = substr($0, 1, RLENGTH) "}"; next }
        pending && /^[ \t]*#\[/ { next }
        pending { pending = 0; if ($0 ~ /\{$/) skip = 1; next }
        { lines[crate]++ }
        END { for (c in lines) print c, lines[c] }'
}

is_counted() {
    case $1 in
        tests/* | */tests/* | target/* | */target/*) return 1 ;;
        *.rs) return 0 ;;
        *) return 1 ;;
    esac
}

worktree() {
    git ls-files -co --exclude-standard -- '*.rs' | while read -r f; do
        if is_counted "$f" && [ -f "$f" ]; then echo "<<< $f"; cat "$f"; fi
    done | count
}

at_rev() {
    git ls-tree -r --name-only "$1" | while read -r f; do
        if is_counted "$f"; then echo "<<< $f"; git show "$1:$f"; fi
    done | count
}

if [ "$rev" = --files ]; then
    BY=file worktree | awk '{ print $2, $1 }' | sort -k1,1nr -k2
elif [ -z "$rev" ]; then
    worktree | sort | awk '
        { printf "%-22s %7d\n", $1, $2; total += $2 }
        END { printf "%-22s %7d\n", "total", total }'
else
    { worktree | sed 's/^/now /'; at_rev "$rev" | sed 's/^/rev /'; } | awk -v rev="$rev" '
        { seen[$2] = 1; n[$1, $2] = $3 }
        END {
            printf "%-22s %9s %9s %7s\n", "crate", "worktree", rev, "delta"
            while (1) {
                best = ""
                for (c in seen) if (best == "" || c < best) best = c
                if (best == "") break
                delete seen[best]
                a = n["now", best] + 0; b = n["rev", best] + 0
                printf "%-22s %9d %9d %+7d\n", best, a, b, a - b
                ta += a; tb += b
            }
            printf "%-22s %9d %9d %+7d\n", "total", ta, tb, ta - tb
        }'
fi
