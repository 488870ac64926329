#!/bin/sh
# Alternating parent/change pairs of one lab workload: the procedure a
# performance claim is judged by (guides: >= 10 pairs, alternate which
# side runs first, win >= 9/10, medians apart by more than the parent's
# own quartile distance).
#
#   tools/ab_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [SEED [SECONDS [PAIRS [METRIC]]]]
#
# PARENT_BIN / CHANGE_BIN are two built `hades-benchmark` executables,
# e.g. from `cargo build --release --offline --manifest-path
# benchmark/Cargo.toml` in a `git clone` of the parent commit and in this
# checkout, each with its own CARGO_TARGET_DIR. Defaults: seed 7, 15
# seconds per run, 10 pairs, metric `run_s` (any `--trace 0` metric name;
# lower is taken as better). Every run goes through the driver form
# `--workload W --seed N --seconds S --trace 0`, one process at a time.
#
# Prints one line per run (value, digest, failed count), then each side's
# median and quartiles and the win count. Exits 1 if any run reports a
# failure or the two sides' digests differ (the change moved behaviour).
# With AB_LOG=file, the full output of every run is appended to it (the
# other end-to-end metrics of the same runs: setup_s, peak_rss_mb, sim_*).
set -eu
[ $# -ge 3 ] || { sed -n '2,21p' "$0" >&2; exit 2; }
parent=$1 change=$2 workload=$3
seed=${4:-7} seconds=${5:-15} pairs=${6:-10} metric=${7:-run_s}

# One run: "<value> <digest> <failed>".
run() {
    out=$("$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) || true
    printf '== %s\n%s\n' "$1" "$out" >>"${AB_LOG:-/dev/null}"
    printf '%s\n' "$out" | awk -v w="$workload" -v m="$metric" '
        $1 == w && $2 == m { value = $3 }
        $1 == w && $2 == "digest" { digest = $3 }
        /^\{"correct"/ { if (match($0, /"failed": [0-9]+/)) failed = substr($0, RSTART + 10, RLENGTH - 10) }
        END { print (value == "" ? "nan" : value), (digest == "" ? "-" : digest), (failed == "" ? "?" : failed) }'
}

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then first=parent; else first=change; fi
    if [ "$first" = parent ]; then p=$(run "$parent"); c=$(run "$change"); else c=$(run "$change"); p=$(run "$parent"); fi
    echo "pair $i ($first first)  parent $p  change $c"
    echo "$p $c" >>"$rows"
    i=$((i + 1))
done

awk -v m="$metric" -v w="$workload" -v seed="$seed" '
    function quantile(v, n, q,    pos, lo, frac) {
        pos = (n - 1) * q; lo = int(pos); frac = pos - lo
        return lo + 1 < n ? v[lo + 1] + frac * (v[lo + 2] - v[lo + 1]) : v[n]
    }
    function sort(v, n,    i, j, t) {
        for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    }
    {
        n++; p[n] = $1; c[n] = $4
        if ($4 < $1) wins++; else if ($4 > $1) losses++
        if ($3 != "0" || $6 != "0") bad = 1
        if ($2 != $5) moved = 1
    }
    END {
        sort(p, n); sort(c, n)
        printf "%s %s seed %s: parent median %g [q1 %g q3 %g]  change median %g [q1 %g q3 %g]\n", w, m, seed,
            quantile(p, n, 0.5), quantile(p, n, 0.25), quantile(p, n, 0.75),
            quantile(c, n, 0.5), quantile(c, n, 0.25), quantile(c, n, 0.75)
        printf "change/parent %.3f, change wins %d of %d pairs (%d losses); parent quartile distance %g, median gap %g\n",
            quantile(c, n, 0.5) / quantile(p, n, 0.5), wins, n, losses,
            quantile(p, n, 0.75) - quantile(p, n, 0.25), quantile(p, n, 0.5) - quantile(c, n, 0.5)
        if (bad) print "FAILED RUNS: some run reported failed != 0"
        if (moved) print "DIGESTS DIFFER: the change moved behaviour"
        exit (bad || moved)
    }' "$rows"
