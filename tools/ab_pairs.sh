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
# With AB_LOG=file, the full output of every run is appended to it.
#
# METRIC `all` judges a no-gain change: the per-run lines show `run_s`,
# and the summary is one row per end-to-end metric of BENCHMARK.json,
# from the same runs — both medians, change/parent, how much worse the
# change reads in the metric's own direction, the bound, the parent's
# quartile distance relative to its median, and a verdict: `ok`, `WORSE`
# (past the bound; exits 1) or `unresolved` (the parent's own quartile
# distance exceeds the bound, so the pair cannot tell — unless every run
# of the change reads better than every run of the parent).
#
#   tools/ab_pairs.sh PARENT_BIN CHANGE_BIN --layers PREFIX [SEED [SECONDS [ROUNDS]]]
#
# The per-layer microbenchmarks instead of a workload: ROUNDS (default 5)
# alternating `--layers --seed N --seconds S` runs of the two binaries,
# then one row per layer metric whose name starts with PREFIX (`cluster.`,
# `telemetry.`, `sim.`; `all` for every one) — both medians over the rounds,
# change/parent and the parent's quartile distance. Layer metrics have no
# bound: the table reports, it does not judge, and always exits 0.
set -eu
[ $# -ge 3 ] || { sed -n '2,40p' "$0" >&2; exit 2; }
parent=$1 change=$2 workload=$3

# awk helpers shared by both summaries: interpolated quantile of a sorted
# 1-based array, and an in-place insertion sort.
stats='
    function quantile(v, n, q,    pos, lo, frac) {
        pos = (n - 1) * q; lo = int(pos); frac = pos - lo
        return lo + 1 < n ? v[lo + 1] + frac * (v[lo + 2] - v[lo + 1]) : v[n]
    }
    function sort(v, n,    i, j, t) {
        for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    }'

if [ "$workload" = --layers ]; then
    prefix=${4:?--layers needs a metric name PREFIX} seed=${5:-7} seconds=${6:-15} rounds=${7:-5}
    cells=$(mktemp)
    trap 'rm -f "$cells"' EXIT
    # One `--layers` run of side $1 (binary $2): "<side> <metric> <value>".
    layers() {
        "$2" --layers --seed "$seed" --seconds "$seconds" | tee -a "${AB_LOG:-/dev/null}" |
            awk -v side="$1" -v prefix="$prefix" '$1 == "layers" && (prefix == "all" || index($2, prefix) == 1) { print side, $2, $3 }' >>"$cells"
    }
    i=1
    while [ "$i" -le "$rounds" ]; do
        if [ $((i % 2)) -eq 1 ]; then layers p "$parent"; layers c "$change"; else layers c "$change"; layers p "$parent"; fi
        echo "round $i of $rounds done" >&2
        i=$((i + 1))
    done
    awk -v seed="$seed" -v rounds="$rounds" "$stats"'
        # Sorts the readings of "<side> <metric>" into v[]; returns their count.
        function sorted(key, v,    n, i) {
            n = count[key]
            for (i = 1; i <= n; i++) v[i] = cell[key, i]
            sort(v, n)
            return n
        }
        { key = $1 " " $2; cell[key, ++count[key]] = $3; if ($1 == "p" && !seen[$2]++) order[++metrics] = $2 }
        END {
            printf "layers seed %s, %d rounds:\n%-40s %14s %14s %8s %12s\n", seed, rounds,
                "metric", "parent median", "change median", "ratio", "parent q3-q1"
            for (m = 1; m <= metrics; m++) {
                name = order[m]; np = sorted("p " name, p); nc = sorted("c " name, c)
                pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
                printf "%-40s %14.6g %14.6g %8s %12.4g\n", name, pm, cm,
                    pm == 0 ? "-" : sprintf("%.3f", cm / pm), quantile(p, np, 0.75) - quantile(p, np, 0.25)
            }
        }' "$cells"
    exit 0
fi
seed=${4:-7} seconds=${5:-15} pairs=${6:-10} metric=${7:-run_s}
shown=$metric
[ "$metric" = all ] && shown=run_s
manifest=$(dirname "$0")/../BENCHMARK.json

runs=$(mktemp)
cells=$(mktemp)
trap 'rm -f "$runs" "$cells"' EXIT

# One run of side $1 (binary $2): appends "<side> <metric> <value>" per
# end-to-end metric to $cells, prints "<shown value> <digest> <failed>".
run() {
    out=$("$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) || true
    printf '== %s\n%s\n' "$2" "$out" >>"${AB_LOG:-/dev/null}"
    printf '%s\n' "$out" | awk -v w="$workload" -v m="$shown" -v side="$1" -v cells="$cells" '
        $1 == w && $2 == "digest" { digest = $3; next }
        $1 == w && NF >= 4 { print side, $2, $3 >>cells; if ($2 == m) value = $3 }
        /^\{"correct"/ { if (match($0, /"failed": [0-9]+/)) failed = substr($0, RSTART + 10, RLENGTH - 10) }
        END { print (value == "" ? "nan" : value), (digest == "" ? "-" : digest), (failed == "" ? "?" : failed) }'
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then first=parent; else first=change; fi
    if [ "$first" = parent ]; then p=$(run p "$parent"); c=$(run c "$change"); else c=$(run c "$change"); p=$(run p "$parent"); fi
    echo "pair $i ($first first)  parent $p  change $c"
    echo "$p $c" >>"$runs"
    i=$((i + 1))
done

# Inputs, in order: the manifest (bound and direction per end-to-end
# metric), the per-run digests and failure counts, the metric cells.
awk -v m="$metric" -v w="$workload" -v seed="$seed" -v manifest="$manifest" -v runs="$runs" "$stats"'
    function field(line, key,    s) {
        if (!match(line, "\"" key "\": *\"?[^\",}]+")) return ""
        s = substr(line, RSTART, RLENGTH); sub(/^[^:]*: *"?/, "", s); return s
    }
    # Loads metric `name` into p[], c[] (pair order), sorted copies into
    # ps[], cs[]; counts wins in its own direction.
    function load(name, higher,    k) {
        n = count["p " name]; wins = losses = 0
        for (k = 1; k <= n; k++) {
            p[k] = ps[k] = cell["p " name, k]; c[k] = cs[k] = cell["c " name, k]
            if (higher ? c[k] > p[k] : c[k] < p[k]) wins++; else if (c[k] != p[k]) losses++
        }
        sort(ps, n); sort(cs, n)
    }
    FILENAME == manifest {
        # `+ 0`: a bound compared as a string would rank a tiny worsening
        # printed as "1e-05" above "0.25".
        if ($0 ~ /"bound"/) { name = field($0, "name"); order[++metrics] = name; bound[name] = field($0, "bound") + 0; better[name] = field($0, "better") }
        next
    }
    FILENAME == runs { if ($3 != "0" || $6 != "0") bad = 1; if ($2 != $5) moved = 1; next }
    { key = $1 " " $2; cell[key, ++count[key]] = $3 }
    END {
        if (m != "all") {
            load(m, 0)
            printf "%s %s seed %s: parent median %g [q1 %g q3 %g]  change median %g [q1 %g q3 %g]\n", w, m, seed,
                quantile(ps, n, 0.5), quantile(ps, n, 0.25), quantile(ps, n, 0.75),
                quantile(cs, n, 0.5), quantile(cs, n, 0.25), quantile(cs, n, 0.75)
            printf "change/parent %.3f, change wins %d of %d pairs (%d losses); parent quartile distance %g, median gap %g\n",
                quantile(cs, n, 0.5) / quantile(ps, n, 0.5), wins, n, losses,
                quantile(ps, n, 0.75) - quantile(ps, n, 0.25), quantile(ps, n, 0.5) - quantile(cs, n, 0.5)
        } else {
            printf "%s seed %s, %d pairs:\n%-24s %14s %14s %8s %8s %6s %8s %6s  %s\n", w, seed, count["p run_s"],
                "metric", "parent median", "change median", "ratio", "worse", "bound", "p-iqr", "wins", "verdict"
            for (i = 1; i <= metrics; i++) {
                name = order[i]; higher = better[name] == "higher"; load(name, higher)
                pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
                worse = pm == 0 ? (cm == pm ? 0 : 1) : (higher ? pm - cm : cm - pm) / pm
                spread = pm == 0 ? 0 : (quantile(ps, n, 0.75) - quantile(ps, n, 0.25)) / pm
                clear = higher ? cs[1] > ps[n] : cs[n] < ps[1]
                verdict = spread > bound[name] && !clear ? "unresolved" : worse > bound[name] ? "WORSE" : "ok"
                if (verdict == "WORSE") regressed = 1
                printf "%-24s %14g %14g %8s %+8.3f %6g %8.3f %3d/%-2d  %s\n", name, pm, cm,
                    pm == 0 ? "-" : sprintf("%.3f", cm / pm), worse, bound[name], spread, wins, n, verdict
            }
        }
        if (bad) print "FAILED RUNS: some run reported failed != 0"
        if (moved) print "DIGESTS DIFFER: the change moved behaviour"
        if (regressed) print "REGRESSION: some metric is worse than its bound"
        exit (bad || moved || regressed)
    }' "$manifest" "$runs" "$cells"
