#!/bin/sh
# One command, every metric: all five workloads, untraced then traced,
# one process each, strictly one after the other. Prints one line per
# metric, writes benchmark/out/results.json, exits non-zero if any
# workload check fails. Arguments replace the default `all --seed 7`
# (see `src/main.rs`: --workload NAME, --layers, --check-repeat, --list).
set -eu
[ $# -gt 0 ] || set -- all --seed 7
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
