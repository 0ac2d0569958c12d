#!/bin/sh
# Builds the benchmark harness from source and runs it with the given
# arguments; run it from the repository root:
#
#   sh bench/workloads/run.sh --workload fig2-clique16 --seed 7 --seconds 20 --trace 0
#
# Build output goes to stderr, so the harness's result stays the last line
# of stdout.  The dune cache is off and the compiler's temporary files go
# under _build, so nothing is written outside the checkout.
set -e
export DUNE_CACHE=disabled
export TMPDIR="$PWD/_build/tmp"
mkdir -p "$TMPDIR"
dune build --root . --display quiet ./bench/workloads/main.exe 1>&2
exec ./_build/default/bench/workloads/main.exe "$@"
