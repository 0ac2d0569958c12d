#!/bin/sh
# Repo-wide check: format (if ocamlformat is available), build, unit
# tests, the export audit (fails when a lib/*/*.mli val has no user
# outside its module), and every golden and smoke alias.  Exits non-zero
# on the first failure.  Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$1"; }

step "format"
if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt
else
  echo "ocamlformat not installed — skipping format check"
fi

step "build"
dune build

step "unit tests"
dune runtest

step "export audit (no lib/*/*.mli val is left without a user outside its module)"
summary=$(sh scripts/exports_audit.sh | grep ' vals in lib/')
echo "$summary"
none=$(echo "$summary" | sed -n 's/.*, \([0-9]*\) from no other unit$/\1/p')
if [ "$none" != 0 ]; then
  echo "exports referenced by no other unit: run sh scripts/exports_audit.sh for the list"
  exit 1
fi

step "smoke (instrumented run + metrics validation)"
dune build @smoke

step "chaos campaign (25 seeded fault schedules, with and without fallback, vs committed digests)"
dune build @chaos-campaign

step "parallel smoke (multi-domain sweep == sequential differential)"
dune build @par-smoke

step "trace smoke (causal spans: valid Chrome JSON, seed-stable critical path)"
dune build @trace-smoke

step "metrics golden (same-seed metrics exports match committed digests)"
dune build @metrics-golden

step "scale smoke (reduced 500-AS run vs committed expectation)"
dune build @scale-smoke

step "loss smoke (data-plane loss sweep differential)"
dune build @loss-smoke

step "csv golden (every bench_results CSV regenerates byte for byte)"
dune build @csv-golden

step "bench workloads smoke (fixed-work benchmark workloads, reduced)"
dune build @bench-workloads-smoke

printf '\nall checks passed\n'
