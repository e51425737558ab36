#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload list-st --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; stdout is the benchmark's alone.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/benchmark.exe 1>&2
exec ./_build/default/perfbench/benchmark.exe "$@"
