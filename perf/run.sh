#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#
#   bash perf/run.sh --workload serve-write --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ]; then
  echo "perf/run.sh: run from the repository root (no dune-project here)" >&2
  exit 2
fi

# The shared dune cache lives outside the checkout; keep every build
# artefact under _build.
export DUNE_CACHE=disabled
dune build --root . --display quiet perf/perf.exe >&2
exec ./_build/default/perf/perf.exe "$@"
