#!/usr/bin/env bash
# Builds the benchmark runner from source, then runs it with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload dense-benign --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the runner's last stdout line is its JSON result.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ]; then
  echo "run.sh: no dune-project here; run from a full source checkout" >&2
  exit 2
fi
dune build --root . --display quiet --cache disabled ./perfbench/workloads.exe 1>&2 || exit 3
exec ./_build/default/perfbench/workloads.exe "$@"
