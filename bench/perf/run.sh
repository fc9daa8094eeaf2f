#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it is run from, then
# runs it with the given arguments (see README.md here).  Run it from
# the root of the checkout:
#
#   bash bench/perf/run.sh --workload corpus-sweep --seed 1 --seconds 15 --trace 0
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "perfbench: run from the root of a hypertree checkout" >&2
  exit 2
fi

# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./bench/perf/main.exe 1>&2
exec ./_build/default/bench/perf/main.exe "$@"
