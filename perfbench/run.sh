#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh --self-check
# Build output goes to standard error; the result is the last line of
# standard output.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no simulator sources here (dune-project and lib/ are missing)" >&2
  exit 1
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
