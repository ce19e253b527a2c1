#!/usr/bin/env bash
# Builds qacbench from source and runs one measured workload:
#   bash bench/suite/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line of stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . bench/suite/qacbench.exe 1>&2
exec ./_build/default/bench/suite/qacbench.exe run "$@"
