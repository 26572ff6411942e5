#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   bash perfbench/run.sh --workload serve_md5|serve_cpu|fleet_flash|mc_quick \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root.  The build goes to _build/ (dune's
# shared cache is off, so nothing is written outside the checkout),
# JIT kernels to _jit_cache/, traces to .perfbench_out/.  The last
# line of standard output is the result object.
set -euo pipefail

DUNE_CACHE=disabled dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
