#!/usr/bin/env bash
# Builds the crt binary and the benchmark from this checkout's sources,
# then runs one benchmark workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . bin/crt.exe perfbench/bench.exe 1>&2
build="${DUNE_BUILD_DIR:-_build}/default"
exec "$build/perfbench/bench.exe" --crt "$build/bin/crt.exe" "$@"
