#!/usr/bin/env bash
# Build the benchmark and the raha CLI from this checkout's sources, then
# run the benchmark with the given arguments (see benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./benchmark/main.exe ./bin/raha_cli.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
