#!/usr/bin/env bash
# Builds the program from source, then runs one benchmark workload:
#   bash perfbench/run.sh --workload flow|serve --seed N --seconds S --trace 0|1
# See perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: needs a full source checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
# a shell that did not load the opam environment still finds dune
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
# build output stays inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/hieropt_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
