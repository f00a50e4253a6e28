#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments pass through:
#   bash perfbench/run.sh --workload zoo|fuzz|serve|cpu --seed N --seconds S --trace 0|1
# Temporary files (compile caches, the C toolchain's scratch files) live
# under .perfbench-tmp/ in the repository root and are removed on exit.
set -u
cd "$(dirname "$0")/.." || exit 2
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "perfbench: dune not found" >&2
  exit 2
fi
"${dune[@]}" build --root . ./perfbench/main.exe 1>&2 || {
  echo "perfbench: build failed" >&2
  exit 2
}
tmp="$PWD/.perfbench-tmp/$$"
mkdir -p "$tmp" || exit 2
TMPDIR="$tmp" ./_build/default/perfbench/main.exe "$@"
status=$?
rm -rf "$tmp"
rmdir .perfbench-tmp 2>/dev/null
exit "$status"
