#!/usr/bin/env bash
# Builds rfidbench (Release, in its own build directory) and runs it with
# the given arguments. Run from the root of a checkout:
#
#   bash bench/rfidbench/run.sh --workload analytic_5rules --seed 1 \
#       --seconds 10 --trace 0
#
# Build, result and working files go under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout. Build output goes to stderr, so the last
# line of standard output is the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$root/$out" ;;
esac
build="$out/cmake"

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target rfidbench -j "$(nproc)" >&2

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

exec "$build/rfidbench" --out "$out/results" --work "$out/work" \
  --commit "$commit" "$@"
