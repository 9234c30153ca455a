#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash monbench/run.sh --workload fabric-blast --seed 1 --seconds 30 --trace 0
# Run from the root of the repository. The build, its Go caches and the
# go command's own config and telemetry files live in .bench_build/
# there, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off
if [ -z "${MONBENCH_COMMIT:-}" ]; then
  MONBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
  export MONBENCH_COMMIT
fi
(cd "$root/monbench" && go build -o "$out/monbench" .) >&2
exec "$out/monbench" "$@"
