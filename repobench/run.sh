#!/usr/bin/env bash
# Builds and runs the repository benchmark (README.md in this directory).
#
#   bash repobench/run.sh --workload pod-fleet --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build, its Go cache and the traced
# run's span logs all stay under .bench_build/ there. Outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps its env file and telemetry counters under the user
# config directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$src" && go build -o "$out/bin/repobench" .)
exec "$out/bin/repobench" "$@"
