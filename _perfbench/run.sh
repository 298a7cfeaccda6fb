#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# directory, which must be the repository root, and runs it with the
# given arguments, for example:
#
#   bash _perfbench/run.sh --workload browse --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (compiler cache, temporary files, Go's
# telemetry and configuration, the binary) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
if [ -z "${TIOGA_GIT_REV:-}" ] && [ -e "$root/.git" ]; then
	TIOGA_GIT_REV=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export TIOGA_GIT_REV
fi
(cd "$root/_perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
