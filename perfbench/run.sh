#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload match-heavy --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind goes under .bench_build/ (Go build cache, binary, commit-log
# directories, span dumps), so the run reads and writes only inside the
# checkout and needs no network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
# The go command keeps its telemetry counters and user settings under
# the user config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -dir "$build" "$@"
