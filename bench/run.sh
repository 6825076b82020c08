#!/usr/bin/env bash
# run.sh is the benchmark's command (see BENCHMARK.json). It builds the
# driver and cws-serve from source into .bench_build/ at the repository
# root and runs the driver with the arguments given:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Go's build cache, temporary files, module path and configuration directory
# are kept under .bench_build/ too, so that building and running read and
# write nothing outside the checkout (the toolchain itself excepted).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/cws-e2e" ./cmd/cws-e2e
go build -o "$build/cws-serve" ./cmd/cws-serve
exec "$build/cws-e2e" -serve "$build/cws-serve" -dir "$build" "$@"
