#!/usr/bin/env bash
# Builds the benchmark and tacd from the checkout it is run in, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload write|scan|hot --seed N --seconds S --trace 0|1
#
# Every build product and cache lives under .bench_build/perfbench, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tacd ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/tacd not found)" >&2
	exit 1
fi

work="$PWD/.bench_build/perfbench"
mkdir -p "$work/bin" "$work/home/.config/go/telemetry"
export HOME="$work/home"
export XDG_CONFIG_HOME="$work/home/.config"
# The go command otherwise starts a detached telemetry upload process that
# outlives the run.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
export XDG_CACHE_HOME="$work/home/.cache"
export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

go build -o "$work/bin/tacd" ./cmd/tacd
(cd perfbench && go build -o "$work/bin/perfbench" .)
exec "$work/bin/perfbench" -work "$work" -tacd "$work/bin/tacd" "$@"
