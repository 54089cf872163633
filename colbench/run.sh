#!/bin/sh
# Builds the columbia CLI and the colbench command from the checkout that
# contains this script, then runs colbench with the given arguments:
#
#	sh colbench/run.sh --workload paper-1core --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary work
# directories, telemetry settings) stays under <checkout>/.bench_build.
# Go telemetry is set to off there: in its default mode the go command
# starts a detached sidecar process once a day per settings directory,
# which would outlive this script.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root"
go build -o "$out/columbia" ./cmd/columbia
go -C colbench build -o "$out/colbench" .
exec "$out/colbench" -root "$root" -cli "$out/columbia" "$@"
