#!/usr/bin/env bash
# Builds the benchmark and mira-serve from the checkout it is run in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a mira checkout. Every build product, cache and
# scratch file stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mira-serve" || ! -d "$root/internal/engine" ]]; then
	echo "perfbench: run from the root of a mira checkout (go.mod, cmd/mira-serve or internal/engine missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/bin/perfbench" .
go -C "$root" build -o "$build/bin/mira-serve" ./cmd/mira-serve

exec "$build/bin/perfbench" -serve-bin "$build/bin/mira-serve" -work "$build/work" "$@"
