#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the trace files stay under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/core || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
