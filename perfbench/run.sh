#!/usr/bin/env bash
# Builds avnode and the load generator from the checkout in the current
# directory, then runs one benchmark invocation against a fresh
# three-node durable cluster:
#
#	bash perfbench/run.sh --workload local --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, node data dirs, logs)
# stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/avnode || ! -d internal ]]; then
	echo "perfbench: run from the root of an avdb checkout (go.mod, cmd/avnode, internal/ not found)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/runs"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/avnode" ./cmd/avnode >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -avnode "$build/bin/avnode" -work "$build/runs" "$@"
