#!/usr/bin/env bash
# Builds the tick-anatomy benchmark from the checkout's sources and runs
# it. Run from the repository root:
#
#   bash tickbench/run.sh --workload <border-tcp|cascade-fanout|conflict-occ> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes goes under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/tickbench" .) >&2
exec "$out/tickbench" "$@"
