#!/usr/bin/env bash
# Builds the benchmark and the service binaries from the checkout it sits
# in, then runs one workload. Usage, from the root of a checkout:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and each run's scratch files stay
# under .bench_build/ (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dcaserve" || ! -d "$root/internal/job" ]]; then
	echo "perfbench: run from the root of a repository checkout (no go.mod, cmd/dcaserve or internal/job here)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/runs"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Building happens before the benchmark's clock starts; its output goes to
# stderr so the last line of stdout stays the result.
{
	go build -o "$build/bin/dcaserve" ./cmd/dcaserve
	go build -o "$build/bin/dcaworker" ./cmd/dcaworker
	go -C perfbench build -o "$build/bin/perfbench" .
} 1>&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/runs" "$@"
