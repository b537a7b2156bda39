#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's scratch files all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root holds no go.mod; run from the repository root" >&2
	exit 2
fi
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
