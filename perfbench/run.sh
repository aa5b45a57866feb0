#!/usr/bin/env bash
# Builds the end-to-end benchmark (the Go module in this directory,
# which imports the repository's packages through a replace directive)
# and runs it with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload campaign --seed 42 --seconds 8 --trace 0
#
# Everything the build and the runs write (Go build cache, binary,
# data directories, traces) stays under .bench_build/ in the root.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (the repository sources are missing here)" >&2
	exit 2
fi
# The standard install location, for environments that leave it off PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
