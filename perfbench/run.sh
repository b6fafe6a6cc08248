#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload conv-ring --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, ledger
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail
root="$PWD"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
