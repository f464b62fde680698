#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing the
# arguments through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload born-serial --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the Go configuration stay in
# .bench_build; nothing is downloaded.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
