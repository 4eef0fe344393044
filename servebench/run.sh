#!/usr/bin/env bash
# Builds the served-path benchmark from the checkout's sources and runs
# it with the given arguments, from the root of the checkout:
#
#   bash servebench/run.sh --workload nids-bulk --seed 3 --seconds 40 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/servebench in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C "$root/servebench" build -o "$out/servebench" . >&2
exec "$out/servebench" --out "$out" "$@"
