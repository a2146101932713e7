#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash _bench/run.sh --workload mesh8x8-vix-sat --seed 1 --seconds 20 --trace 0
#
# Every build product and scratch file stays under .bench_build/ in the
# current directory (Go build cache included), so the run reads and
# writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOMODCACHE="${out}/gomod" GOTMPDIR="${out}/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "${root}/_bench" && go build -o "${out}/vixbench" .)
exec "${out}/vixbench" -dir "${out}" "$@"
