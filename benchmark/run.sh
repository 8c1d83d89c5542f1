#!/usr/bin/env bash
# Builds the benchmark of record from source and runs it. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload kernels --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain writes (build cache, temporaries, the
# benchmark binary, native-tier binaries) stays under .bench_build/ in the
# repository root, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go build -C "$root/benchmark" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --root "$root" "$@"
