#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository
# root; every argument is passed through:
#
#   bash perfbench/run.sh --workload difftest --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, temporary files and the traced run's
# spans and CPU profiles all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/perfbench"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
# The build needs nothing beyond the checkout and the toolchain: never download.
export GOENV=off GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
