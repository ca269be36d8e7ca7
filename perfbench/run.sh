#!/usr/bin/env bash
# Builds the toolchain and the benchmark harness from the checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload edit-large --seed 1 --seconds 12 --trace 0
#
# Every build output, the Go build cache and the scratch state stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mcc" || ! -f "$root/BENCHMARK.json" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/mcc and BENCHMARK.json not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
out="$out/perfbench"
mkdir -p "$out/bin" "$out/work" "$out/home"

# The go command's cache, module cache, config and telemetry all live
# under $HOME or the variables below; point every one into the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off
go build -o "$out/bin/" ./cmd/mcc ./cmd/ipra-served
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -spec "$root/BENCHMARK.json" -bin "$out/bin" -work "$out/work" "$@"
