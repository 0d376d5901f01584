#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload pr-sem --seed 7 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, cache and
# temporary file stays under .bench_build/ in that root (or under
# $CARGO_TARGET_DIR when it is set), so the run reads and writes
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench/run.sh: no go.mod in $root; the benchmark builds the repository's own sources" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GO111MODULE=on

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
