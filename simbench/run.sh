#!/usr/bin/env bash
# Builds the simulator benchmark from this checkout's sources and runs it.
#
#   bash simbench/run.sh --workload fig3|overload|sweep --seed N --seconds S --trace 0|1
#
# Run from the repository root. The Go build cache, temp files, GOPATH,
# the binary and every run output stay under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/simbench/go.mod" ]; then
	echo "simbench: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/simbench" && go build -trimpath -o "$build/simbench-bin" .)
exec "$build/simbench-bin" --out "$build/simbench" --commit "$commit" "$@"
