#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload api-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binary, span
# files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home"

# The run record names the source revision when the checkout is a git
# work tree; the build itself does no VCS stamping, so that a checkout
# that is not one (or sits inside a foreign one) builds the same way.
# The ceiling keeps git from searching above the checkout.
export GIT_CEILING_DIRECTORIES
GIT_CEILING_DIRECTORIES=$(dirname "$root")
PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$PERFBENCH_COMMIT" != unknown ] && ! git -C "$root" diff --quiet HEAD -- 2>/dev/null; then
	PERFBENCH_COMMIT="$PERFBENCH_COMMIT+dirty"
fi
export PERFBENCH_COMMIT

# Keep the toolchain off the network and out of the user's home: the
# module needs nothing but the standard library and the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOENV=off CGO_ENABLED=0

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
