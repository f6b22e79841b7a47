#!/usr/bin/env bash
# Builds the load generator from source into .bench_build/ at the root
# of the checkout and runs it with the driver's arguments:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/.
# `bash bench/run.sh --build-only` stops after the build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# The go command keeps its settings and telemetry counters under the
# user's config directory; point that inside the checkout as well.
export XDG_CONFIG_HOME="$out/config"
# No VCS stamping: the checkout a driver builds in is not a git
# repository, and one that sits inside somebody else's must not fail.
(cd "$here" && go build -buildvcs=false -o "$out/bench" .)
if [ "${1:-}" = "--build-only" ]; then
	exit 0
fi
cd "$root"
BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
exec "$out/bench" "$@"
