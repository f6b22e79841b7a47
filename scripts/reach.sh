#!/usr/bin/env bash
# Reach ledger: which statements and functions of the program the four
# benchmark workloads execute. Builds bench/ with coverage
# instrumentation over every package of the repro module, runs each
# workload for a few seconds at a fixed seed with GOCOVERDIR set, then
# prints per-package statement coverage and every function no workload
# reached (0.0%). Only the Go toolchain is used; the binary, the run
# data and the coverage counters live in a temporary directory that is
# removed on exit, so nothing is written into the checkout.
#
# Usage: scripts/reach.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/cover" "$tmp/runs"

export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/bench" && go build -buildvcs=false -cover -coverpkg=repro/... -o "$tmp/bench" .)

for w in browse report ingest mixed; do
	if ! (cd "$tmp" && GOCOVERDIR="$tmp/cover" ./bench -workload "$w" -seed 777 \
		-seconds 3 -dir "$tmp/runs" >"$tmp/$w.out" 2>&1); then
		cat "$tmp/$w.out" >&2
		echo "reach: workload $w failed" >&2
		exit 1
	fi
	echo "reach: ran $w (seed 777, 3s)"
done

echo "== statement coverage by package"
go tool covdata percent -i "$tmp/cover"
echo "== functions no workload reached"
go tool covdata func -i "$tmp/cover" | awk '$NF == "0.0%"'
