#!/usr/bin/env bash
# Same-code agreement check: builds once, then runs two interleaved sets
# (A,B,A,B,...) of every workload on that one binary, prints both sets'
# medians and quartiles per metric, and fails when an end-to-end
# metric's medians differ by more than its bound.
#
#   RUNS=3 SEED=1 SECS=20 bash bench/selfcheck.sh
set -euo pipefail
RUNS="${RUNS:-3}"
SEED="${SEED:-1}"
SECS="${SECS:-20}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
bash "$here/run.sh" --build-only
bin="$root/.bench_build/bench"
out="$root/.bench_build/selfcheck"
mkdir -p "$out"
: >"$out/A.txt"
: >"$out/B.txt"
cd "$root"
for i in $(seq 1 "$RUNS"); do
	for set in A B; do
		for w in browse report ingest mixed; do
			echo "selfcheck: run $i set $set workload $w" >&2
			line="$("$bin" --workload "$w" --seed "$SEED" --seconds "$SECS" --trace 0 | tail -n 1)"
			echo "$w $line" >>"$out/$set.txt"
		done
	done
done
"$bin" selfcheck-report "$out/A.txt" "$out/B.txt"
