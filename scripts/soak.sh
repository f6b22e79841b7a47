#!/bin/sh
# Long crash-recovery soak: drive the sqldb storage engine and the dlfs
# link registry through randomized disk-fault schedules (internal/iofault
# crash points: torn writes, suppressed renames/truncates,
# dead-after-crash descriptors) and hold them to the durability contract
# — every acknowledged commit and link state change present after
# recovery, no phantom rows or paths, multi-row transactions atomic, and
# a crash history alone never mistaken for corruption.
#
# Usage:
#   scripts/soak.sh                 # 2000 schedules, seed 1, -race
#   SOAK_SCHEDULES=100 scripts/soak.sh
#   SOAK_SEED=$(date +%s) scripts/soak.sh   # a fresh seed band
#   NORACE=1 scripts/soak.sh        # ~5x faster, for huge sweeps
#   SOAK_CHAOS=1 scripts/soak.sh    # also run the crash+cancel chaos
#                                   # schedules (admission pressure,
#                                   # randomly canceled statements, and
#                                   # the canceled-never-visible oracle
#                                   # on top of the durability contract)
#
# Schedule i uses seed SOAK_SEED+i, so a failure report names the exact
# seed to replay: SOAK_SEED=<seed> SOAK_SCHEDULES=1 scripts/soak.sh
# reruns just that schedule (as schedule-000).
#
# CI runs the bounded version of this (see .github/workflows/ci.yml);
# this script is the long-haul knob for release qualification and for
# shaking out rare interleavings after storage-layer changes.

set -e
cd "$(dirname "$0")/.."

SOAK_SCHEDULES="${SOAK_SCHEDULES:-2000}"
SOAK_SEED="${SOAK_SEED:-1}"
RACE="-race"
[ -n "$NORACE" ] && RACE=""

RUN='TestCrashRecoverySoak|TestSoakHonestRefusal|TestCheckpointCrashWindows|TestWALTailCorpus|TestFsyncPoisonsDB|TestStoreCrashSoak|TestRegistryTailCorpus'
[ -n "$SOAK_CHAOS" ] && RUN="$RUN|TestChaosCancelSoak"

echo "soak: $SOAK_SCHEDULES schedules, base seed $SOAK_SEED${RACE:+, race detector on}${SOAK_CHAOS:+, chaos cancel schedules on}"
SOAK_SCHEDULES="$SOAK_SCHEDULES" SOAK_SEED="$SOAK_SEED" \
	CHAOS_SCHEDULES="$SOAK_SCHEDULES" CHAOS_SEED="$SOAK_SEED" \
	go test $RACE -count=1 -timeout 60m \
	-run "$RUN" \
	./internal/sqldb/ ./internal/dlfs/
