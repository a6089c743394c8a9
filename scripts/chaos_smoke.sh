#!/usr/bin/env bash
# Chaos smoke: run the fig5_10 quick sweep as a two-worker fleet under a
# fixed-seed corruption-heavy chaos schedule (NDJSON corruption, result
# truncation, cell panics), then require either a clean bit-identical
# completion or an fsck-clean chaos-free resume that is bit-identical.
# A negative step then hand-truncates a durable cell file and checks the
# damage is quarantined and recomputed — never merged.
#
# This is the release-mode twin of crates/harness/tests/fleet_chaos.rs;
# the schedule is reproducible from the FLEET_CHAOS spec alone.
set -euo pipefail
cd "$(dirname "$0")/.."

CHAOS_SPEC="${CHAOS_SPEC:-1:corrupt}"

WORK=$(mktemp -d "${TMPDIR:-/tmp}/chaos_smoke.XXXXXX")
trap 'rm -rf "${WORK}"' EXIT
GOLDEN="${WORK}/golden"
FLEET="${WORK}/fleet"

cargo build --release -q -p harness --bin repro
REPRO=target/release/repro

echo "chaos_smoke: golden single-process run"
"${REPRO}" fig5_10 --scale quick --json "${GOLDEN}" > "${WORK}/golden.out"

echo "chaos_smoke: fleet run under FLEET_CHAOS=${CHAOS_SPEC}"
if FLEET_CHAOS="${CHAOS_SPEC}" FLEET_BACKOFF_MS=10 \
    "${REPRO}" fig5_10 --scale quick --workers 2 --json "${FLEET}" \
    > "${WORK}/fleet.out" 2> "${WORK}/fleet.err"; then
  echo "chaos_smoke: chaos run completed in one invocation"
else
  echo "chaos_smoke: chaos run failed (expected under heavy faults); resuming chaos-free"
  "${REPRO}" fig5_10 --scale quick --workers 2 --resume --json "${FLEET}" \
      > /dev/null 2> "${WORK}/resume.err" || {
    echo "chaos_smoke: FAIL — chaos left an unresumable store" >&2
    cat "${WORK}/fleet.err" "${WORK}/resume.err" >&2
    exit 1
  }
fi
grep -q '# chaos:' "${WORK}/fleet.err" || {
  echo "chaos_smoke: FAIL — chaos engine logged no firing (nothing was tested)" >&2
  cat "${WORK}/fleet.err" >&2
  exit 1
}

echo "chaos_smoke: fsck after chaos"
if ! "${REPRO}" fsck "${FLEET}" > "${WORK}/fsck.out"; then
  "${REPRO}" fsck --repair "${FLEET}" > "${WORK}/fsck_repair.out" || {
    echo "chaos_smoke: FAIL — fsck --repair could not restore the store" >&2
    cat "${WORK}/fsck.out" "${WORK}/fsck_repair.out" >&2
    exit 1
  }
  "${REPRO}" fsck "${FLEET}" > "${WORK}/fsck2.out" || {
    echo "chaos_smoke: FAIL — store still inconsistent after repair" >&2
    cat "${WORK}/fsck2.out" >&2
    exit 1
  }
fi

echo "chaos_smoke: comparing merged figures against the golden run"
for fig in figure5 figure6 figure7 figure8 figure9 figure10; do
  cmp "${GOLDEN}/${fig}.json" "${FLEET}/${fig}.json" || {
    echo "chaos_smoke: FAIL — ${fig}.json differs from the single-process run" >&2
    exit 1
  }
done

echo "chaos_smoke: negative step — hand-truncated cell must be quarantined"
CELLS=("${FLEET}/cells/"*.json)
VICTIM=${CELLS[0]}
ORIG_BYTES=$(wc -c < "${VICTIM}")
head -c $((ORIG_BYTES / 2)) "${VICTIM}" > "${VICTIM}.tmp" && mv "${VICTIM}.tmp" "${VICTIM}"
"${REPRO}" fig5_10 --scale quick --workers 2 --resume --json "${FLEET}" \
    > /dev/null 2> "${WORK}/neg.err" || {
  echo "chaos_smoke: FAIL — resume over a truncated cell did not recover" >&2
  cat "${WORK}/neg.err" >&2
  exit 1
}
grep -q 'quarantined' "${WORK}/neg.err" || {
  echo "chaos_smoke: FAIL — the truncated cell was not quarantined" >&2
  cat "${WORK}/neg.err" >&2
  exit 1
}
[ -n "$(ls -A "${FLEET}/cells/quarantine" 2>/dev/null)" ] || {
  echo "chaos_smoke: FAIL — quarantine directory is empty" >&2
  exit 1
}
for fig in figure5 figure6 figure7 figure8 figure9 figure10; do
  cmp "${GOLDEN}/${fig}.json" "${FLEET}/${fig}.json" || {
    echo "chaos_smoke: FAIL — ${fig}.json changed after quarantine+recompute" >&2
    exit 1
  }
done
echo "chaos_smoke: OK — chaos run bit-identical, damage quarantined, store fsck-clean"
