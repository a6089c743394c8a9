#!/usr/bin/env bash
# Performance gate for the two fig5_10 sweeps, and the tool that records
# the snapshots it gates against.
#
#   scripts/perf_gate.sh              gate the current build
#   scripts/perf_gate.sh --record N   write BENCH_N.json from three runs
#
# Both modes run `repro fig5_10 --scale quick` (release) three times. Each
# run prints one `perf:` line per figure (e.g. `perf: 8.3s simulate · 1603k LLC
# accesses · 193k/s`), each after its figure's `== Figure N — …,
# two-core|four-core` header; every perf line is matched, in printed
# order, to the sweep its header names. Counts use the harness's own
# suffixes: plain integers, `NNNk`, or `N.NM`.
#
# The snapshot is the newest `BENCH_<N>.json` (highest N) whose
# `fig5_10_quick.after` carries both `sweep_2core` and `sweep_4core`.
#
# A run counts once per sweep, and each sweep's figure is its median run
# (by accesses/s): the gate compares the statistic the snapshot recorded,
# so one noisy run on a shared host cannot fail it alone.
#
# Gate: fails if a sweep's median is below 80% of its own snapshot
# `accesses_per_second`, or if a sweep printed no perf line at all.
#
# Record: writes `BENCH_N.json` with each sweep's median run and all
# three rates. Floors only rise: it refuses to write a median below that
# of the newest snapshot numbered below N.
set -euo pipefail
cd "$(dirname "$0")/.."

RECORD=""
case "${1:-}" in
"") ;;
--record)
    RECORD="${2:?--record needs a snapshot number N}"
    [[ "${RECORD}" =~ ^[0-9]+$ ]] || {
        echo "perf_gate: --record takes a number, got '${RECORD}'" >&2
        exit 2
    }
    ;;
*)
    echo "usage: scripts/perf_gate.sh [--record N]" >&2
    exit 2
    ;;
esac

cargo build --release -q -p harness --bin repro
OUT=""
for _ in 1 2 3; do
    OUT+="#run"$'\n'$(./target/release/repro fig5_10 --scale quick)$'\n'
done

PERF_OUT="${OUT}" python3 - "${RECORD}" <<'PY'
import datetime
import glob
import json
import os
import re
import sys

RECORD = sys.argv[1]
SWEEPS = {"two-core": "sweep_2core", "four-core": "sweep_4core"}
PCT = 80


def snapshot():
    """(file, after) of the newest BENCH_<N>.json carrying both sweeps; when
    recording snapshot N, the newest one before N."""
    found = []
    for path in glob.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path)
        if not m or (RECORD and int(m.group(1)) >= int(RECORD)):
            continue
        after = json.load(open(path)).get("fig5_10_quick", {}).get("after", {})
        if all(s in after for s in SWEEPS.values()):
            found.append((int(m.group(1)), path, after))
    if not found:
        sys.exit("perf_gate: no BENCH_<N>.json carries fig5_10_quick.after.sweep_{2,4}core")
    _, path, after = max(found)
    return path, after


def to_num(text):
    """193k, 1.2M or 9500 -> integer."""
    scale = {"k": 1e3, "M": 1e6}.get(text[-1])
    return int(float(text[:-1]) * scale) if scale else int(text)


def perf_lines(lines):
    """Yields (sweep, simulate_seconds, accesses, rate) per perf line, or
    (None, ...) for a perf line outside a known sweep."""
    sweep = None
    for line in lines:
        if line.startswith("== "):
            sweep = next((s for tag, s in SWEEPS.items() if tag in line), None)
            continue
        m = re.match(r"perf: ([0-9.]+)s simulate · ([0-9.]+[kM]?) LLC accesses · ([0-9.]+[kM]?)/s", line)
        if m:
            yield sweep, float(m.group(1)), to_num(m.group(2)), to_num(m.group(3)), line


path, after = snapshot()
floor = {s: after[s]["accesses_per_second"] * PCT // 100 for s in SWEEPS.values()}
# Each run's figures print their sweep's perf line once per figure; a
# run counts once per sweep.
runs = {s: [] for s in floor}
failed = False
for chunk in os.environ["PERF_OUT"].split("#run\n")[1:]:
    seen = set()
    for sweep, seconds, accesses, rate, line in perf_lines(chunk.splitlines()):
        if sweep is None:
            print(f"perf_gate: perf line outside a known sweep: {line.strip()}")
            failed = True
            continue
        if sweep not in seen:
            seen.add(sweep)
            runs[sweep].append({"simulate_seconds": seconds, "sim_accesses": accesses,
                                "accesses_per_second": rate})
median = {}
for s, got in runs.items():
    if not got:
        print(f"perf_gate: FAIL — no perf: line for {s}")
        failed = True
        continue
    median[s] = sorted(got, key=lambda r: r["accesses_per_second"])[len(got) // 2]
    if not RECORD:
        rate = median[s]["accesses_per_second"]
        verdict = "ok" if rate >= floor[s] else "FAIL"
        rates = ", ".join(str(r["accesses_per_second"]) for r in got)
        print(f"perf_gate: {s}: median {rate} accesses/s of runs [{rates}], "
              f"floor {floor[s]} ({PCT}% of the {path} snapshot) — {verdict}")
        failed |= rate < floor[s]
if failed:
    print(f"perf_gate: FAIL — a sweep is more than {100 - PCT}% below its {path} "
          "snapshot, or missing", file=sys.stderr)
    sys.exit(1)
if not RECORD:
    print("perf_gate: OK")
    sys.exit(0)

record = {}
for s, got in runs.items():
    rates = [r["accesses_per_second"] for r in got]
    rate, old = median[s]["accesses_per_second"], after[s]["accesses_per_second"]
    if rate < old:
        sys.exit(f"perf_gate: refusing to record {s} at {rate} accesses/s, "
                 f"below the {old} of {path}: floors only rise")
    record[s] = dict(median[s], runs_accesses_per_second=rates)
out = f"BENCH_{RECORD}.json"
snap = json.dumps({
    "pr": int(RECORD),
    "title": "fig5_10 quick snapshot recorded by scripts/perf_gate.sh --record",
    "methodology": {
        "end_to_end": "repro fig5_10 --scale quick (release), run three times; "
                      "per sweep, the run with the median accesses/s",
        "gate": f"scripts/perf_gate.sh fails when a sweep's median of three runs "
                f"is below {PCT}% of accesses_per_second",
    },
    "fig5_10_quick": {"after": record},
    "environment": {"date": datetime.date.today().isoformat(), "cpus": os.cpu_count()},
}, indent=2)
with open(out, "w") as f:
    f.write(snap + "\n")
for s, r in record.items():
    rate = r["accesses_per_second"]
    print(f"perf_gate: {out}: {s} {rate} accesses/s, floor {rate * PCT // 100}")
PY
