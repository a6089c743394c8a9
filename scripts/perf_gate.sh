#!/usr/bin/env bash
# Performance gate: fail when either fig5_10 sweep's simulation throughput
# regresses more than 20% below its recorded snapshot.
#
# Runs `repro fig5_10 --scale quick` (release). The run prints one `perf:`
# line per figure (e.g. `perf: 8.3s simulate · 1603k LLC accesses ·
# 193k/s`), each after its figure's `== Figure N — …, two-core|four-core`
# header. Every perf line is matched, in printed order, to the sweep its
# header names and compared with that sweep's `accesses_per_second` in
# BENCH_6.json's `fig5_10_quick.after.sweep_2core` / `sweep_4core`. The
# gate fails if any line is below 80% of its own sweep's snapshot, or if a
# sweep printed no perf line at all. Counts use the harness's own
# suffixes: plain integers, `NNNk`, or `N.NM`.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=$(cargo run --release -q -p harness --bin repro -- fig5_10 --scale quick)

printf '%s\n' "${OUT}" | python3 -c '
import json
import re
import sys

after = json.load(open("BENCH_6.json"))["fig5_10_quick"]["after"]
SWEEPS = {"two-core": "sweep_2core", "four-core": "sweep_4core"}
floor = {s: after[s]["accesses_per_second"] * 80 // 100 for s in SWEEPS.values()}


def to_num(text):
    """193k, 1.2M or 9500 -> integer accesses per second."""
    scale = {"k": 1e3, "M": 1e6}.get(text[-1])
    return int(float(text[:-1]) * scale) if scale else int(text)


sweep = None
lines = {s: 0 for s in floor}
failed = False
for line in sys.stdin:
    if line.startswith("== "):
        sweep = next((s for tag, s in SWEEPS.items() if tag in line), None)
        continue
    m = re.match(r"perf: .* · ([0-9.]+[kM]?)/s", line)
    if not m:
        continue
    if sweep is None:
        print(f"perf_gate: perf line outside a known sweep: {line.strip()}")
        failed = True
        continue
    rate = to_num(m.group(1))
    lines[sweep] += 1
    verdict = "ok" if rate >= floor[sweep] else "FAIL"
    print(f"perf_gate: {sweep}: measured {rate} accesses/s, "
          f"floor {floor[sweep]} (80% of the BENCH_6.json snapshot) — {verdict}")
    failed |= rate < floor[sweep]
for s, n in lines.items():
    if n == 0:
        print(f"perf_gate: FAIL — no perf: line for {s}")
        failed = True
if failed:
    print("perf_gate: FAIL — a sweep is more than 20% below its BENCH_6.json "
          "snapshot, or missing", file=sys.stderr)
    sys.exit(1)
print("perf_gate: OK")
'
