#!/usr/bin/env bash
# Performance gate for the three paper sweeps (fig5_10's two-core and
# four-core, eight_core's eight-core): this checkout against a base commit,
# both built and run on the same host.
#
#   scripts/perf_gate.sh [BASE]      BASE is a git revision (default HEAD~1)
#
# Builds `repro` from this checkout and from BASE, which is exported with
# `git archive` into a temporary directory and built there with its own
# target directory. Then runs `repro fig5_10 --scale quick` and `repro
# eight_core --scale quick` three times per side, alternating which side
# goes first. Each run prints one `perf:` line per sweep (e.g. `perf: 8.3s
# simulate · 1603k LLC accesses · 193k/s`), after the first figure of that
# sweep, whose `== Figure N — …` header names `two-core`, `four-core` or
# `eight-core`; every perf line is matched, in printed order, to the sweep
# the header above it names, and a run counts once per sweep. Counts use
# the harness's own suffixes: plain integers, `NNNk`, or `N.NM`.
#
# Gate: fails if a sweep's median accesses/s on this checkout is below 80%
# of the base's median, or if a sweep printed no perf line on either side.
# Each sweep is gated on its own, so a slower eight-core sweep cannot hide
# behind faster two- and four-core ones.
# Both sides share the host, so the gate holds whatever the host's speed
# (a fixed snapshot floor recorded on a slower host let a 2x slowdown
# pass), and the median of three keeps one noisy run from deciding it.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REV="${1:-HEAD~1}"
BASE=$(git rev-parse --verify --quiet "${BASE_REV}^{commit}") || {
    echo "perf_gate: '${BASE_REV}' names no commit" >&2
    exit 2
}

TMP=$(mktemp -d)
trap 'rm -rf "${TMP}"' EXIT

cargo build --release -q -p harness --bin repro
cp target/release/repro "${TMP}/repro-head"
mkdir "${TMP}/base"
git archive "${BASE}" | tar -x -C "${TMP}/base"
cargo build --release -q -p harness --bin repro \
    --manifest-path "${TMP}/base/Cargo.toml" --target-dir "${TMP}/base/target"
cp "${TMP}/base/target/release/repro" "${TMP}/repro-base"

OUT=""
for round in 1 2 3; do
    if ((round % 2)); then order="base head"; else order="head base"; fi
    for side in ${order}; do
        OUT+="#run ${side}"$'\n'$("${TMP}/repro-${side}" fig5_10 --scale quick)$'\n'
        OUT+=$("${TMP}/repro-${side}" eight_core --scale quick)$'\n'
    done
done

PERF_OUT="${OUT}" python3 - "${BASE_REV}" <<'PY'
import os
import re
import sys

BASE = sys.argv[1]
SWEEPS = {"two-core": "sweep_2core", "four-core": "sweep_4core", "eight-core": "sweep_8core"}
PCT = 80


def to_num(text):
    """193k, 1.2M or 9500 -> integer."""
    scale = {"k": 1e3, "M": 1e6}.get(text[-1])
    return int(float(text[:-1]) * scale) if scale else int(text)


def perf_lines(lines):
    """Yields (sweep, rate, line) per perf line, or (None, ...) for a perf
    line outside a known sweep."""
    sweep = None
    for line in lines:
        if line.startswith("== "):
            sweep = next((s for tag, s in SWEEPS.items() if tag in line), None)
            continue
        m = re.match(r"perf: [0-9.]+s simulate · [0-9.]+[kM]? LLC accesses · ([0-9.]+[kM]?)/s", line)
        if m:
            yield sweep, to_num(m.group(1)), line


runs = {side: {s: [] for s in SWEEPS.values()} for side in ("base", "head")}
failed = False
for chunk in os.environ["PERF_OUT"].split("#run ")[1:]:
    side, _, body = chunk.partition("\n")
    seen = set()
    for sweep, rate, line in perf_lines(body.splitlines()):
        if sweep is None:
            print(f"perf_gate: perf line outside a known sweep: {line.strip()}")
            failed = True
        elif sweep not in seen:
            seen.add(sweep)
            runs[side][sweep].append(rate)
for s in SWEEPS.values():
    base, head = runs["base"][s], runs["head"][s]
    if not base or not head:
        print(f"perf_gate: FAIL — no perf: line for {s} (base {len(base)} runs, checkout {len(head)})")
        failed = True
        continue
    base_median = sorted(base)[len(base) // 2]
    head_median = sorted(head)[len(head) // 2]
    ok = head_median * 100 >= base_median * PCT
    print(f"perf_gate: {s}: checkout median {head_median} accesses/s of {head}, "
          f"base {BASE} median {base_median} of {base}: "
          f"{head_median / base_median:.0%} — {'ok' if ok else 'FAIL'}")
    failed |= not ok
if failed:
    print(f"perf_gate: FAIL — a sweep is more than {100 - PCT}% slower than at {BASE}, "
          "or missing", file=sys.stderr)
    sys.exit(1)
print("perf_gate: OK")
PY
