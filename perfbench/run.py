#!/usr/bin/env python3
"""Layered host-performance benchmark of the coop-partitioning simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` crate (cargo, offline,
into $CARGO_TARGET_DIR or `.bench_build`), then runs the workload as a
closed loop of fresh `perfbench unit` processes, one after another, until
S seconds have been measured. Each unit simulates every cell of the
workload once, one cell at a time on one thread, and prints one JSON
line. A fresh process per unit matters: the solo baselines and sweep
caches memoize process-wide, so a second pass in one process would skip
work and read as a false speed-up.

Units come in two modes. An untraced unit runs the product path
(`System::builder()...run()`, `harness::solo`) and gives the end-to-end
metrics. A traced unit reassembles the same loop from public pieces with
timing wrappers at the layer boundaries and gives the per-layer metrics;
on paper2 it then runs the same cells through the fleet (at most two
worker processes and the checksummed store) and its in-process twin.
Every traced unit (and fleet twin) must reproduce the untraced units'
per-cell result digests bit for bit, and every untraced unit must repeat
the first; a cell that differs, panics or hits the cycle cap is failed.

With --trace 0 the run measures untraced units for S seconds, then runs
one traced unit as the output check, and reports the end-to-end metrics
(medians over the untraced units). With --trace 1 it alternates untraced
and traced units for S seconds and reports the per-layer metrics
(medians over the traced units), including the tracing overhead. Host
time and simulated outcomes are named apart in the printout. The
simulated outcomes are checked only against this repository's own
results: the model is not validated against hardware.

The end-to-end host times are scaled to a reference host speed. Shared
hosts run this code tens of percent faster or slower from one minute to
the next, so an untraced unit samples a fixed reference kernel of the
benchmark's own (`src/gauge.rs`) before and after every solo baseline
and cell and scales each piece's host time by how fast the kernel ran
around it. No change to the simulator moves the kernel's cost, so a
simulator that gets faster shows as faster. The raw host seconds and the
kernel's time are per-layer metrics (`host.*`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["paper2", "stream8", "coord4"]

# (name, unit): host time at the reference speed, except peak memory and
# the two simulated ratios.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("llc_kaccess_per_s", "kaccess/s"),
    ("peak_rss_mib", "MiB"),
    ("ws_vs_fair", "ratio"),
    ("llc_energy_vs_fair", "ratio"),
]

# (name, unit, source): "traced" metrics are medians over traced units,
# "fleet" over the traced units that ran the fleet pass (paper2; 0
# elsewhere), "untraced" over untraced units, "sim" are simulated
# outcomes, "derived" are computed from both unit kinds.
PER_LAYER = [
    ("workloads.self_frac", "frac", "traced"),
    ("workloads.gen_ns_per_instr", "ns/instr", "traced"),
    ("workloads.instrs", "count", "traced"),
    ("cpusim.self_frac", "frac", "traced"),
    ("cpusim.self_ns_per_instr", "ns/instr", "traced"),
    ("cpusim.retired", "count", "traced"),
    ("cpusim.l1d_miss_ratio", "ratio", "traced"),
    ("cpusim.l1i_miss_ratio", "ratio", "traced"),
    ("cpusim.bpred_mispredict_ratio", "ratio", "traced"),
    ("cpusim.prefetch_useful_ratio", "ratio", "traced"),
    ("coop_core.self_frac", "frac", "traced"),
    ("coop_core.llc_ns_per_call", "ns/call", "traced"),
    ("coop_core.llc_calls", "count", "traced"),
    ("coop_core.llc_miss_ratio", "ratio", "traced"),
    ("coop_core.ways_probed_per_access", "ways", "traced"),
    ("coop_core.takeover_transfers", "count", "traced"),
    ("coop_core.forced_transfers", "count", "traced"),
    ("memsim.dram_lines_per_kinstr", "lines/kinstr", "traced"),
    ("memsim.bw_delay_cycles_per_kinstr", "cycles/kinstr", "traced"),
    ("policy.self_frac", "frac", "traced"),
    ("policy.decide_us_per_epoch", "us", "traced"),
    ("policy.decide_us_p99", "us", "traced"),
    ("policy.apply_us_per_epoch", "us", "traced"),
    ("policy.epochs", "count", "traced"),
    ("policy.repartition_ratio", "ratio", "traced"),
    ("policy.dvfs_energy_vs_coop", "ratio", "sim"),
    ("policy.cbp_energy_vs_coop", "ratio", "sim"),
    ("policy.qos_violations", "count", "sim"),
    ("harness.self_frac", "frac", "traced"),
    ("harness.self_ms_per_cell", "ms", "traced"),
    ("harness.build_ms_per_cell", "ms", "traced"),
    ("harness.solo_frac", "frac", "traced"),
    ("fleet.overhead_frac", "frac", "fleet"),
    ("fleet.retries", "count", "fleet"),
    ("fleet.store_kib", "KiB", "fleet"),
    ("trace.overhead_frac", "frac", "derived"),
    ("trace.unattributed_frac", "frac", "traced"),
    ("host.raw_wall_s", "s", "untraced"),
    ("host.gauge_us", "us", "untraced"),
]

# The end-to-end metrics scaled to the reference host speed.
NORMALIZED = {"setup_s", "wall_s", "sim_minstr_per_s", "llc_kaccess_per_s"}

# Units of host-side measurements; every other metric counts simulated
# events or outcomes, which repeat exactly for the same inputs.
HOST_UNITS = {"s", "Minstr/s", "kaccess/s", "MiB", "frac", "ns/instr", "ns/call",
              "us", "ms", "KiB"}
HOST_COUNTS = {"fleet.retries"}

# A run may take 180 s after its build: measurement stops launching units
# at LAUNCH_DEADLINE_S, and no unit outlives RUN_DEADLINE_S.
UNIT_TIMEOUT_S = 60
LAUNCH_DEADLINE_S = 90
RUN_DEADLINE_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Builds the benchmark binary; returns its path or None."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "perfbench" / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log("perfbench: build failed (the benchmark builds the simulator from "
            "the repository's crates; run it from a full checkout)")
        return None
    return target / "release" / "perfbench"


def run_unit(binary, workload, seed, mode, scratch, timeout):
    """Runs one unit process; returns its parsed report or None. The unit
    gets its own process group, so a timeout also stops any fleet workers
    it started."""
    cmd = [str(binary), "unit", "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--scratch", str(scratch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: {mode} unit timed out after {timeout:.0f} s")
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {mode} unit exited {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: {mode} unit printed no report")
        return None


def measure(binary, workload, seed, seconds, trace, scratch):
    """The closed loop: returns (untraced units, traced units, crashed)."""
    untraced, traced, crashed = [], [], 0
    start = time.monotonic()

    def one(mode):
        nonlocal crashed
        left = RUN_DEADLINE_S - (time.monotonic() - start)
        report = None
        if left >= 1:
            timeout = min(UNIT_TIMEOUT_S, left)
            report = run_unit(binary, workload, seed, mode, scratch, timeout)
        if report is None:
            crashed += 1
        else:
            (traced if mode == "traced" else untraced).append(report)

    def keep_going():
        elapsed = time.monotonic() - start
        return elapsed < seconds and elapsed < LAUNCH_DEADLINE_S and crashed == 0

    if trace:
        one("untraced")
        one("traced")
        while keep_going():
            one("untraced")
            one("traced")
    else:
        one("untraced")
        while keep_going():
            one("untraced")
        one("traced")
    return untraced, traced, crashed


def check(untraced, traced, crashed):
    """Cross-checks the units; returns (attempted, failed cell count)."""
    units = untraced + traced
    if not units:
        return 1, 1
    reference = untraced[0]["digests"] if untraced else traced[0]["digests"]
    attempted = sum(u["attempted"] for u in units)
    # A crashed unit attempted as much as any other and finished nothing.
    attempted += crashed * units[0]["attempted"]
    failed = crashed * units[0]["attempted"]
    for u in units:
        bad = set(u["failed"])
        for cell, digest in reference.items():
            if u["digests"].get(cell) != digest:
                bad.add(cell)
        failed += len(bad)
    return attempted, min(failed, attempted)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(untraced):
    sim = untraced[0]["sim"]
    return {
        "setup_s": median([u["norm_setup_s"] for u in untraced]),
        "wall_s": median([u["norm_wall_s"] for u in untraced]),
        "sim_minstr_per_s": median([u["instrs"] / u["norm_wall_s"] / 1e6 for u in untraced]),
        "llc_kaccess_per_s": median([u["llc_accesses"] / u["norm_wall_s"] / 1e3
                                     for u in untraced]),
        "peak_rss_mib": median([u["peak_rss_mib"] for u in untraced]),
        "ws_vs_fair": sim["ws_vs_fair"],
        "llc_energy_vs_fair": sim["llc_energy_vs_fair"],
    }


def per_layer(untraced, traced):
    sim = (untraced or traced)[0]["sim"]
    out = {}
    for name, _unit, source in PER_LAYER:
        if source == "traced":
            out[name] = median([t["layers"][name] for t in traced])
        elif source == "fleet":
            out[name] = median([t["layers"][name] for t in traced if name in t["layers"]])
        elif source == "sim":
            out[name] = float(sim[name.split(".", 1)[1]])
    out["host.raw_wall_s"] = median([u["wall_s"] for u in untraced])
    out["host.gauge_us"] = median([u["gauge_ns"] / 1e3 for u in untraced])
    out["trace.overhead_frac"] = (
        median([t["wall_s"] for t in traced])
        / median([u["wall_s"] for u in untraced]) - 1.0
        if traced and untraced else 0.0)
    return out


def result_line(untraced, traced, crashed, trace):
    """The final JSON object, or None when no unit of the kind the
    reported metrics come from finished."""
    if not untraced or (trace and not traced):
        return None
    attempted, failed = check(untraced, traced, crashed)
    if trace:
        values, units = per_layer(untraced, traced), {n: u for n, u, _ in PER_LAYER}
    else:
        values, units = end_to_end(untraced), dict(END_TO_END)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def describe(workload, seed, untraced, traced, result):
    """Human-readable summary lines (printed before the JSON line)."""
    print(f"perfbench {workload} seed {seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced units (fresh process each)")
    digests = {u["digest"] for u in untraced + traced}
    print(f"  result digest: {' '.join(sorted(digests))}"
          f"{'' if len(digests) == 1 else '  <- MISMATCH'}")
    print(f"  failed_frac = {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']} cells)")
    # Both metric sets, whichever the JSON line carries: the end-to-end
    # medians over the untraced units, the per-layer ones over the traced.
    sections = [("end to end", end_to_end(untraced), END_TO_END)]
    if traced:
        sections.append(("per layer", per_layer(untraced, traced),
                         [(n, u) for n, u, _ in PER_LAYER]))
    for title, values, declared in sections:
        print(f"  -- {title}")
        for name, unit in declared:
            host = unit in HOST_UNITS or name in HOST_COUNTS
            kind = "host" if host else "simulated"
            if title == "end to end" and name in NORMALIZED:
                kind = "host, at reference speed"
            print(f"  {name:36} {values[name]:>14.6g} {unit:14} ({kind})")
    sim = untraced[0]["sim"]
    print(f"  simulated: qos_violations {sim['qos_violations']} of "
          f"{sim['coord_runs']} coordinated runs; the model is unvalidated "
          "against hardware")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    if binary is None:
        return 1
    scratch = root / ".perfbench" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        untraced, traced, crashed = measure(binary, args.workload, args.seed,
                                            args.seconds, args.trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run is using it
    result = result_line(untraced, traced, crashed, args.trace)
    if result is None:
        log("perfbench: no unit finished")
        return 1
    describe(args.workload, args.seed, untraced, traced, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
