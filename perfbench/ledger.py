#!/usr/bin/env python3
"""Writes the recorded performance ledger: every workload's end-to-end
metrics and per-layer metrics, as medians over seeds, in Markdown.

    python3 perfbench/ledger.py --seeds 1,2,3 --seconds 25 > perfbench/LEDGER.md

Each (workload, seed) is measured twice through `run.py`: once untraced
(--trace 0, the end-to-end metrics) and once traced (--trace 1, the
per-layer metrics). The ledger is what later performance work is measured
against; regenerate it rather than editing it by hand.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

# Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP = [
    ("workloads", "gen_ns_per_instr, instrs",
     "sim_minstr_per_s on paper2; nothing on stream8 (it replays recordings)"),
    ("cpusim", "self_ns_per_instr, retired, L1/bpred ratios",
     "sim_minstr_per_s and wall_s on paper2 and stream8"),
    ("cpusim", "prefetch_useful_ratio",
     "policy.cbp_energy_vs_coop and policy.qos_violations on coord4"),
    ("coop_core", "llc_ns_per_call, llc_calls, miss ratio, ways probed, transfers",
     "llc_kaccess_per_s on stream8 most, on paper2 less (DRAM, MSHR and "
     "regulator time is inside the LLC span)"),
    ("memsim", "dram_lines_per_kinstr, bw_delay_cycles_per_kinstr",
     "explain policy.qos_violations and *_energy_vs_coop on coord4"),
    ("policy", "decide/apply us per epoch, p99, epochs, repartition_ratio",
     "wall_s on coord4 only"),
    ("harness", "build_ms_per_cell, solo_frac, self_ms_per_cell",
     "setup_s and wall_s on every workload"),
    ("fleet", "overhead_frac, retries, store_kib",
     "the wall of `repro --workers` on paper2's cells (measured in paper2's traced "
     "runs; no end-to-end metric here)"),
    ("trace", "overhead_frac, unattributed_frac", "(the instrument itself)"),
    ("host", "raw_wall_s, gauge_us",
     "(the instrument: raw host seconds, and the reference kernel's time that "
     "scales them to the end-to-end host times)"),
]


def measure(workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def medians(results):
    names = list(results[0]["metrics"])
    return {n: statistics.median(r["metrics"][n]["value"] for r in results) for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    e2e, layers, checks = {}, {}, {}
    for w in run.WORKLOADS:
        plain = [measure(w, s, args.seconds, 0) for s in seeds]
        traced = [measure(w, s, args.seconds, 1) for s in seeds]
        e2e[w], layers[w] = medians(plain), medians(traced)
        checks[w] = (sum(r["failed"] for r in plain + traced),
                     sum(r["attempted"] for r in plain + traced))

    out = ["# Performance ledger", "",
           f"Recorded by `perfbench/ledger.py --seeds {args.seeds} --seconds {args.seconds:g}` "
           f"on {platform.machine()} with {os.cpu_count()} CPUs, a shared host whose speed "
           "drifts between runs: compare host times only with runs made close in time. "
           "Medians over seeds. `ws_vs_fair`, `llc_energy_vs_fair`, the counts, ratios "
           "and `policy.*_vs_coop` rows are simulated outcomes, this model's own "
           "results, unvalidated against hardware; everything else is host time. "
           "The end-to-end host times are scaled to a reference host speed by a "
           "fixed kernel timed around every piece (see `run.py`); the raw host "
           "seconds are `host.raw_wall_s`.", ""]
    header = "| metric | unit | " + " | ".join(run.WORKLOADS) + " |"
    rule = "|---|---|" + "---|" * len(run.WORKLOADS)
    out += ["## End to end", "", header, rule]
    for name, unit in run.END_TO_END:
        out.append(f"| {name} | {unit} | "
                   + " | ".join(f"{e2e[w][name]:.4g}" for w in run.WORKLOADS) + " |")
    out.append("| failed / attempted cells | count | "
               + " | ".join(f"{checks[w][0]} / {checks[w][1]}" for w in run.WORKLOADS) + " |")
    out += ["", "## Per layer (traced run)", "",
            "The `*.self_frac` rows are each layer's self time as a share of the "
            "traced run's host time; with `trace.unattributed_frac` they sum to 1.", "",
            header, rule]
    for name, unit, _source in run.PER_LAYER:
        out.append(f"| {name} | {unit} | "
                   + " | ".join(f"{layers[w][name]:.4g}" for w in run.WORKLOADS) + " |")
    out += ["", "## Which end-to-end metric each layer should move", "",
            "| layer | metrics | should move |", "|---|---|---|"]
    out += [f"| {a} | {b} | {c} |" for a, b, c in LAYER_MAP]
    print("\n".join(out))


if __name__ == "__main__":
    main()
