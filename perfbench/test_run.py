"""Tests of the benchmark driver's bookkeeping (no simulator needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import run

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def unit(mode, digests, failed=(), wall=2.0):
    """A synthetic unit report shaped like `perfbench unit` output."""
    layers = {}
    for name, _unit, source in run.PER_LAYER:
        if source == mode or (source == "fleet" and mode == "traced"):
            layers[name] = 1.0
    report = {
        "mode": mode, "setup_s": 0.01, "wall_s": wall,
        "instrs": 10_000_000, "llc_accesses": 400_000, "peak_rss_mib": 5.0,
        "attempted": len(digests) + len(failed), "failed": list(failed),
        "digest": "d", "digests": dict(digests),
        "sim": {"ws_vs_fair": 0.9, "llc_energy_vs_fair": 1.1,
                "dvfs_energy_vs_coop": 0.0, "cbp_energy_vs_coop": 0.0,
                "qos_violations": 0, "coord_runs": 0},
        "layers": layers,
    }
    if mode == "untraced":
        report.update(norm_setup_s=0.01, norm_wall_s=wall / 2, gauge_ns=1.2e6)
    return report


class MetricNames(unittest.TestCase):
    def test_declared_metrics_match_benchmark_json(self):
        e2e = [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]]
        self.assertEqual(e2e, run.END_TO_END)
        layers = [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]]
        self.assertEqual(layers, [(n, u) for n, u, _ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in MANIFEST["workloads"]], run.WORKLOADS)

    def test_printed_metrics_match_benchmark_json(self):
        cells = {"G2-1/fair": "a", "solo/lbm": "b"}
        untraced = [unit("untraced", cells), unit("untraced", cells, wall=2.2)]
        traced = [unit("traced", cells, wall=2.4)]
        for trace, section in [(0, "end_to_end"), (1, "per_layer")]:
            result = run.result_line(untraced, traced, 0, trace)
            printed = [(n, m["unit"]) for n, m in result["metrics"].items()]
            declared = [(m["name"], m["unit"]) for m in MANIFEST[section]]
            self.assertEqual(printed, declared)
            self.assertTrue(result["correct"])
            self.assertEqual(result["attempted"], 6)
        per_layer = run.result_line(untraced, traced, 0, 1)["metrics"]
        self.assertAlmostEqual(per_layer["trace.overhead_frac"]["value"], 2.4 / 2.1 - 1)
        self.assertAlmostEqual(per_layer["host.raw_wall_s"]["value"], 2.1)
        end_to_end = run.result_line(untraced, traced, 0, 0)["metrics"]
        self.assertAlmostEqual(end_to_end["wall_s"]["value"], 1.05)


class OutputCheck(unittest.TestCase):
    def test_a_differing_traced_cell_fails(self):
        good = {"G2-1/fair": "a", "G2-1/cooperative": "b"}
        bad = {"G2-1/fair": "a", "G2-1/cooperative": "X"}
        result = run.result_line([unit("untraced", good)], [unit("traced", bad)], 0, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_failed_and_missing_cells_count(self):
        good = {"G2-1/fair": "a", "G2-1/cooperative": "b"}
        partial = unit("traced", {"G2-1/fair": "a"}, failed=["G2-1/cooperative"])
        result = run.result_line([unit("untraced", good)], [partial], 0, 0)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 4)

    def test_a_crashed_unit_counts_its_cells(self):
        good = {"G2-1/fair": "a", "G2-1/cooperative": "b"}
        result = run.result_line([unit("untraced", good)], [unit("traced", good)], 1, 0)
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["attempted"], 6)


if __name__ == "__main__":
    unittest.main()
