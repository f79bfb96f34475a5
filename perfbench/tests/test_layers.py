"""Attribution math on synthetic spans, and the metric lists against
BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layers  # noqa: E402
import run  # noqa: E402

MS = 1_000_000  # ns

# Two threads of one process. Thread a: a study span holding a revenue call
# (build + solve inside it). Thread b: a revenue call with one solve,
# overlapping thread a in time.
SPANS = [
    ("api.study", "a", 0 * MS, 100 * MS),
    ("analysis.revenue", "a", 10 * MS, 60 * MS),
    ("markov.build", "a", 10 * MS, 20 * MS),
    ("markov.solve", "a", 20 * MS, 50 * MS),
    ("analysis.revenue", "b", 30 * MS, 90 * MS),
    ("markov.solve", "b", 35 * MS, 85 * MS),
]


class SpanMath(unittest.TestCase):
    def test_self_times_charge_children_to_their_direct_parent(self):
        selfs = layers.self_times(SPANS)
        self.assertAlmostEqual(selfs["api.study"], 0.050)        # 100 - 50
        self.assertAlmostEqual(selfs["analysis.revenue"], 0.020)  # 10 + 10
        self.assertAlmostEqual(selfs["markov.build"], 0.010)
        self.assertAlmostEqual(selfs["markov.solve"], 0.080)      # 30 + 50

    def test_self_times_add_up_to_time_inside_spans(self):
        selfs = layers.self_times(SPANS)
        # Thread a is inside a span for 100 ms, thread b for 60 ms.
        self.assertAlmostEqual(sum(selfs.values()), 0.160)

    def test_unattributed_share_ignores_containers(self):
        # Without the study container, [10, 90) of [0, 100) is covered.
        self.assertAlmostEqual(layers.unattributed_share(SPANS, 0, 100 * MS), 0.2)

    def test_unattributed_share_clips_to_the_window(self):
        self.assertAlmostEqual(
            layers.unattributed_share(SPANS, 50 * MS, 150 * MS), 0.6)

    def test_covered_merges_overlaps_and_touching_intervals(self):
        self.assertEqual(layers.covered_ns([(0, 10), (5, 20), (20, 30), (40, 50)],
                                           0, 100), 40)

    def test_uncovered_inside_is_cell_time_outside_pool_regions(self):
        cells = [("study.cell", "t", 0, 100 * MS)]
        regions = [("pool.region", "t", 10 * MS, 30 * MS),
                   ("pool.region", "t", 20 * MS, 50 * MS),
                   ("pool.region", "t", 70 * MS, 80 * MS)]
        self.assertAlmostEqual(layers.uncovered_inside(cells, regions), 0.050)

    def test_trace_spans_are_shifted_onto_the_probe_clock(self):
        trace = {"traceEvents": [
            {"name": "serve.request /v1/run", "ph": "X", "ts": 5, "dur": 7,
             "tid": 2},
            {"name": "ignored", "ph": "i", "ts": 1, "tid": 2},
        ]}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.json"
            path.write_text(json.dumps(trace))
            spans = layers.trace_spans(path, origin_ns=1000)
        self.assertEqual(spans, [("serve.request", ("trace", 2), 6000, 13000)])

    def test_compute_layers_from_a_probe_dump(self):
        names = ["markov.build", "markov.solve", "analysis.revenue", "api.study"]
        index = {name: i for i, name in enumerate(names)}
        dump = {
            "pid": 7, "trace_origin_ns": 0, "sim_blocks": 0,
            "solver_iterations": 9, "layers": names,
            "spans": [[index[l], t, s, e] for l, t, s, e in SPANS],
            "registry": {"counters": {"ethsm_solver_solves_total": 2},
                         "histograms": {"ethsm_pool_task_seconds":
                                        {"sum": 0.2, "count": 4}}},
        }
        counters = layers.registry_totals([dump, dump])
        metrics = layers.compute_layers([dump], counters, [], 0, 100 * MS, 4)
        self.assertEqual(metrics["markov.solves"], 4)
        self.assertAlmostEqual(metrics["markov.solve_s"], 0.080)
        self.assertAlmostEqual(metrics["analysis.kernel_s"], 0.020)
        self.assertAlmostEqual(metrics["pool.busy_share"], 0.4 / (0.1 * 4))
        self.assertAlmostEqual(metrics["api.unattributed_share"], 0.2)


class MetricLists(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_metrics_match_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))

    def test_per_layer_metrics_match_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         list(layers.PER_LAYER))

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
