"""Per-layer attribution: self times and wall-time coverage from spans.

Two span sources feed this module:

* the probe's dumps (``ethsm_traced`` writes ``<pid>.json`` at exit): one
  span per call into a layer's public entry point, on CLOCK_MONOTONIC
  nanoseconds, plus a snapshot of the program's metrics registry;
* the program's own Chrome trace (``--trace FILE``): ``study.cell``,
  ``pool.region``, ``net.run`` and ``serve.*`` spans in microseconds since
  ``trace::start()``; the probe records where that origin lies on the
  monotonic clock.

A span is ``(layer, thread_key, start_ns, end_ns)``. A layer's self time is
its spans' durations minus the part covered by their direct children on the
same thread. The unattributed share of a wall window is the part of the
window that no span (of any thread or process) covers, containers excluded.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

# Spans that only group other layers; they never count as covering wall time.
CONTAINER_LAYERS = frozenset({"api.study"})

PRESETS = (
    "fig8", "fig9", "fig10", "table1", "table2", "sec6_reward_design",
    "ext_stubborn", "ext_timeline", "ext_difficulty", "delay_network",
    "net_gamma", "net_faults",
)

# Every per-layer metric, with its unit, in report order. Each traced run
# reports all of them; a layer a workload does not exercise reads 0.
PER_LAYER = (
    [
        ("markov.solves", "count"), ("markov.iterations", "count"),
        ("markov.build_s", "s"), ("markov.solve_s", "s"),
        ("analysis.kernel_s", "s"), ("analysis.threshold_s", "s"),
        ("sim.mc_s", "s"), ("sim.blocks", "count"),
        ("net.run_s", "s"), ("net.events", "count"),
        ("pool.tasks", "count"), ("pool.task_s", "s"),
        ("pool.busy_share", "share"), ("pool.serial_s", "s"),
        ("checkpoint.appends", "count"), ("checkpoint.append_s", "s"),
        ("checkpoint.read_records", "count"),
        ("checkpoint.read_bytes", "bytes"),
        ("checkpoint.files", "count"), ("checkpoint.open_s", "s"),
        ("checkpoint.store_open_s", "s"),
    ]
    + [(f"api.cell_s.{name}", "s") for name in PRESETS]
    + [
        ("api.render_s", "s"), ("api.unattributed_share", "share"),
        ("serve.hit_rate", "share"), ("serve.hit_p50_ms", "ms"),
        ("serve.miss_p50_ms", "ms"), ("serve.miss_p99_ms", "ms"),
        ("serve.dedup", "count"), ("serve.rejected", "count"),
        ("serve.parse_s", "s"), ("serve.compute_s", "s"),
        ("serve.render_s", "s"), ("serve.transport_ms", "ms"),
        ("orchestrate.units_s", "s"), ("orchestrate.merge_s", "s"),
        ("orchestrate.merge_solves", "count"),
        ("orchestrate.attempts", "count"),
        ("orchestrate.records_imported", "count"),
        ("trace_overhead_share", "share"),
    ]
)


# ------------------------------------------------------------ span math ---

def self_times(spans):
    """Seconds of self time per layer.

    Spans on one thread nest like a call stack; a child is charged to its
    direct parent only, so self times of all layers on a thread add up to
    the time that thread spent inside any span.
    """
    by_thread = defaultdict(list)
    for layer, thread, start, end in spans:
        by_thread[thread].append((start, -end, layer))
    totals = defaultdict(float)
    for items in by_thread.values():
        items.sort()
        stack = []  # [layer, start, end, child_ns]

        def close(frame):
            totals[frame[0]] += (frame[2] - frame[1] - frame[3]) / 1e9

        for start, neg_end, layer in items:
            end = -neg_end
            while stack and stack[-1][2] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[3] += min(end, parent[2]) - start
            stack.append([layer, start, end, 0])
        while stack:
            close(stack.pop())
    return dict(totals)


def covered_ns(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals
                     if e > lo and s < hi)
    total, cur_start, cur_end = 0, None, None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def unattributed_share(spans, lo, hi):
    """Share of the wall window [lo, hi) that no non-container span covers."""
    if hi <= lo:
        return 0.0
    covered = covered_ns([(s, e) for layer, _, s, e in spans
                          if layer not in CONTAINER_LAYERS], lo, hi)
    return 1.0 - covered / (hi - lo)


def uncovered_inside(outer, inner):
    """Seconds of the `outer` spans not covered by any `inner` span."""
    pairs = [(s, e) for _, _, s, e in inner]
    return sum((e - s) - covered_ns(pairs, s, e) for _, _, s, e in outer) / 1e9


# ------------------------------------------------------------- sources ---

def load_dumps(span_dir):
    """Probe dumps under span_dir, one dict per process."""
    return [json.loads(p.read_text()) for p in sorted(Path(span_dir).glob("*.json"))]


def dump_spans(dumps):
    """All probe spans, thread keys made unique across processes."""
    spans = []
    for dump in dumps:
        names = dump["layers"]
        for layer, tid, start, end in dump["spans"]:
            spans.append((names[layer], (dump["pid"], tid), start, end))
    return spans


def trace_spans(path, origin_ns=0):
    """Complete events of a Chrome trace as spans named by their first word
    (``serve.request /v1/run`` -> ``serve.request``), shifted by origin_ns."""
    events = json.loads(Path(path).read_text()).get("traceEvents", [])
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        start = origin_ns + int(event["ts"] * 1000)
        spans.append((event["name"].split(" ")[0], ("trace", event.get("tid")),
                      start, start + int(event.get("dur", 0) * 1000)))
    return spans


def registry_totals(dumps):
    """Counters and histogram sums of every process's registry, summed."""
    counters = defaultdict(float)
    for dump in dumps:
        registry = dump.get("registry", {})
        for name, value in registry.get("counters", {}).items():
            counters[name] += value
        for name, hist in registry.get("histograms", {}).items():
            counters[name + ".sum"] += hist.get("sum", 0.0)
            counters[name + ".count"] += hist.get("count", 0)
    return counters


def parse_prometheus(text):
    """Sample name -> value from a Prometheus text exposition (no labels)."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


def named(spans, *names):
    return [s for s in spans if s[0] in names]


def total_s(spans):
    return sum(e - s for _, _, s, e in spans) / 1e9


def compute_layers(dumps, counters, program_spans, wall_lo, wall_hi, threads):
    """Metrics every workload derives the same way from its traced run."""
    spans = dump_spans(dumps)
    selfs = self_times(spans)
    wall_s = (wall_hi - wall_lo) / 1e9
    pool_task_s = counters.get("ethsm_pool_task_seconds.sum", 0.0)
    serve_spans = [s for s in program_spans if s[0].startswith("serve.")]
    return {
        "markov.solves": counters.get("ethsm_solver_solves_total", 0),
        "markov.iterations": counters.get("ethsm_solver_iterations_total", 0),
        "markov.build_s": selfs.get("markov.build", 0.0),
        "markov.solve_s": selfs.get("markov.solve", 0.0),
        "analysis.kernel_s": selfs.get("analysis.revenue", 0.0)
        + selfs.get("analysis.kernel", 0.0),
        "analysis.threshold_s": selfs.get("analysis.threshold", 0.0),
        "sim.mc_s": selfs.get("sim.mc", 0.0),
        "sim.blocks": sum(d.get("sim_blocks", 0) for d in dumps),
        "net.run_s": total_s(named(program_spans, "net.run")),
        "net.events": counters.get("ethsm_net_events_total", 0),
        "pool.tasks": counters.get("ethsm_pool_tasks_total", 0),
        "pool.task_s": pool_task_s,
        "pool.busy_share": pool_task_s / (wall_s * threads) if wall_s else 0.0,
        "pool.serial_s": uncovered_inside(named(program_spans, "study.cell"),
                                          named(program_spans, "pool.region")),
        "checkpoint.appends": counters.get("ethsm_checkpoint_appends_total", 0),
        "checkpoint.append_s": counters.get(
            "ethsm_checkpoint_append_seconds.sum", 0.0),
        "checkpoint.read_records": counters.get(
            "ethsm_checkpoint_read_records_total", 0),
        "checkpoint.read_bytes": counters.get(
            "ethsm_checkpoint_read_bytes_total", 0),
        "checkpoint.store_open_s": selfs.get("checkpoint.open", 0.0),
        "api.render_s": selfs.get("api.render", 0.0),
        "api.unattributed_share": unattributed_share(
            spans + serve_spans, wall_lo, wall_hi),
    }


def manifest_cells(manifest_path):
    """api.cell_s.<preset> from a study manifest's per-cell timing."""
    manifest = json.loads(Path(manifest_path).read_text())
    return {f"api.cell_s.{entry['name']}": entry["timing"]["wall_ms"] / 1000.0
            for entry in manifest["entries"] if "timing" in entry}
