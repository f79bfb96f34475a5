#!/usr/bin/env python3
"""ethsm benchmark: the paper artefact, the results daemon and orchestrated
sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the benchmark builds the program
(Release) into $CARGO_TARGET_DIR or .bench_build/ on first use and works in
.bench_work/, which it removes again. With --trace 0 it prints every
end-to-end metric, with --trace 1 every per-layer metric (see README.md in
this directory). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import serve_load

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("artefact_cold", "artefact_resume", "serve_mix",
             "orchestrate_artefact")

# Load stays within a 4-core machine: 4 sweep threads per CLI run, 4 daemon
# workers and 4 clients, orchestrate as 2 workers x 2 threads.
THREADS = 4
SERVE_WORKERS = 4
SERVE_CLIENTS = 4
ORCH_WORKERS = 2
ORCH_WORKER_THREADS = 2

SERVE_REQUESTS = 3000   # one serve_mix pass drains this many requests
SERVE_WARMUP = 1000     # requests of the untimed warm-up pass
MIN_REPS = 3            # commands (or serve passes) per measured run
MIN_TRACED_REPS = 2     # traced and untraced commands per traced run
SETUPS_PER_COMMAND = 3  # set-ups timed per artefact command, for setup_s
DAEMON_STARTS = 5       # daemon starts timed for setup_s, at least
PRIMES = 3              # artefact_resume priming runs timed for setup_s
SERVE_SAMPLE_CHECKS = 8  # served answers re-derived with `ethsm run --spec`
CHILD_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("p50_ms", "ms"), ("p99_ms", "ms"), ("rps", "1/s"),
              ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark cannot measure here; no result is printed."""


# ----------------------------------------------------------------- build ---

def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def run_logged(argv, log):
    with open(log, "ab") as out:
        rc = subprocess.call([str(a) for a in argv], stdout=out,
                             stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        tail = Path(log).read_text(errors="replace")[-4000:]
        raise BenchError(f"command failed ({rc}): {' '.join(map(str, argv))}\n{tail}")


def read_cache(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("#", "//")):
            key, _, value = line.partition("=")
            values[key.split(":")[0]] = value
    return values


def build(trace):
    """Builds ethsm (and for traced runs the probe); returns (paths, cache)."""
    for needed in ("CMakeLists.txt", "src/api/cli.h", "tools/compare_trees.py"):
        if not (ROOT / needed).exists():
            raise BenchError(f"not an ethsm source checkout: {ROOT / needed} missing")
    root = build_root()
    main = root / "main"
    root.mkdir(parents=True, exist_ok=True)
    log = root / "build.log"
    if not (main / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", ROOT, "-B", main,
                    "-DCMAKE_BUILD_TYPE=Release"], log)
    cache = read_cache(main / "CMakeCache.txt")
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing to measure a non-Release build "
                         f"(CMAKE_BUILD_TYPE={cache.get('CMAKE_BUILD_TYPE')!r} "
                         f"in {main})")
    run_logged(["cmake", "--build", main, "-j", os.cpu_count() or 1,
                "--target", "ethsm_cli"], log)
    paths = {"ethsm": main / "ethsm"}
    if trace:
        probe = root / "probe"
        if not (probe / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", HERE / "probe", "-B", probe,
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DETHSM_SOURCE_DIR={ROOT}",
                        f"-DETHSM_LIBRARY={main / 'libethsm.a'}",
                        f"-DETHSM_METRICS={cache.get('ETHSM_METRICS', 'ON')}"],
                       log)
        run_logged(["cmake", "--build", probe, "-j", os.cpu_count() or 1], log)
        paths["traced"] = probe / "ethsm_traced"
        paths["store_probe"] = probe / "store_probe"
        paths["unwrapped"] = (probe / "unwrapped.txt").read_text().split()
    return paths, cache


def machine_context(cache, args):
    cpu_model = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu_model = line.partition(":")[2].strip()
            break
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "compiler": f"{compiler} ({version})",
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "ethsm_metrics": cache.get("ETHSM_METRICS", "ON"),
        "python": sys.version.split()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -------------------------------------------------------------- children ---

class Child:
    def __init__(self, pid, rc, start_ns, end_ns, usage):
        self.pid = pid
        self.rc = rc
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.wall_s = (end_ns - start_ns) / 1e9
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def wait_child(proc, start_ns, timeout=CHILD_TIMEOUT_S):
    """Reaps proc with its resource usage (its reaped descendants included)."""
    timer = threading.Timer(timeout, kill_group, [proc.pid])
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.pid, proc.returncode, start_ns, end_ns, usage)


def child_env(spans_dir=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ETHSM_") and k != "PERFBENCH_SPANS"}
    env["ETHSM_THREADS"] = str(THREADS)
    if spans_dir is not None:
        env["PERFBENCH_SPANS"] = str(spans_dir)
    return env


def spawn(argv, log, spans_dir=None):
    with open(log, "ab") as out:
        return subprocess.Popen([str(a) for a in argv], env=child_env(spans_dir),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT, cwd=ROOT,
                                start_new_session=True)


def settle():
    """Flushes dirty file data, so writeback of what earlier commands wrote
    does not stall the next timed step."""
    os.sync()


def run_child(argv, log, spans_dir=None):
    settle()
    start_ns = time.monotonic_ns()
    return wait_child(spawn(argv, log, spans_dir), start_ns)


# ------------------------------------------------------------- the bench ---

class Bench:
    """State of one benchmark run: paths, work dir and error accounting."""

    def __init__(self, args, paths):
        self.args = args
        self.paths = paths
        self.work = ROOT / ".bench_work" / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.log = self.work / "children.log"
        self.attempted = 0
        self.failures = []
        self.setup_samples = []
        self.slot_count = 0

    def operation(self, problems, what):
        """Counts one operation; any problem makes it one failure."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def absorb(self, outcome):
        """Counts every request of a drained stream; failed ones once each."""
        self.attempted += outcome.attempted
        self.failures += outcome.failures

    def prepared_dirs(self):
        """Directories for one artefact command, timing its set-up.

        A set-up creates a fresh (out, checkpoint) pair and lists the specs
        the command will run (`ethsm expand --all --quick`), which also
        prices the binary's start-up. SETUPS_PER_COMMAND are timed before
        every command, so samples spread over the run.
        """
        settle()
        for k in range(SETUPS_PER_COMMAND):
            started = time.perf_counter()
            out, ckpt = self.new_slot()
            expand = subprocess.run([self.paths["ethsm"], "expand", "--all", "--quick"],
                                    capture_output=True, env=child_env(), cwd=ROOT,
                                    timeout=CHILD_TIMEOUT_S)
            (out.parent / "expansion.txt").write_bytes(expand.stdout)
            self.setup_samples.append(time.perf_counter() - started)
            if k == 0:
                self.operation([] if expand.returncode == 0 else
                               [f"exit code {expand.returncode}"], "set-up expand")
                first = out, ckpt
        return first

    def new_slot(self):
        """A fresh (out, checkpoint) directory pair."""
        base = self.work / f"slot{self.slot_count}"
        self.slot_count += 1
        out, ckpt = base / "out", base / "ckpt"
        out.mkdir(parents=True)
        ckpt.mkdir(parents=True)
        return out, ckpt

    def spans_dir(self, name):
        path = self.work / name
        path.mkdir()
        return path

    def log_tail(self):
        return self.log.read_text(errors="replace")[-3000:] if self.log.exists() else ""


def study_problems(child, out, reference=None):
    """Exit code, manifest cell status and (against reference) tree identity."""
    problems = []
    if child is not None and child.rc != 0:
        problems.append(f"exit code {child.rc}")
    try:
        data = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as error:
        return problems + [f"unreadable manifest.json: {error}"]
    bad = [e["name"] for e in data["entries"] if e.get("status") != "ok"]
    if bad or not data.get("complete"):
        problems.append(f"failed cells {bad}")
    if reference is not None:
        compare = subprocess.run(
            [sys.executable, ROOT / "tools" / "compare_trees.py", reference, out],
            capture_output=True, text=True)
        if compare.returncode != 0:
            problems.append("tree differs from the direct cold run: "
                            + compare.stderr.strip()[-500:])
    return problems


def run_argv(binary, out, ckpt):
    return [binary, "run", "--all", "--quick", "--out", out,
            "--checkpoint-dir", ckpt]


def orchestrate_argv(binary, out, ckpt):
    return [binary, "orchestrate", "--all", "--quick",
            "--workers", ORCH_WORKERS, "--worker-threads", ORCH_WORKER_THREADS,
            "--checkpoint-dir", ckpt, "--out", out, "--quiet"]


def orchestrate_problems(ckpt):
    try:
        data = json.loads((ckpt / "orchestrate-manifest.json").read_text())
    except (OSError, ValueError) as error:
        return [f"unreadable orchestrate-manifest.json: {error}"]
    if data.get("status") != "ok" or data.get("units_failed", 0):
        return [f"orchestrate status {data.get('status')}, "
                f"{data.get('units_failed')} unit(s) failed"]
    return []


def command_metrics(children, setup_samples):
    """End-to-end metrics when one operation is one artefact command."""
    walls = [c.wall_s for c in children]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(c.cpu_s for c in children),
        "peak_rss_mb": statistics.median(c.rss_mb for c in children),
        "p50_ms": statistics.median(walls) * 1000.0,
        "p99_ms": serve_load.percentile(walls, 0.99) * 1000.0,
        "rps": len(walls) / sum(walls),
        "setup_s": statistics.median(setup_samples),
    }


def store_probe(bench, ckpt):
    result = subprocess.run([bench.paths["store_probe"], ckpt, "5"],
                            capture_output=True, text=True, check=True)
    data = json.loads(result.stdout)
    return {"checkpoint.files": data["files"], "checkpoint.open_s": data["open_s"]}


def timed_commands(bench, make_command, what, dirs):
    """Repeats one artefact command in fresh directories for --seconds.

    make_command(binary, out, ckpt) -> (argv, check); check(child) lists the
    problems of one finished command; dirs() makes the directories. Returns
    the children.
    """
    deadline = time.monotonic() + bench.args.seconds
    children = []
    while len(children) < MIN_REPS or time.monotonic() < deadline:
        out, ckpt = dirs()
        argv, check = make_command(bench.paths["ethsm"], out, ckpt)
        child = run_child(argv, bench.log)
        bench.operation(check(child), f"{what} {len(children)}")
        children.append(child)
    return children


def traced_commands(bench, make_command, store_of, metrics_out=True):
    """Per-layer metrics of one artefact command, untraced vs traced.

    Alternates untraced commands and commands of the probe binary with
    --trace (and --metrics-out) for --seconds, checking each one. The first
    traced command gives the layer metrics; store_of(ckpt) names the store
    it read or wrote. Returns (metrics, traced child, ckpt, probe dumps).
    """
    deadline = time.monotonic() + bench.args.seconds
    plain, traced = [], []
    while len(traced) < MIN_TRACED_REPS or time.monotonic() < deadline:
        out, ckpt = bench.new_slot()
        argv, check = make_command(bench.paths["ethsm"], out, ckpt)
        child = run_child(argv, bench.log)
        bench.operation(check(child), "untraced command")
        plain.append(child)

        out, ckpt = bench.new_slot()
        spans = bench.spans_dir(f"spans{len(traced)}")
        trace_file = spans.with_name(spans.name + ".trace.json")
        metrics_file = spans.with_name(spans.name + ".metrics.json")
        argv, check = make_command(bench.paths["traced"], out, ckpt)
        argv += ["--trace", trace_file]
        argv += ["--metrics-out", metrics_file] if metrics_out else []
        child = run_child(argv, bench.log, spans)
        bench.operation(check(child), "traced command")
        traced.append((child, out, ckpt, spans, trace_file, metrics_file))

    child, out, ckpt, spans, trace_file, metrics_file = traced[0]
    dumps = layers.load_dumps(spans)
    counters = layers.registry_totals(dumps)
    if metrics_file.exists():
        reported = json.loads(metrics_file.read_text())["counters"]
        for name in ("ethsm_solver_solves_total", "ethsm_checkpoint_appends_total"):
            if reported.get(name, 0) != counters.get(name, 0):
                print(f"warning: probe registry {name}={counters.get(name)} "
                      f"but --metrics-out says {reported.get(name)}")
    program = layers.trace_spans(trace_file) if trace_file.exists() else []
    metrics = layers.compute_layers(dumps, counters, program, child.start_ns,
                                    child.end_ns, THREADS)
    metrics.update(layers.manifest_cells(out / "manifest.json"))
    metrics.update(store_probe(bench, store_of(ckpt)))
    metrics["trace_overhead_share"] = (
        statistics.median(t[0].wall_s for t in traced)
        / statistics.median(c.wall_s for c in plain) - 1.0)
    return metrics, child, ckpt, dumps


# ------------------------------------------------------------- workloads ---

def artefact_cold(bench):
    """`ethsm run --all --quick` into empty directories, repeated."""
    reference = []  # the first tree; every later one must equal it

    def command(binary, out, ckpt):
        def check(child):
            problems = study_problems(child, out, reference[0] if reference else None)
            if not reference and not problems:
                reference.append(out)
            return problems
        return run_argv(binary, out, ckpt), check

    if bench.args.trace:
        return traced_commands(bench, command, lambda ckpt: ckpt)[0]
    return command_metrics(
        timed_commands(bench, command, "cold run", bench.prepared_dirs),
        bench.setup_samples)


def artefact_resume(bench):
    """`ethsm run --all --quick` against the store a cold run left behind."""
    primes = []
    for k in range(1 if bench.args.trace else PRIMES):
        out, ckpt = bench.new_slot()
        child = run_child(run_argv(bench.paths["ethsm"], out, ckpt), bench.log)
        bench.operation(study_problems(child, out), f"priming run {k}")
        primes.append(child)
    reference = bench.work / "slot0" / "out"
    store = bench.work / "slot0" / "ckpt"

    def command(binary, out, _ckpt):
        def check(child):
            problems = study_problems(child, out, reference)
            if not problems:
                entries = json.loads((out / "manifest.json").read_text())["entries"]
                computed = sum(e.get("timing", {}).get("jobs_computed", 0)
                               for e in entries)
                if computed:
                    problems.append(f"resume computed {computed} job(s)")
            return problems
        return run_argv(binary, out, store), check

    if bench.args.trace:
        return traced_commands(bench, command, lambda _ckpt: store)[0]
    return command_metrics(
        timed_commands(bench, command, "resume run", bench.new_slot),
        [child.wall_s for child in primes])


def orchestrate_artefact(bench):
    """`ethsm orchestrate --all --quick` over 2 local workers, fresh dirs."""
    # The reference every orchestrated tree must equal: a direct run.
    reference, ckpt = bench.new_slot()
    child = run_child(run_argv(bench.paths["ethsm"], reference, ckpt), bench.log)
    bench.operation(study_problems(child, reference), "direct reference run")

    def command(binary, out, ckpt):
        def check(child):
            return orchestrate_problems(ckpt) + study_problems(child, out, reference)
        return orchestrate_argv(binary, out, ckpt), check

    if bench.args.trace:
        metrics, child, ckpt, dumps = traced_commands(
            bench, command, lambda ckpt: ckpt, metrics_out=False)
        metrics.update(orchestrate_layers(child, ckpt, dumps))
        return metrics
    return command_metrics(
        timed_commands(bench, command, "orchestrate run", bench.prepared_dirs),
        bench.setup_samples)


def orchestrate_layers(child, ckpt, dumps):
    """Unit phase vs merge pass, from the coordinator's own spans."""
    coordinator = [d for d in dumps if d["pid"] == child.pid]
    study = [s for s in layers.dump_spans(coordinator) if s[0] == "api.study"]
    manifest = json.loads((ckpt / "orchestrate-manifest.json").read_text())
    merge_start = study[0][2] if study else child.end_ns
    solves = layers.registry_totals(coordinator).get("ethsm_solver_solves_total", 0)
    return {
        "orchestrate.units_s": (merge_start - child.start_ns) / 1e9,
        "orchestrate.merge_s": layers.total_s(study),
        "orchestrate.merge_solves": solves,
        "orchestrate.attempts": manifest.get("attempts_total", 0),
        "orchestrate.records_imported": manifest.get("records_imported", 0),
    }


def start_daemon(bench, binary, ckpt, *extra, spans_dir=None):
    """Spawns `ethsm serve`; returns (proc, start_ns, seconds to port file, port)."""
    port_file = bench.work / "port.txt"
    port_file.unlink(missing_ok=True)
    start_ns = time.monotonic_ns()
    started = time.perf_counter()
    proc = spawn([binary, "serve", "--port", "0", "--port-file", port_file,
                  "--checkpoint-dir", ckpt, "--workers", SERVE_WORKERS,
                  "--quiet", *extra], bench.log, spans_dir)
    while True:
        text = port_file.read_text().strip() if port_file.exists() else ""
        if text.isdigit():
            return proc, start_ns, time.perf_counter() - started, int(text)
        if proc.poll() is not None or time.perf_counter() - started > 30:
            kill_group(proc.pid)
            raise BenchError("ethsm serve did not start:\n" + bench.log_tail())
        time.sleep(0.0002)


def stop_daemon(proc, start_ns):
    proc.send_signal(signal.SIGTERM)
    return wait_child(proc, start_ns, timeout=60)


def serve_pass(bench, stream, binary, *extra, spans_dir=None, starts=1):
    """Starts a daemon (timing `starts` starts), drains the stream, stops it."""
    _, ckpt = bench.new_slot()
    settle()
    for _ in range(starts - 1):
        proc, start_ns, seconds, _ = start_daemon(bench, binary, ckpt)
        bench.setup_samples.append(seconds)
        stop_daemon(proc, start_ns)
    proc, start_ns, seconds, port = start_daemon(bench, binary, ckpt, *extra,
                                                 spans_dir=spans_dir)
    bench.setup_samples.append(seconds)
    try:
        outcome = serve_load.drive(port, stream, SERVE_CLIENTS)
        status, text = serve_load.fetch(port, "/metrics")
        scraped = layers.parse_prometheus(text.decode()) if status == 200 else {}
    finally:
        daemon = stop_daemon(proc, start_ns)
    bench.absorb(outcome)
    if daemon.rc != 0:
        bench.operation([f"daemon exit code {daemon.rc}"], "serve shutdown")
    return outcome, daemon, ckpt, scraped


def check_served(bench, outcome):
    """Re-derives a seeded sample of served answers with the CLI."""
    rng = random.Random(bench.args.seed)
    specs = sorted(outcome.bodies)
    for k, spec in enumerate(rng.sample(specs, min(SERVE_SAMPLE_CHECKS, len(specs)))):
        spec_file = bench.work / f"sample{k}.spec"
        spec_file.write_text(spec)
        cli = subprocess.run([bench.paths["ethsm"], "run", "--spec", spec_file,
                              "--format", "json"], capture_output=True,
                             env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        problems = [] if cli.returncode == 0 and cli.stdout == outcome.bodies[spec] \
            else [f"served answer differs from `ethsm run --spec` for {spec!r}"]
        bench.operation(problems, "sample check")


def serve_mix(bench):
    """A seeded closed-loop request mix against `ethsm serve`."""
    stream = serve_load.make_stream(bench.args.seed, SERVE_REQUESTS)
    # An untimed pass on its own daemon and store first, so that caches fill
    # before timing (a first pass after other work was seen to run slower).
    serve_pass(bench, serve_load.make_stream(bench.args.seed + 1, SERVE_WARMUP),
               bench.paths["ethsm"])
    deadline = time.monotonic() + bench.args.seconds
    passes = []  # (outcome, daemon child); each pass on a fresh daemon + store
    while len(passes) < (1 if bench.args.trace else MIN_REPS) \
            or (not bench.args.trace and time.monotonic() < deadline):
        starts = DAEMON_STARTS if not passes and not bench.args.trace else 1
        outcome, daemon, _, _ = serve_pass(bench, stream, bench.paths["ethsm"],
                                           starts=starts)
        for spec, body in outcome.bodies.items():
            if passes and passes[0][0].bodies.get(spec, body) != body:
                bench.failures.append(f"answer differs between passes for {spec!r}")
        passes.append((outcome, daemon))
    outcome = passes[0][0]
    check_served(bench, outcome)
    if not bench.args.trace:
        latencies = [lat for o, _ in passes for lat in o.latencies]
        return {
            "wall_s": statistics.median(o.wall_s for o, _ in passes),
            "cpu_s": statistics.median(d.cpu_s for _, d in passes),
            "peak_rss_mb": statistics.median(d.rss_mb for _, d in passes),
            "p50_ms": serve_load.percentile(latencies, 0.50) * 1000.0,
            "p99_ms": serve_load.percentile(latencies, 0.99) * 1000.0,
            "rps": len(latencies) / sum(o.wall_s for o, _ in passes),
            "setup_s": statistics.median(bench.setup_samples),
        }

    spans = bench.spans_dir("spans")
    trace_file = bench.work / "serve.trace.json"
    traced, _, ckpt, scraped = serve_pass(bench, stream, bench.paths["traced"],
                                          "--trace", trace_file, spans_dir=spans)
    dumps = layers.load_dumps(spans)
    origin = max((d["trace_origin_ns"] for d in dumps), default=0)
    program = layers.trace_spans(trace_file, origin) if trace_file.exists() else []
    metrics = layers.compute_layers(dumps, layers.registry_totals(dumps), program,
                                    traced.start_ns, traced.end_ns, SERVE_WORKERS)
    metrics.update(store_probe(bench, ckpt))

    def latencies(source):
        return [lat for lat, src in zip(traced.latencies, traced.sources) if src == source]

    requests = layers.named(program, "serve.request")
    metrics.update({
        "serve.hit_rate": len(latencies("cache")) / max(1, traced.attempted),
        "serve.hit_p50_ms": serve_load.percentile(latencies("cache"), 0.50) * 1000.0,
        "serve.miss_p50_ms": serve_load.percentile(latencies("computed"), 0.50) * 1000.0,
        "serve.miss_p99_ms": serve_load.percentile(latencies("computed"), 0.99) * 1000.0,
        "serve.dedup": scraped.get("ethsm_serve_dedupe_attached_total", 0.0),
        "serve.rejected": scraped.get("ethsm_serve_admission_rejected_total", 0.0),
        "serve.parse_s": layers.total_s(layers.named(program, "serve.parse_spec")),
        "serve.compute_s": layers.total_s(layers.named(program, "serve.compute")),
        "serve.render_s": layers.total_s(layers.named(program, "serve.render")),
        "serve.transport_ms": (statistics.fmean(traced.latencies)
                               - layers.total_s(requests) / max(1, len(requests)))
        * 1000.0,
        "trace_overhead_share": traced.wall_s / outcome.wall_s - 1.0,
    })
    return metrics


# ---------------------------------------------------------------- report ---

def report(bench, values):
    names = END_TO_END if not bench.args.trace else layers.PER_LAYER
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in names}
    failed = min(len(bench.failures), bench.attempted)
    for line in bench.failures[:20]:
        print(f"FAILED {line}")
    width = max(len(name) for name, _ in names)
    for name, unit in names:
        print(f"  {name:<{width}}  {metrics[name]['value']:.6g} {unit}")
    error_rate = failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'error_rate':<{width}}  {error_rate:.6g} share "
          f"({failed} of {bench.attempted} operations failed)")
    print(f"correct: {failed == 0}")
    print(json.dumps({"correct": failed == 0 and bench.attempted > 0,
                      "attempted": max(1, bench.attempted), "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    bench = None
    try:
        paths, cache = build(args.trace)
        print("context: " + json.dumps(machine_context(cache, args)))
        if paths.get("unwrapped"):
            print("warning: probe could not wrap " + ", ".join(paths["unwrapped"]))
        bench = Bench(args, paths)
        values = globals()[args.workload](bench)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    except Exception:
        if bench is not None:
            print(bench.log_tail(), file=sys.stderr)
        raise
    finally:
        if bench is not None:
            shutil.rmtree(bench.work, ignore_errors=True)
    report(bench, values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
