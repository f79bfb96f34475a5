"""The serve_mix request stream and the closed-loop client that drains it.

The stream is a pure function of the seed. It opens with one request for
each spec of a small hot set, then mixes:

* ~70% POST /v1/run of a hot spec -- answered from the daemon's cache;
* ~27% POST /v1/run of a spec seen nowhere else in the stream -- computed:
  store open, model build, solve, kernel, checkpoint append;
* ~3% GET /v1/result/<fingerprint> of a hot spec answered earlier.

Every spec is a single-point revenue analysis (`sim_runs = 0`), so a request
costs one solve at most. Clients are closed-loop: each keeps one keep-alive
connection and sends its next request only after the previous answer.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field

HOT_SPECS = 16
HOT_SHARE = 0.70
RESULT_SHARE = 0.03
# Result reads only start once every hot spec has been requested a few times.
RESULT_READS_FROM = 4 * HOT_SPECS


def spec_text(alpha, gamma):
    return (f"kind = revenue\nalphas = {alpha}\ngamma = {gamma}\n"
            "sim_runs = 0\n")


def make_stream(seed, length):
    """[(kind, spec)] with kind "run" or "result"; same seed, same stream."""
    rng = random.Random(seed)
    used = set()

    def fresh(draw):
        while True:
            point = draw()
            if point not in used:
                used.add(point)
                return spec_text(*point)

    hot = [fresh(lambda: (rng.randrange(5, 46) / 100, rng.randrange(0, 11) / 10))
           for _ in range(HOT_SPECS)]
    stream = [("run", spec) for spec in hot]
    while len(stream) < length:
        draw = rng.random()
        if draw < RESULT_SHARE and len(stream) >= RESULT_READS_FROM:
            stream.append(("result", rng.choice(hot)))
        elif draw < RESULT_SHARE + HOT_SHARE:
            stream.append(("run", rng.choice(hot)))
        else:
            stream.append(("run", fresh(lambda: (
                round(rng.uniform(0.02, 0.45), 4), round(rng.uniform(0.0, 1.0), 3)))))
    return stream[:length]


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # seconds, per request
    sources: list = field(default_factory=list)    # X-Ethsm-Source or ""
    failures: list = field(default_factory=list)   # one line per failure
    bodies: dict = field(default_factory=dict)     # spec -> first 200 body
    start_ns: int = 0
    end_ns: int = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def wall_s(self):
        return (self.end_ns - self.start_ns) / 1e9


def drive(port, stream, clients, timeout=60.0):
    """Drains `stream` with `clients` closed-loop clients; returns an Outcome.

    A request fails when it gets no response, a status other than 200, or a
    body that differs from the first answer for the same spec (a result read
    must equal its spec's run answer byte for byte).
    """
    outcome = Outcome()
    lock = threading.Condition()
    fingerprints = {}
    next_index = [0]

    def record(latency, source, spec, status, body, error):
        with lock:
            outcome.latencies.append(latency)
            outcome.sources.append(source)
            if error is not None:
                outcome.failures.append(error)
            elif status != 200:
                outcome.failures.append(f"HTTP {status}: {body[:200]!r}")
            else:
                first = outcome.bodies.setdefault(spec, body)
                if first != body:
                    outcome.failures.append(f"answer changed for {spec!r}")
                elif spec not in fingerprints:
                    fingerprints[spec] = json.loads(body)["spec_fingerprint"]
                    lock.notify_all()

    def client(name):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        headers = {"X-Ethsm-Client": name, "Content-Type": "text/plain"}
        while True:
            with lock:
                if next_index[0] >= len(stream):
                    break
                kind, spec = stream[next_index[0]]
                next_index[0] += 1
                if kind == "result":
                    lock.wait_for(lambda: spec in fingerprints, timeout)
                    fingerprint = fingerprints.get(spec, "unknown")
            started = time.monotonic()
            try:
                if kind == "run":
                    conn.request("POST", "/v1/run", body=spec.encode(),
                                 headers=headers)
                else:
                    conn.request("GET", f"/v1/result/{fingerprint}",
                                 headers=headers)
                response = conn.getresponse()
                body = response.read()
                record(time.monotonic() - started,
                       response.headers.get("X-Ethsm-Source", ""), spec,
                       response.status, body, None)
            except (OSError, http.client.HTTPException, ValueError) as error:
                record(time.monotonic() - started, "", spec, 0, b"",
                       f"{kind} request failed: {error}")
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=timeout)
        conn.close()

    threads = [threading.Thread(target=client, args=(f"bench-{i}",))
               for i in range(clients)]
    outcome.start_ns = time.monotonic_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome.end_ns = time.monotonic_ns()
    return outcome


def fetch(port, path, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()
