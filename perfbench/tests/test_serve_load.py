"""The serve_mix stream and its error accounting.

    python3 -m unittest discover -s perfbench/tests

The accounting tests drive a stub HTTP server; the last test injects a bad
spec into a real `ethsm serve` when the benchmark has already built one.
"""

import json
import shutil
import sys
import threading
import types
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import serve_load  # noqa: E402

BAD_SPEC = "kind = no_such_kind\n"


class StubDaemon(BaseHTTPRequestHandler):
    """Answers /v1/run like ethsm serve: 200 + JSON, or 400 for BAD_SPEC."""
    protocol_version = "HTTP/1.1"
    answers = {}
    vary = False  # answer every request differently

    def do_POST(self):
        spec = self.rfile.read(int(self.headers["Content-Length"])).decode()
        if spec == BAD_SPEC:
            self.reply(400, b'{"error": "unknown kind"}')
            return
        fingerprint = f"{abs(hash(spec)):016x}"[:16]
        body = self.answers.get(spec) or json.dumps(
            {"spec": spec, "spec_fingerprint": fingerprint}).encode()
        if self.vary:
            body = json.dumps({"spec_fingerprint": fingerprint,
                               "answer": len(self.answers)}).encode()
        self.answers[spec] = body
        self.answers[fingerprint] = body
        self.reply(200, body)

    def do_GET(self):
        body = self.answers.get(self.path.rsplit("/", 1)[-1])
        self.reply(200, body) if body else self.reply(404, b"{}")

    def reply(self, status, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Ethsm-Source", "computed")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class Stream(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(serve_load.make_stream(5, 500), serve_load.make_stream(5, 500))
        self.assertNotEqual(serve_load.make_stream(5, 500), serve_load.make_stream(6, 500))

    def test_mix_shares(self):
        stream = serve_load.make_stream(1, 6000)
        hot = {spec for _, spec in stream[:serve_load.HOT_SPECS]}
        results = sum(kind == "result" for kind, _ in stream)
        novel = [spec for kind, spec in stream if spec not in hot]
        self.assertEqual(len(novel), len(set(novel)))  # each novel spec once
        self.assertAlmostEqual(results / len(stream), 0.03, delta=0.01)
        self.assertAlmostEqual(len(novel) / len(stream), 0.27, delta=0.02)
        self.assertTrue(all(kind == "result" or "sim_runs = 0" in spec
                            for kind, spec in stream))

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(serve_load.percentile(list(range(1, 101)), 0.99), 99)
        self.assertEqual(serve_load.percentile([3.0], 0.5), 3.0)


class ErrorAccounting(unittest.TestCase):
    def setUp(self):
        StubDaemon.answers = {}
        StubDaemon.vary = False
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), StubDaemon)
        threading.Thread(target=self.server.serve_forever, daemon=True).start()
        self.port = self.server.server_address[1]

    def tearDown(self):
        self.server.shutdown()
        self.server.server_close()

    def test_clean_stream_has_no_failures(self):
        outcome = serve_load.drive(self.port, serve_load.make_stream(3, 300), 4)
        self.assertEqual(outcome.attempted, 300)
        self.assertEqual(outcome.failures, [])

    def test_injected_bad_spec_is_one_failure(self):
        stream = serve_load.make_stream(3, 300)
        stream.insert(100, ("run", BAD_SPEC))
        outcome = serve_load.drive(self.port, stream, 4)
        self.assertEqual(outcome.attempted, 301)
        self.assertEqual(len(outcome.failures), 1)
        self.assertIn("HTTP 400", outcome.failures[0])

    def test_changed_answer_is_a_failure(self):
        StubDaemon.vary = True
        spec = serve_load.spec_text(0.3, 0.5)
        outcome = serve_load.drive(self.port, [("run", spec)] * 2, 1)
        self.assertEqual(len(outcome.failures), 1)
        self.assertIn("answer changed", outcome.failures[0])


class RealDaemon(unittest.TestCase):
    def test_injected_bad_spec_raises_error_rate(self):
        binary = run.build_root() / "main" / "ethsm"
        if not binary.exists():
            self.skipTest("ethsm not built yet; run the benchmark once first")
        args = types.SimpleNamespace(workload="selftest", seed=1, seconds=1,
                                     trace=0)
        bench = run.Bench(args, {"ethsm": binary})
        try:
            stream = serve_load.make_stream(1, 60)
            stream.insert(30, ("run", BAD_SPEC))
            run.serve_pass(bench, stream, binary)
            self.assertEqual(bench.attempted, 61)
            self.assertEqual(len(bench.failures), 1)
            self.assertIn("HTTP 400", bench.failures[0])
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
