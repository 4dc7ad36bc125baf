"""Tests of the benchmark itself. From the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import socketserver
import sys
import tempfile
import threading
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import answers  # noqa: E402
import run  # noqa: E402
from stats import boundary_flags, covered, percentile, self_times  # noqa: E402


class Oracle(unittest.TestCase):
    def test_matching_verdicts_are_decided(self):
        self.assertEqual(answers.judge("check buffer", 0, "verified", None), "decided")
        self.assertEqual(answers.judge(answers.variant(4), 1, "falsified", None), "decided")
        self.assertEqual(answers.judge(answers.variant(5), 0, "verified", None), "decided")

    def test_wrong_verdict_fails(self):
        self.assertEqual(answers.judge("check buffer", 1, "falsified", None), "failed")
        self.assertEqual(answers.judge(answers.variant(4), 0, "verified", None), "failed")
        self.assertEqual(answers.judge("check rw monitor=no-exclusion readers=1 writers=1",
                                       0, "verified", None), "failed")

    def test_exit_code_must_agree_with_status(self):
        self.assertEqual(answers.judge("check buffer", 1, "verified", None), "failed")

    def test_inconclusive_is_undecided_not_failed(self):
        self.assertEqual(answers.judge("check rw readers=2 writers=1", 2, "inconclusive", None),
                         "undecided")

    def test_typed_error_reply_is_a_success(self):
        self.assertEqual(answers.judge("chek rw readers=1", 3, None,
                                       'parse: unknown verb "chek" (expected ping, stats or check)'),
                         "error-ok")

    def test_wrong_error_reply_fails(self):
        # Right code, wrong kind of error.
        self.assertEqual(answers.judge("chek rw readers=1", 3, None, "internal: Not_found"), "failed")
        # A verdict where a typed error was due.
        self.assertEqual(answers.judge("check rw readers=one", 0, "verified", None), "failed")
        # An error where a verdict was due.
        self.assertEqual(answers.judge("check buffer", 3, None, "parse: oops"), "failed")

    def test_unknown_request_fails(self):
        self.assertEqual(answers.judge("check rw readers=9 writers=9", 0, "verified", None), "failed")
        self.assertIsNone(answers.variant_answer(answers.variant(answers.VARIANTS + 1)))

    def test_tally_counts_failures_against_attempts(self):
        t = run.Tally()
        t.add("check buffer", answers.judge("check buffer", 0, "verified", None))
        t.add("check buffer", answers.judge("check buffer", 1, "falsified", None))
        t.add("chek rw readers=1", "error-ok")
        t.add("check rw readers=2 writers=1", "undecided")
        self.assertEqual((t.attempted, t.failed, t.checks, t.decided), (4, 1, 3, 1))


class Stream(unittest.TestCase):
    def test_same_seed_same_lines(self):
        self.assertEqual(answers.stream(7, 3000), answers.stream(7, 3000))
        self.assertNotEqual(answers.stream(7, 3000), answers.stream(8, 3000))

    def test_every_line_has_a_known_answer(self):
        for seed in (1, 2, 3):
            for line, _ in answers.stream(seed, 5000):
                self.assertIsNotNone(answers.expected(line), line)

    def test_stream_sends_no_engine_keys_or_timeouts(self):
        engine_keys = ("reduction=", "por=", "keys=", "jobs=", "batch=", "bitstate=",
                       "timeout=", "max-configs=", "max-runs=")
        for line, _ in answers.stream(1, 5000):
            self.assertFalse(any(k in line for k in engine_keys), line)

    def test_variants_always_miss_a_128_entry_cache(self):
        lines = [line for line, cls in answers.stream(1, 20000) if cls == "variant"]
        last = {}
        for i, line in enumerate(lines):
            if line in last:
                self.assertGreater(i - last[line], 128)
            last[line] = i
        answers_seen = {answers.expected(line)[0] for line in lines}
        self.assertEqual(answers_seen, {answers.VERIFIED, answers.FALSIFIED})

    def test_reported_percentiles_clear_class_boundaries(self):
        lines = answers.stream(1, 20000)[len(answers.HOT):]
        # Latency order of the classes: malformed, hit, cold, variant.
        rank = {"malformed": 0, "hit": 1, "cold": 2, "variant": 3}
        shares, flags = boundary_flags([c for _, c in lines],
                                       [rank[c] for _, c in lines], (50, 90))
        self.assertEqual(flags, [])
        self.assertAlmostEqual(sum(shares.values()), 1.0)

    def test_boundary_flag_fires_near_a_boundary(self):
        classes = ["fast"] * 89 + ["slow"] * 11
        _, flags = boundary_flags(classes, [1 if c == "fast" else 9 for c in classes], (50, 90))
        self.assertEqual([p for p, _ in flags], [90])


class Spans(unittest.TestCase):
    def test_self_time_on_nested_spans(self):
        spans = [
            (1, 0, "root", 0.0, 10.0, False),
            (2, 1, "a", 1.0, 4.0, False),
            (3, 1, "b", 3.0, 6.0, False),    # overlaps a: union of a and b is 5
            (4, 2, "a.inner", 1.5, 2.5, False),
            (5, 3, "b.phase", 3.0, 3.5, True),
            (6, 3, "b.phase2", 3.5, 4.5, True),
            (7, 1, "late", 9.0, 12.0, False),  # clipped to the root's end
        ]
        st = self_times(spans)
        self.assertAlmostEqual(st[1], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(st[2], 3.0 - 1.0)
        self.assertAlmostEqual(st[3], 3.0 - 1.5)
        self.assertAlmostEqual(st[4], 1.0)
        self.assertAlmostEqual(st[7], 3.0)

    def test_covered_merges_overlaps(self):
        self.assertAlmostEqual(covered([(0, 2), (1, 3), (5, 6)]), 4.0)

    def test_percentile_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(percentile(xs, 50), 5)
        self.assertEqual(percentile(xs, 90), 9)
        self.assertEqual(percentile(xs, 100), 10)


class Contract(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)


class Environment(unittest.TestCase):
    def test_gem_defaults_are_unset(self):
        names = ["GEM_JOBS", "GEM_REDUCTION", "GEM_NO_POR", "GEM_EXACT_KEYS",
                 "GEM_AUDIT_KEYS", "GEM_BATCH", "GEM_FAULT", "GEM_STATS"]
        saved = {n: os.environ.get(n) for n in names}
        try:
            for n in names:
                os.environ[n] = "1"
            env = run.pinned_env()
            self.assertFalse([k for k in env if k.startswith("GEM_")])
        finally:
            for n, v in saved.items():
                if v is None:
                    os.environ.pop(n, None)
                else:
                    os.environ[n] = v


class Recorder(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True

    def __init__(self, path):
        self.received = []
        self.lock = threading.Lock()
        super().__init__(path, RecordOne)


class RecordOne(socketserver.StreamRequestHandler):
    def handle(self):
        line = self.rfile.readline().decode().rstrip("\n")
        with self.server.lock:
            self.server.received.append(line)
        self.wfile.write(b'{"serve":1,"body":0,"code":0}\n')


class ServeClient(unittest.TestCase):
    """The daemon receives exactly the stream's lines: a prefix of the
    seeded stream, each line once."""

    @classmethod
    def setUpClass(cls):
        os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        run.build()

    def serve(self, lines, *args):
        """Run the serve probe against a recording server; return the
        lines the server received and the probe's result."""
        with tempfile.TemporaryDirectory(dir=".") as d:
            sock = os.path.relpath(os.path.join(d, "r.sock"))
            server = Recorder(sock)
            t = threading.Thread(target=server.serve_forever, daemon=True)
            t.start()
            try:
                path = os.path.join(d, "stream.txt")
                with open(path, "w") as f:
                    f.writelines(line + "\n" for line in lines)
                code, out = run.run_process(
                    [run.PROBE, "serve", "--socket", sock, "--lines", path,
                     "--seconds", "30"] + list(args), run.pinned_env())
            finally:
                server.shutdown()
                server.server_close()
            self.assertEqual(code, 0)
            return server.received, json.loads(out)

    def test_daemon_receives_only_the_stream(self):
        lines = [line for line, _ in answers.stream(3, 400)]
        received, result = self.serve(lines, "--clients", "2")
        self.assertEqual(sorted(received), sorted(lines))
        self.assertEqual((result["served"], result["next"]), (400, 400))

    def test_a_window_starts_at_its_first_line(self):
        lines = [line for line, _ in answers.stream(4, 300)]
        received, result = self.serve(lines, "--clients", "1", "--first", "120")
        self.assertEqual(received, lines[120:])
        self.assertEqual((result["served"], result["next"]), (180, 300))
        self.assertEqual([r[0] for r in result["records"]], list(range(120, 300)))


if __name__ == "__main__":
    unittest.main()
