"""Unit tests of the benchmark's own arithmetic and schedules.

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402
import workloads  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_reads_raw_samples(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 0), 1)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertAlmostEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 90.1)
        self.assertAlmostEqual(stats.percentile(xs, 99), 99.01)

    def test_resolves_below_histogram_buckets(self):
        # Three samples inside one x1.22 histogram bucket read back exactly.
        xs = [1.02, 1.00, 1.01]
        self.assertEqual(stats.percentile(xs, 50), 1.01)
        self.assertEqual(stats.percentile(xs, 0), 1.00)

    def test_order_independent_and_single_sample(self):
        self.assertEqual(stats.percentile([5.0, 1.0, 3.0], 50), 3.0)
        self.assertEqual(stats.percentile([7.5], 99), 7.5)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


def load(due, sent, done, ok=None):
    return {"due_ms": due, "sent_ms": sent, "done_ms": done,
            "ok": ok if ok is not None else [True] * len(due)}


class OpenLoopTimingTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # The second request was sent 4 ms late behind a stall; its latency
        # includes the wait, not just the round trip.
        run = load(due=[0.0, 1.0], sent=[0.0, 5.0], done=[0.5, 5.5])
        self.assertEqual(stats.latencies_ms(run), [0.5, 4.5])
        self.assertEqual(stats.lateness_ms(run), [0.0, 4.0])

    def test_closed_loop_due_is_send_time(self):
        run = load(due=[0.0, 2.0], sent=[0.0, 2.0], done=[2.0, 3.0])
        self.assertEqual(stats.latencies_ms(run), [2.0, 1.0])

    def test_failed_requests_have_no_latency_sample(self):
        run = load(due=[0.0, 1.0], sent=[0.0, 1.0], done=[1.0, 9.0], ok=[True, False])
        self.assertEqual(stats.latencies_ms(run), [1.0])

    def test_throughput_counts_ok_responses(self):
        run = load(due=[0, 0, 0], sent=[0, 0, 0], done=[500.0, 1000.0, 2000.0],
                   ok=[True, True, False])
        self.assertAlmostEqual(stats.throughput_rps(run), 1.0)


class ScheduleTest(unittest.TestCase):
    SECONDS = 2

    def test_same_seed_same_schedule(self):
        for w in workloads.WORKLOADS:
            a = workloads.make_schedule(w, 5, self.SECONDS)
            self.assertEqual(a, workloads.make_schedule(w, 5, self.SECONDS), w)
            self.assertNotEqual(a, workloads.make_schedule(w, 6, self.SECONDS), w)

    def test_each_workload_sends_one_request_class(self):
        for w in workloads.WORKLOADS:
            s = workloads.make_schedule(w, 3, self.SECONDS)
            keys = {workloads.class_key(s["requests"][i]) for i in s["warmup"] + s["sequence"]}
            self.assertEqual(len(keys), 1, w)

    def test_class_key_separates_classes(self):
        base = {"preset": "tiny", "outputs": ["functional"], "prune": {"pap": True}}
        other = dict(base, prune={"pap": True, "quantize": True})
        self.assertNotEqual(workloads.class_key(base), workloads.class_key(other))

    def test_frame_stream_scenes_are_never_repeated(self):
        s = workloads.make_schedule("frame_stream", 1, self.SECONDS)
        seeds = [r["scene"]["seed"] for r in s["requests"]]
        self.assertEqual(len(seeds), len(set(seeds)))
        self.assertLess(workloads.value_memory_bytes(s["requests"][0]["model"]), 2 << 20)

    def test_threshold_sweep_never_uses_the_default_thresholds(self):
        s = workloads.make_schedule("threshold_sweep", 1, self.SECONDS)
        self.assertGreater(workloads.value_memory_bytes(s["requests"][0]["model"]), 2 << 20)
        self.assertEqual(len({repr(r["scene"]) for r in s["requests"]}), 1)
        for r in s["requests"]:
            p = r["prune"]
            self.assertNotEqual(p["pap_tau"], workloads.PAPER_TAU)
            self.assertNotEqual(p["fwp_k"], workloads.PAPER_K)
            self.assertLessEqual(abs(p["pap_tau"] - workloads.PAPER_TAU), 0.003)
            self.assertLessEqual(abs(p["fwp_k"] - workloads.PAPER_K), 0.03)

    def test_tiny_rpc_arrivals_are_a_fixed_rate_poisson_stream(self):
        s = workloads.make_schedule("tiny_rpc", 1, 20)
        t = s["arrivals_ms"]
        self.assertEqual(t, sorted(t))
        self.assertLess(t[-1], 20_000)
        self.assertEqual(len(t), len(s["sequence"]))
        self.assertAlmostEqual(len(t) / 20.0, workloads.TINY_RATE_RPS, delta=30)
        gaps = [b - a for a, b in zip(t, t[1:])]
        # Exponential gaps: the standard deviation is close to the mean.
        self.assertAlmostEqual(statistics.pstdev(gaps) / statistics.mean(gaps), 1.0, delta=0.1)
        self.assertEqual(set(s["sequence"]), {0, 1, 2, 3})


class BackendMatrixTest(unittest.TestCase):
    def test_overlapping_quartiles_mean_no_difference(self):
        self.assertTrue(stats.overlaps([1.0, 2.0, 3.0, 4.0], [3.5, 4.5, 5.5, 6.5]))
        self.assertFalse(stats.overlaps([1.0, 1.1, 1.2, 1.3], [2.0, 2.1, 2.2, 2.3]))


def metrics(ctx_hits=0, ctx_misses=0, memo_hits=0, n=0, run_sum=0.0):
    hist = {"count": n, "sum_ms": run_sum}
    return {"queue_ms": hist, "run_ms": hist, "total_ms": hist,
            "cache": {"context_hits": ctx_hits, "context_misses": ctx_misses,
                      "memo_hits": memo_hits, "plan_hits": 0, "plan_misses": 0},
            "wire": {"v2": {"encode_ms": 0.0, "decode_ms": 0.0, "encode_bytes": 0}}}


class PathCheckTest(unittest.TestCase):
    def run_check(self, expect_hits, before, after, wire=2):
        run = {"server_before": before, "server_after": after, "wire_version": wire}
        d = stats.server_deltas(run)
        return d, stats.path_violations({"expect_context_hits": expect_hits}, run, d)

    def test_deltas_are_exact_means_over_the_phase(self):
        d, problems = self.run_check(True, metrics(ctx_misses=1, n=1, run_sum=100.0),
                                     metrics(ctx_hits=4, ctx_misses=1, n=5, run_sum=140.0))
        self.assertEqual(d["run_ms"], 10.0)
        self.assertEqual(d["context_hit_rate"], 1.0)
        self.assertEqual(problems, [])

    def test_memo_hits_invalidate_a_compute_run(self):
        _, problems = self.run_check(False, metrics(), metrics(ctx_misses=3, memo_hits=1))
        self.assertEqual(len(problems), 1)

    def test_unexpected_context_pattern_is_invalid(self):
        _, fresh = self.run_check(False, metrics(), metrics(ctx_hits=1, ctx_misses=2))
        _, resident = self.run_check(True, metrics(), metrics(ctx_hits=2, ctx_misses=1))
        _, v1 = self.run_check(True, metrics(), metrics(ctx_hits=2), wire=1)
        self.assertEqual((len(fresh), len(resident), len(v1)), (1, 1, 1))


if __name__ == "__main__":
    unittest.main()
