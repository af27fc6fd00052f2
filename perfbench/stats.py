"""Metric arithmetic over the driver's raw output.

Percentiles come from raw per-request samples, never from the server's
log-bucket histogram; the server's exported histograms are used only for
their exact sum/count means, diffed around the measured phase.
"""

import statistics


def percentile(values, p):
    """Linear interpolation between closest ranks of the sorted samples."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def latencies_ms(load):
    """Latency of every OK request, timed from when it was due.

    In a closed loop a request is due when its client sends it; in an open
    loop it is due at its scheduled arrival, so time the generator spent
    late is charged to the request.
    """
    return [done - due for due, done, ok in zip(load["due_ms"], load["done_ms"], load["ok"]) if ok]


def lateness_ms(load):
    """How late the generator sent each request."""
    return [sent - due for due, sent in zip(load["due_ms"], load["sent_ms"])]


def throughput_rps(load):
    ok = sum(1 for v in load["ok"] if v)
    end_ms = max(load["done_ms"]) if load["done_ms"] else 0.0
    return ok / (end_ms / 1000.0) if end_ms > 0 else 0.0


def _hist_delta_mean(before, after, key):
    count = after[key]["count"] - before[key]["count"]
    total = after[key]["sum_ms"] - before[key]["sum_ms"]
    return total / count if count > 0 else 0.0


def _delta(before, after, *path):
    for k in path:
        before, after = before[k], after[k]
    return after - before


def server_deltas(load):
    """Server-side means and counters over the measured phase."""
    b, a = load["server_before"], load["server_after"]
    hits = _delta(b, a, "cache", "context_hits")
    misses = _delta(b, a, "cache", "context_misses")
    plan_hits = _delta(b, a, "cache", "plan_hits")
    plan_lookups = plan_hits + _delta(b, a, "cache", "plan_misses")
    return {
        "queue_ms": _hist_delta_mean(b, a, "queue_ms"),
        "run_ms": _hist_delta_mean(b, a, "run_ms"),
        "total_ms": _hist_delta_mean(b, a, "total_ms"),
        "context_hits": hits,
        "context_misses": misses,
        "context_hit_rate": hits / (hits + misses) if hits + misses > 0 else 0.0,
        "memo_hits": _delta(b, a, "cache", "memo_hits"),
        "plan_lookups": plan_lookups,
        "plan_hit_rate": plan_hits / plan_lookups if plan_lookups > 0 else 0.0,
        "wire_encode_ms": _delta(b, a, "wire", "v2", "encode_ms"),
        "wire_decode_ms": _delta(b, a, "wire", "v2", "decode_ms"),
        "wire_bytes": _delta(b, a, "wire", "v2", "encode_bytes"),
    }


def path_violations(schedule, load, deltas):
    """Reasons the run did not take the path its workload is defined by."""
    out = []
    if load["wire_version"] != 2:
        out.append(f"wire v{load['wire_version']} negotiated, expected v2")
    if deltas["memo_hits"] != 0:
        out.append(f"memo_hits = {deltas['memo_hits']}, expected 0 (memo off)")
    if schedule["expect_context_hits"]:
        if deltas["context_misses"] != 0 or deltas["context_hits"] == 0:
            out.append(f"context hits/misses {deltas['context_hits']}/{deltas['context_misses']},"
                       " expected every request to hit a resident scene")
    elif deltas["context_hits"] != 0:
        out.append(f"context hits = {deltas['context_hits']}, expected 0 (fresh scenes)")
    return out


def overlaps(a, b):
    """Do the interquartile ranges of two sample sets overlap?"""
    qa = statistics.quantiles(a, n=4)
    qb = statistics.quantiles(b, n=4)
    return qa[0] <= qb[2] and qb[0] <= qa[2]
