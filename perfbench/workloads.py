"""Seeded request schedules for the three benchmark workloads.

Every workload sends exactly one request class (one model shape, one set
of enabled techniques, one output mask), so its latency population has
one mode.  What varies inside a class is only what makes each request do
real work: a fresh scene seed (frame_stream), thresholds in a narrow band
(threshold_sweep), or which of four resident scenes is hit (tiny_rpc).

A schedule is plain JSON that the C++ driver executes:

    {"workload", "seed", "loop": "closed"|"open", "clients",
     "server_args": [...],          # defa_serve flags beyond the defaults
     "requests": [EvalRequest...],  # distinct request objects (wire form)
     "warmup": [index...],          # sent during set-up, not measured
     "sequence": [index...],        # measured phase, in send order
     "arrivals_ms": [float...],     # open loop: due time of sequence[i]
     "expect_context_hits": bool}   # the cache path the workload must take
"""

import random

WORKLOADS = ("frame_stream", "threshold_sweep", "tiny_rpc")

# The paper's thresholds (Sec. 3): PAP tau = 0.03, FWP k = 0.66.
PAPER_TAU = 0.03
PAPER_K = 0.66
# DEFA's level-wise narrowed radii for a 4-level pyramid
# (RangeSpec::level_wise_default).
RANGE_RADII = [8, 8, 6, 6]

TINY_RATE_RPS = 600.0


def pyramid4(h, w):
    """Fine-to-coarse level shapes, halving with ceil (ModelConfig::pyramid4)."""
    levels = []
    for _ in range(4):
        levels.append([h, w])
        h, w = (h + 1) // 2, (w + 1) // 2
    return levels


def model(name, base_h, base_w, n_layers):
    return {
        "name": name,
        "d_model": 256,
        "n_heads": 8,
        "n_levels": 4,
        "n_points": 4,
        "n_layers": n_layers,
        "levels": pyramid4(base_h, base_w),
        "seed": 7,
    }


def value_memory_bytes(m):
    """fp32 value tensor size: N_in tokens x d_model x 4 bytes."""
    return sum(h * w for h, w in m["levels"]) * m["d_model"] * 4


def _rng(workload, seed):
    return random.Random(seed * 7919 + WORKLOADS.index(workload))


def _unique_seeds(rng, n):
    seen = set()
    out = []
    while len(out) < n:
        s = rng.getrandbits(40)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def _off_default(rng, centre, half_width):
    """A value in [centre - half_width, centre + half_width], never the centre."""
    while True:
        v = round(rng.uniform(centre - half_width, centre + half_width), 6)
        if v != centre:
            return v


def frame_stream(seed, seconds):
    # Value memory ~0.44 MB: fits the 2 MB-per-core L2.  Every request is a
    # never-seen scene, so scene generation, the dense reference build, the
    # INT12 DEFA run and the simulator all run per request.
    rng = _rng("frame_stream", seed)
    m = model("frame16x20", 16, 20, 2)
    n = 2 + int(seconds * 100)  # 2 clients would need 20 ms requests to run out
    requests = [
        {"model": m, "scene": {"seed": s}, "outputs": ["functional", "latency", "energy"]}
        for s in _unique_seeds(rng, n)
    ]
    return {
        "loop": "closed",
        "clients": 2,
        "server_args": ["--no-memo", "--max-contexts", "4"],
        "requests": requests,
        "warmup": [0, 1],
        "sequence": list(range(2, n)),
        "expect_context_hits": False,
    }


def _sweep_prune(rng):
    return {
        "label": "sweep",
        "pap": True,
        "pap_tau": _off_default(rng, PAPER_TAU, 0.003),
        "fwp": True,
        "fwp_k": _off_default(rng, PAPER_K, 0.03),
        "narrow": True,
        "range_radii": RANGE_RADII,
        "quantize": True,
        "bits": 12,
    }


def threshold_sweep(seed, seconds):
    # Value memory ~4.6 MB: beyond L2.  One resident scene; thresholds never
    # equal the defaults, so no request is served from the context's cached
    # DEFA result and every request does near-equal kernel + prune work.
    rng = _rng("threshold_sweep", seed)
    m = model("sweep50x67", 50, 67, 2)
    scene = {"seed": rng.getrandbits(40)}
    n = 1 + int(seconds * 50)
    requests = [
        {"model": m, "scene": scene, "prune": _sweep_prune(rng), "outputs": ["functional"]}
        for _ in range(n)
    ]
    return {
        "loop": "closed",
        "clients": 1,
        "server_args": ["--no-memo"],
        "requests": requests,
        "warmup": [0],
        "sequence": list(range(1, n)),
        "expect_context_hits": True,
    }


def tiny_rpc(seed, seconds):
    # ~0.2 ms of compute per request: client, wire, transport and scheduler
    # set the latency.  Poisson arrivals at a fixed rate well below capacity.
    rng = _rng("tiny_rpc", seed)
    prune = {"label": "pap-0.05", "pap": True, "pap_tau": 0.05}
    requests = [
        {"preset": "tiny", "scene": {"seed": s}, "prune": prune, "outputs": ["functional"]}
        for s in _unique_seeds(rng, 4)
    ]
    arrivals = []
    t = 0.0
    while True:
        t += rng.expovariate(TINY_RATE_RPS / 1000.0)
        if t >= seconds * 1000.0:
            break
        arrivals.append(round(t, 4))
    return {
        "loop": "open",
        "clients": 1,
        "server_args": ["--no-memo"],
        "requests": requests,
        "warmup": [0, 1, 2, 3],
        "sequence": [rng.randrange(4) for _ in arrivals],
        "arrivals_ms": arrivals,
        "expect_context_hits": True,
    }


def make_schedule(workload, seed, seconds):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    schedule = globals()[workload](seed, seconds)
    schedule["workload"] = workload
    schedule["seed"] = seed
    return schedule


def class_key(request):
    """What a request class is made of: everything but seeds and thresholds."""
    prune = request.get("prune", {})
    return repr((
        request.get("preset"),
        {k: v for k, v in request.get("model", {}).items() if k != "seed"},
        tuple(request["outputs"]),
        tuple(sorted((k, v) for k, v in prune.items() if k not in ("pap_tau", "fwp_k"))),
        request.get("backend"),
    ))
