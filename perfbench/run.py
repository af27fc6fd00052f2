#!/usr/bin/env python3
"""The repository's benchmark: defa_serve driven over TCP by one client process.

    python3 perfbench/run.py --workload frame_stream --seed 1 --seconds 20 --trace 0

Builds defa_serve and the benchmark driver from the checkout's sources,
sets the server up several times (launch to ready, plus the workload's
warm-up), drives the last one for --seconds with the workload's seeded
request stream, checks a seeded sample of the responses against an
in-process `reference` evaluation, and prints every metric by name and
unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 1 reports the
per-layer metrics instead, from the same cross-process run plus an
in-process replay timed around each layer's public calls.  Metric names,
units and what each should move are listed in perfbench/README.md.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
CHECKS = {"frame_stream": 4, "threshold_sweep": 4, "tiny_rpc": 64}
# Highest percentile with at least ten samples beyond it at the default run
# length.  Reported, not gated: run to run it moves more than any bound.
TAIL = {"frame_stream": 90, "threshold_sweep": 90, "tiny_rpc": 99}
LATE_P50_LIMIT_MS = 1.0  # an open loop whose median send is later has fallen behind


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure once, then (incrementally) build the two binaries."""
    for needed in ("CMakeLists.txt", "src", "tools/defa_serve.cpp"):
        if not (ROOT / needed).exists():
            raise RuntimeError(f"repository sources not found ({ROOT / needed} is missing)")
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "perfbench-build.log"
    cmds = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if _which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(bdir), *gen, "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(bdir), "--target", "perfbench_driver", "defa_serve",
                 "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as f:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, timeout=850).returncode:
                raise RuntimeError(f"build failed: {' '.join(cmd)} (log: {log})")
    return bdir / "defa" / "defa_serve", bdir / "perfbench_driver"


def _which(name):
    return any((Path(p) / name).exists() for p in os.environ.get("PATH", "").split(os.pathsep))


class Server:
    """One defa_serve process on an ephemeral loopback port."""

    def __init__(self, exe, args, rundir, n):
        self.port_file = rundir / f"port{n}.txt"
        self.port_file.unlink(missing_ok=True)
        self.log = open(rundir / f"server{n}.log", "w")
        self.proc = subprocess.Popen(
            [str(exe), "--listen", "0", "--port-file", str(self.port_file), *args],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"defa_serve exited with {self.proc.returncode} during start-up")
            try:
                text = self.port_file.read_text()
                if text.endswith("\n"):
                    self.port = int(text)
                    return
            except (FileNotFoundError, ValueError):
                pass
            time.sleep(0.002)
        raise RuntimeError("defa_serve did not become ready")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def run_driver(exe, cmd, timeout_s, **kv):
    argv = [str(exe), cmd]
    for k, v in kv.items():
        argv += [f"--{k}", str(v)]
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=timeout_s)
    if r.returncode != 0:
        raise RuntimeError(f"perfbench_driver {cmd} failed ({r.returncode}): {r.stderr.strip()}")
    return r.stdout


def source_id():
    """The git commit when the checkout is a git repository, else a digest
    of the built sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return {"git_sha": r.stdout.strip()}
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted((ROOT / "tools").rglob("*")), *sorted(HERE.rglob("*"))]
    for p in files:
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return {"git_sha": None, "source_sha256": h.hexdigest()}


def cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def setup_and_load(serve_exe, driver, schedule, sched_path, rundir, args):
    """Set up SETUPS times (keeping the last server), then run the load phase."""
    setups = []
    server = None
    try:
        for n in range(SETUPS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = Server(serve_exe, schedule["server_args"], rundir, n)
            server.wait_ready()
            ready_s = time.perf_counter() - t0
            warm_ms = run_driver(driver, "warmup", 120, port=server.port, schedule=sched_path)
            setups.append(ready_s + float(warm_ms) / 1000.0)
        out = rundir / "load.json"
        run_driver(driver, "load", args.seconds + 120, port=server.port, schedule=sched_path,
                   seconds=args.seconds, out=out, check=CHECKS[args.workload], seed=args.seed)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    return setups, rss, json.loads(out.read_text())


def end_to_end(setups, rss, load, failed, attempted):
    lat = stats.latencies_ms(load)
    return {
        "throughput_rps": (stats.throughput_rps(load), "1/s"),
        "p50_ms": (stats.percentile(lat, 50), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def _mean(xs):
    return sum(xs) / len(xs)


def per_layer(load, deltas, trace):
    """Per-layer metrics: server counters of the load run + the traced replay."""
    n = load["attempted"]
    cw = load["client_wire"]
    client_ms = [d - s for s, d, ok in zip(load["sent_ms"], load["done_ms"], load["ok"]) if ok]

    def on_path_or_setup(key):
        # ms per call: the requests' own calls when they make them, else
        # the calls the traced set-up timed on this workload's scenes.
        vals = [v for v in trace[key] if v >= 0] or [c[key] for c in trace["setup_calls"]]
        return _mean(vals)

    encoder = _mean(trace["encoder_ms"])
    msgs_key = "msgs_int12_ms" if trace["quantized"] else "msgs_fp32_ms"
    m = {
        "serve.queue_ms": (deltas["queue_ms"], "ms"),
        "serve.run_ms": (deltas["run_ms"], "ms"),
        "serve.overhead_ms": (_mean(client_ms) - deltas["total_ms"], "ms"),
        "wire.encode_ms": ((cw["encode_ms"] + deltas["wire_encode_ms"]) / n, "ms"),
        "wire.decode_ms": ((cw["decode_ms"] + deltas["wire_decode_ms"]) / n, "ms"),
        "wire.bytes": ((cw["encode_bytes"] + deltas["wire_bytes"]) / n, "bytes"),
        "api.context_hit_rate": (deltas["context_hit_rate"], "ratio"),
        "api.memo_hits": (deltas["memo_hits"], "count"),
        "kernels.plan_hit_rate": (deltas["plan_hit_rate"], "ratio"),
        "kernels.plan_lookups": (deltas["plan_lookups"], "count"),
        "workload.scene_ms": (on_path_or_setup("scene_ms"), "ms"),
        "core.reference_ms": (on_path_or_setup("reference_ms"), "ms"),
        "arch.simulate_ms": (on_path_or_setup("simulate_ms"), "ms"),
        "energy.summarize_ms": (on_path_or_setup("summarize_ms"), "ms"),
        "core.encoder_ms": (encoder, "ms"),
        "kernels.linear_ms": (_mean(trace["linear_ms"]), "ms"),
        "kernels.softmax_ms": (_mean(trace["softmax_ms"]), "ms"),
        "kernels.plan_ms": (_mean(trace["plan_ms"]), "ms"),
        "kernels.msgs_fp32_ms": (_mean(trace["msgs_fp32_ms"]), "ms"),
        "kernels.msgs_int12_ms": (_mean(trace["msgs_int12_ms"]), "ms"),
        "prune.pap_ms": (_mean(trace["pap_ms"]), "ms"),
        "prune.fwp_ms": (_mean(trace["fwp_ms"]), "ms"),
        "prune.point_reduction": (_mean(trace["point_reduction"]), "ratio"),
        "prune.pixel_reduction": (_mean(trace["pixel_reduction"]), "ratio"),
        "kernels.msgs_share": (_mean(trace[msgs_key]) / encoder, "ratio"),
        "fig1b.msgs_share": (_mean([r["msgs_latency_share"] for r in trace["fig1b"]]), "ratio"),
        "unattributed_ms": (_mean([t - p for t, p in zip(trace["total_ms"], trace["path_ms"])]),
                            "ms"),
        "trace.p50_ms": (stats.percentile(trace["total_ms"], 50), "ms"),
    }
    for backend, cell in sorted(trace["backend_matrix"].items()):
        m[f"kernels.msgs_fp32_ms.{backend}"] = (statistics.median(cell["msgs_fp32_ms"]), "ms")
        m[f"kernels.msgs_int12_ms.{backend}"] = (statistics.median(cell["msgs_int12_ms"]), "ms")
    return m


def matrix_lines(matrix, default_backend):
    """Backend matrix cells, labelled against the default backend."""
    lines = []
    base = matrix[default_backend]
    for backend, cell in sorted(matrix.items()):
        for kind in ("msgs_fp32_ms", "msgs_int12_ms"):
            xs = cell[kind]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            if backend == default_backend:
                label = "default"
            elif stats.overlaps(xs, base[kind]):
                label = "no difference"
            else:
                ratio = statistics.median(base[kind]) / statistics.median(xs)
                label = f"{ratio:.2f}x vs {default_backend}"
            lines.append(f"# matrix {kind[:-3]:<11} {backend:<10} median {med:9.3f} ms "
                         f"[q1 {q1:.3f}, q3 {q3:.3f}]  {label}")
    return lines


def write_samples_csv(path, load):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["due_ms", "sent_ms", "done_ms", "ok", "server_queue_ms", "server_run_ms"])
        for row in zip(load["due_ms"], load["sent_ms"], load["done_ms"], load["ok"],
                       load["server_queue_ms"], load["server_run_ms"]):
            w.writerow(row)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    serve_exe, driver = build(bdir)

    rundir = bdir / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir.mkdir(parents=True, exist_ok=True)
    schedule = workloads.make_schedule(args.workload, args.seed, args.seconds)
    sched_path = rundir / "schedule.json"
    sched_path.write_text(json.dumps(schedule))

    setups, rss, load = setup_and_load(serve_exe, driver, schedule, sched_path, rundir, args)
    deltas = stats.server_deltas(load)
    write_samples_csv(rundir / "samples.csv", load)

    attempted = load["attempted"]
    failed = sum(1 for ok in load["ok"] if not ok) + len(load["mismatched"])
    problems = stats.path_violations(schedule, load, deltas)
    if load["checked"] == 0:
        problems.append("no response was checked")
    if load["mismatched"]:
        problems.append(f"{len(load['mismatched'])} of {load['checked']} checked responses differ "
                        "from the in-process reference evaluation")
    late = stats.lateness_ms(load)
    if schedule["loop"] == "open" and stats.percentile(late, 50) > LATE_P50_LIMIT_MS:
        problems.append(f"open-loop generator fell behind: median lateness "
                        f"{stats.percentile(late, 50):.2f} ms")

    if args.trace:
        trace_out = rundir / "trace.json"
        run_driver(driver, "trace", 2 * args.seconds + 120, schedule=sched_path,
                   seconds=args.seconds, out=trace_out)
        trace = json.loads(trace_out.read_text())
        metrics = per_layer(load, deltas, trace)
    else:
        metrics = end_to_end(setups, rss, load, failed, attempted)

    meta = {
        "command": [sys.executable, *sys.argv],
        **source_id(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "simd_tier": load["meta"]["simd_tier"],
        "compiler": load["meta"]["compiler"],
        "compiler_flags": load["meta"]["compiler_flags"],
        "default_backend": load["server_info"]["server"]["backend"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    lat = stats.latencies_ms(load)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (rundir / "result.json").write_text(json.dumps({"meta": meta, "problems": problems,
                                                    "setups_s": setups, **result}, indent=1))

    print(f"# meta {json.dumps(meta)}")
    print(f"# {args.workload}: {schedule['loop']} loop, {schedule['clients']} client(s), "
          f"{attempted} attempted, {failed} failed (failed_frac {failed / attempted:.4f}), "
          f"{load['checked']} checked, setups {', '.join(f'{s:.3f}' for s in setups)} s")
    tail = TAIL[args.workload]
    print(f"# {len(lat)} latency samples: p{tail} {stats.percentile(lat, tail):.3f} ms, "
          f"max {max(lat):.3f} ms")
    if schedule["loop"] == "open":
        print(f"# generator lateness p50 {stats.percentile(late, 50):.3f} ms, "
              f"p99 {stats.percentile(late, 99):.3f} ms, max {max(late):.3f} ms "
              f"(limit p50 {LATE_P50_LIMIT_MS} ms)")
    for e in load["errors"]:
        print(f"# error: {e}")
    for p in problems:
        print(f"# INVALID: {p}")
    if args.trace:
        print("\n".join(matrix_lines(trace["backend_matrix"], meta["default_backend"])))
        for row in trace["fig1b"]:
            print(f"# fig1b {row['benchmark']}: modelled GPU MSGS share "
                  f"{row['msgs_latency_share']:.3f}")
        print(f"# measured CPU MSGS share on {args.workload}: "
              f"{metrics['kernels.msgs_share'][0]:.3f}")
    for k, (v, u) in metrics.items():
        print(f"{k:<32} {v:14.6f} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # noqa: BLE001 — any failure means no result line
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
