"""Closed-loop query benchmark for gaplab.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 20 --trace 0

One client in one process sends the workload's queries back to back: each
is a gaplab CLI subcommand run in process through ``gaplab.cli.main`` with
stdout captured, or one library call.  Every answer is checked (exit code,
a structural check, a digest that must repeat across passes and, for the
default seed, match the digest stored with the benchmark).

The queries form a fixed pass (see workloads.py).  The timed loop finishes
the first pass and then stops when ``--seconds`` have passed.  Latency
statistics use the median of each pass position, so a partly repeated pass
does not tilt the mix.  ``--trace 1`` runs whole passes untraced for half
the time, then as many traced, and reports the per-layer metrics of
tracer.py per pass.

Times are reported at reference speed.  On a shared machine the speed of
the same code drifts by tens of percent over tens of seconds, so the loop
also times a fixed slice of work (``reference_chunk``) every
REFERENCE_INTERVAL_S and scales each latency by
REFERENCE_NOMINAL_S / (reference time measured around it).  gaplab does not
run in that slice, so a change to gaplab cannot move the scale.  The record
keeps the raw figures beside the scaled ones.

Output: a one-line run record (seed, workloads, query mix, machine, all
metrics, digests), then as the last line the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected_digests.json"
DEFAULT_SEED = 0
SETUP_RUNS = 5
TAIL_BEYOND = 10
REFERENCE_NOMINAL_S = 0.004
REFERENCE_INTERVAL_S = 0.2
REFERENCE_WINDOW_S = 2.0
REFERENCE_MIN_SAMPLES = 4

# (name, unit, better) of the metrics an untraced run reports.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("queries_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# CLI metrics that are the answer itself: sumset reports its size only
# there once the elements pass the print limit.
ANSWER_METRICS = {"sumset": ("sum_size",)}


def _import_gaplab():
    """Import gaplab from this checkout's src/, and nowhere else."""
    if not (SRC / "gaplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no gaplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gaplab.cli
    if Path(gaplab.cli.__file__).resolve().parent != (SRC / "gaplab").resolve():
        raise SystemExit(f"error: imported gaplab from {gaplab.cli.__file__}")
    return gaplab.cli


def digest_of(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_REF_VALUES = [random.Random(5).randrange(1 << 40) for _ in range(20000)]


def reference_chunk() -> float:
    """Seconds one fixed slice of sorting, dict, numpy, Fraction and json
    work takes now; the same kinds of work gaplab queries do."""
    import numpy as np
    t0 = time.perf_counter()
    keys = sorted(v ^ 12345 for v in _REF_VALUES[::2])
    {v: i for i, v in enumerate(keys[:5000])}
    np.unique(np.asarray(_REF_VALUES, dtype=np.int64) ^ 77)
    for i in range(1, 300):
        Fraction(i % 97 + 1, i % 101 + 2) + Fraction(i, i % 89 + 3)
    json.dumps(keys[:3000])
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's current speed with reference_chunk."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        reference_chunk()  # the first call pays for importing numpy

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append((time.perf_counter(), reference_chunk()))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] > REFERENCE_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_NOMINAL_S over the median reference time around [start, end]."""
        def distance(t: float) -> float:
            return max(start - t, t - end, 0.0)
        near = sorted(self.samples, key=lambda s: distance(s[0]))
        chosen = [ref for t, ref in near if distance(t) <= REFERENCE_WINDOW_S]
        if len(chosen) < REFERENCE_MIN_SAMPLES:
            chosen = [ref for _, ref in near[:REFERENCE_MIN_SAMPLES]]
        return REFERENCE_NOMINAL_S / statistics.median(chosen)


class Runner:
    """Executes queries in process and checks each answer."""

    def __init__(self, expected: Optional[List[str]]):
        from gaplab import generator_decomposition, reports
        self.cli = sys.modules["gaplab.cli"]
        self.gd = generator_decomposition
        self.reports = reports
        self.expected = expected
        self.seen: Dict[int, str] = {}
        self.problems: List[str] = []

    def execute(self, q) -> Tuple[float, Any, Optional[str]]:
        """Run one query; returns (latency_s, parsed answer, problem)."""
        if q.call is not None:
            t0 = time.perf_counter()
            try:
                cert = self.gd.decompose(*q.call)
            except Exception as exc:  # a failed query, counted in error_rate
                return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            return latency, self.reports.to_jsonable(cert), None
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(q.argv))
        except SystemExit as exc:  # argparse rejects input with exit 2
            rc = exc.code
        except Exception as exc:  # a failed query, counted in error_rate
            return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if rc != 0:
            return latency, None, f"exit code {rc}"
        payload = json.loads(buf.getvalue())
        answer = {k: payload[k] for k in ("command", "config", "verdicts", "report")}
        for key in ANSWER_METRICS.get(payload["command"], ()):
            answer[key] = payload["metrics"][key]
        return latency, answer, None

    def run(self, pos: int, q) -> Tuple[float, bool]:
        latency, answer, problem = self.execute(q)
        if problem is None and q.check is not None:
            problem = q.check(answer)
        if problem is None:
            digest = digest_of(answer)
            first = self.seen.setdefault(pos, digest)
            if digest != first:
                problem = f"digest {digest} differs from the first pass ({first})"
            elif self.expected is not None and digest != self.expected[pos]:
                problem = f"digest {digest} != expected {self.expected[pos]}"
        if problem is not None:
            self.problems.append(f"query {pos} ({q.kind}, size {q.size}): {problem}")
        return latency, problem is None


def loop(runner: Runner, queries, seconds: float, whole_passes: bool,
         count: Optional[int] = None, tracer=None):
    """Closed loop over the pass: run it once, then repeat it until the deadline.

    With whole_passes the loop stops at the last pass boundary before the
    deadline that the mean pass time predicts; with count it runs exactly
    that many queries.  Returns (scaled latencies per position, raw
    latencies per position, attempted, failed).
    """
    k = len(queries)
    probe = SpeedProbe()
    timed: List[Tuple[int, float, float]] = []
    attempted = failed = 0
    probe.sample(REFERENCE_MIN_SAMPLES)
    begin = time.perf_counter()
    deadline = begin + seconds
    while True:
        pos = attempted % k
        now = time.perf_counter()
        if count is not None:
            if attempted >= count:
                break
        elif attempted >= k and whole_passes:
            if pos == 0 and now + (now - begin) * k / attempted > deadline:
                break
        elif attempted >= k and now >= deadline:
            break
        probe.maybe_sample()
        if tracer is not None:
            tracer.query = attempted
        start = time.perf_counter()
        latency, ok = runner.run(pos, queries[pos])
        timed.append((pos, start, latency))
        attempted += 1
        failed += not ok
    probe.sample(REFERENCE_MIN_SAMPLES)
    lat: List[List[float]] = [[] for _ in queries]
    raw: List[List[float]] = [[] for _ in queries]
    for pos, start, latency in timed:
        raw[pos].append(latency)
        lat[pos].append(latency * probe.scale(start, start + latency))
    return lat, raw, attempted, failed


def harrell_davis(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier than any single one on a few dozen values."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 64  # Simpson's rule on each of the n intervals
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append((pdf(lo) + inner + pdf(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_stats(lat: List[List[float]]) -> Dict[str, Any]:
    """Pass-weighted latency figures from per-position medians.

    The tail is the highest percentile with TAIL_BEYOND positions beyond it.
    """
    per_pos = [statistics.median(v) for v in lat]
    k = len(per_pos)
    pct = 100.0 * (k - TAIL_BEYOND) / k if k > TAIL_BEYOND else 100.0
    tail = harrell_davis(per_pos, pct / 100) if k > TAIL_BEYOND else max(per_pos)
    return {"queries_per_s": k / sum(per_pos),
            "latency_p50_ms": 1e3 * harrell_davis(per_pos, 0.5),
            "latency_tail_ms": 1e3 * tail,
            "latency_tail_percentile": pct,
            "latency_tail_positions_beyond": TAIL_BEYOND if k > TAIL_BEYOND else 0,
            "positions": k,
            "position_ms": [1e3 * v for v in per_pos],
            "samples": sum(len(v) for v in lat)}


def warm_up(workload) -> None:
    """One untimed query per query type; fills process-level caches."""
    runner = Runner(None)
    for i, q in enumerate(workload.warmups()):
        latency, ok = runner.run(-1 - i, q)
        if not ok:
            raise SystemExit(f"error: warm-up failed: {runner.problems}")


def measure_setup(workload_name: str) -> Tuple[List[float], List[float]]:
    """Seconds from starting a fresh interpreter until it could send a query.

    Returns the scaled and the raw seconds of each of SETUP_RUNS probes.
    """
    probe = SpeedProbe()
    times, raw = [], []
    for _ in range(SETUP_RUNS):
        probe.sample(REFERENCE_MIN_SAMPLES)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--setup-probe"], stdout=subprocess.PIPE, cwd=str(ROOT), text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rc = proc.wait(timeout=120)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe exited {rc}")
        probe.sample(REFERENCE_MIN_SAMPLES)
        raw.append(elapsed)
        times.append(elapsed * probe.scale(t0, t0 + elapsed))
    return times, raw


def machine() -> Dict[str, Any]:
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"cores": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), **versions}


def load_expected(name: str, seed: int, toy: bool) -> Optional[List[str]]:
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return table.get("toy" if toy else "full", {}).get(name)


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  toy: bool = False) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns (run record, result object)."""
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    warm_up(workload)
    queries = workload.build(seed, toy)
    runner = Runner(load_expected(name, seed, toy))
    mix: Dict[str, Dict[str, int]] = {}
    for q in queries:
        m = mix.setdefault(q.kind, {"count": 0, "min_size": q.size, "max_size": q.size})
        m["count"] += 1
        m["min_size"] = min(m["min_size"], q.size)
        m["max_size"] = max(m["max_size"], q.size)
    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "toy": toy, "workloads": {w.name: w.why for w in WORKLOADS.values()},
        "query_mix": mix, "machine": machine(), "loop": "closed, one client"}
    if not trace:
        setup, setup_raw = measure_setup(name)
        lat, raw, attempted, failed = loop(runner, queries, seconds, whole_passes=False)
        values = dict(latency_stats(lat), setup_s=statistics.median(setup),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      error_rate=failed / attempted)
        record["raw"] = dict(latency_stats(raw), setup_s=statistics.median(setup_raw))
        units = END_TO_END
    else:
        lat, _, attempted, failed = loop(runner, queries, seconds / 2, whole_passes=True)
        passes = attempted // len(queries)
        tracer = Tracer()
        tracer.install()
        try:
            tlat, _, t_att, t_failed = loop(runner, queries, 0, False, count=attempted,
                                            tracer=tracer)
        finally:
            tracer.uninstall()
        values = tracer.metrics(passes)
        values["trace.overhead_s"] = (sum(map(sum, tlat)) - sum(map(sum, lat))) / passes
        attempted += t_att
        failed += t_failed
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["passes"] = passes
        units = PER_LAYER
    record["values"] = values
    record["attempted"], record["failed"] = attempted, failed
    record["problems"] = runner.problems[:20]
    record["digests"] = [runner.seen.get(i) for i in range(len(queries))]
    record["run_digest"] = digest_of(record["digests"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": values[m], "unit": unit} for m, unit, _ in units}}
    return record, result


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_gaplab()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.setup_probe:
        warm_up(WORKLOADS[args.workload])
        print("ready", flush=True)
        return 0
    record, result = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.toy)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
