"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads orbits,census --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out perfbench/results/NAME.json]

Each run is a separate process, one at a time.  For every workload and
metric this prints the median of the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median
beside the metric's bound from BENCHMARK.json, and it prints each run's
error_rate and run digest.  ``--out`` saves each run's result, figures and
digest with the spreads, as perfbench/results/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="orbits,census,covers,sumsets")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    saved = {"seconds": seconds, "trace": args.trace, "runs": [], "summary": {}}
    units = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            saved["machine"] = record["machine"]
            saved["runs"].append({key: record[key] for key in (
                "workload", "seed", "query_mix", "values", "raw", "run_digest")
                if key in record} | {"result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"error_rate={result['failed'] / result['attempted']:.4f} "
                  f"digest={record['run_digest']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"  {workload:8s} {name:42s} {units[name]:6s} median {med:12.5g}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                line += f"  Q1 {q1:12.5g}  Q3 {q3:12.5g}  spread {spread:7.4f}"
                saved["summary"].setdefault(workload, {})[name] = {
                    "median": med, "q1": q1, "q3": q3, "spread": spread}
            if bounds.get(name) is not None:
                line += f"  bound {bounds[name]}"
            print(line, flush=True)
    if args.out:
        Path(args.out).write_text(dump(saved), encoding="utf-8")
    return 0


def dump(saved: dict) -> str:
    """JSON with one run per line."""
    runs = ",\n  ".join(json.dumps(r, sort_keys=True) for r in saved["runs"])
    rest = {k: v for k, v in saved.items() if k != "runs"}
    head = json.dumps(rest, indent=1, sort_keys=True)[:-2]
    return f'{head},\n "runs": [\n  {runs}\n ]\n}}\n'


if __name__ == "__main__":
    sys.exit(main())
