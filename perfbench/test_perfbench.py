"""Self-test of the benchmark harness at toy size.

    python3 -m pytest -q perfbench

Runs every workload untraced and traced on tiny inputs through the same
command line the benchmark uses, and checks that each metric named in
BENCHMARK.json is emitted with its unit, that every answer matches the
digest stored for the default seed, and that the tracer leaves gaplab as
it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=300)


def test_spec_matches_harness():
    from run import END_TO_END
    from tracer import PER_LAYER
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 1
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in names}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    expected = json.loads((HERE / "expected_digests.json").read_text())["toy"][workload]
    assert record["digests"] == expected


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "orbits", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_gaplab():
    import gaplab
    import gaplab.cli
    from tracer import Tracer

    def snapshot():
        mods = [m for n, m in sys.modules.items() if n.startswith("gaplab")]
        attrs = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        for cls in (gaplab.CircularSet, gaplab.PointCloud, gaplab.FiniteExactSet,
                    gaplab.SpanOracle, gaplab.generator_decomposition._Instance):
            attrs.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return attrs

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        # from-import copies are rebound; reports keeps its own to_jsonable
        assert gaplab.cli.nn_census is not before[("gaplab.cli", "nn_census")]
        assert gaplab.cli.to_jsonable is not before[("gaplab.cli", "to_jsonable")]
        assert gaplab.reports.to_jsonable is before[("gaplab.reports", "to_jsonable")]
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_harrell_davis():
    from run import harrell_davis

    assert harrell_davis([5.0] * 7, 0.8) == pytest.approx(5.0)
    assert harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    low, high = harrell_davis(list(range(40)), 0.25), harrell_davis(list(range(40)), 0.75)
    assert low < 19.5 < high
