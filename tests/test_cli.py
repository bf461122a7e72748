"""End-to-end command line behaviour, run in process through main()."""

import json

import pytest

from gaplab.cli import main


def run_json(tmp_path, argv, name="out.json"):
    path = tmp_path / name
    rc = main(argv + ["--output", str(path)])
    return rc, json.loads(path.read_text())


def test_gaps_worked_example(tmp_path):
    rc, payload = run_json(tmp_path, ["gaps", "--alpha", "5/8", "--n", "4"])
    assert rc == 0
    assert payload["schema_version"] == 1
    assert payload["command"] == "gaps"
    verdict = payload["verdicts"][0]
    assert verdict["name"] == "three-gap" and verdict["passed"]
    assert verdict["distinct_gaps"] == ["1/8", "1/4", "3/8"]


def test_decimal_literals_are_exact(tmp_path):
    _, a = run_json(tmp_path, ["gaps", "--alpha", "5/8", "--n", "4"], "a.json")
    _, b = run_json(tmp_path, ["gaps", "--alpha", "0.625", "--n", "4"], "b.json")
    a.pop("timings")
    b.pop("timings")
    assert a == b


def test_repeated_runs_identical_outside_timings(tmp_path):
    argv = ["greedy", "--alpha", "89/144", "--n", "21"]
    _, a = run_json(tmp_path, argv, "a.json")
    _, b = run_json(tmp_path, argv, "b.json")
    assert "timings" in a
    a.pop("timings")
    b.pop("timings")
    assert a == b


def test_failing_verdict_returns_one(tmp_path):
    rc, payload = run_json(
        tmp_path, ["kissing", "--vectors", "1/3,0;2/5,0;1/7,0"])
    assert rc == 1
    verdict = payload["verdicts"][0]
    assert verdict["name"] == "pairwise-dominance" and not verdict["passed"]
    assert verdict["violations"]


def test_passing_kissing_pair(tmp_path):
    rc, payload = run_json(tmp_path, ["kissing", "--vectors", "1/8;7/8"])
    assert rc == 0
    assert payload["verdicts"][0]["passed"]


def test_malformed_rational_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["gaps", "--alpha", "x/y", "--n", "4"])
    assert err.value.code == 2


def test_colliding_orbit_is_input_error(capsys):
    rc = main(["orbit", "--alpha", "1/3", "--n", "5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_integer_domain_rejects_fractions():
    rc = main(["sumset", "--a", "1,2,1/2", "--domain", "integers"])
    assert rc == 2


def test_csv_projection(tmp_path):
    path = tmp_path / "out.csv"
    rc = main(["tightness", "--m", "2", "--format", "csv",
               "--output", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "key,value"
    rows = dict(line.split(",", 1) for line in lines[1:] if line)
    assert rows["schema_version"] == "1"
    assert rows["command"] == "tightness"
    assert rows["metrics.size"] == "4"
    assert "timings.total_s" not in rows


def test_relative_output_lands_in_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GAPLAB_OUTPUT_DIR", str(tmp_path))
    rc = main(["gaps", "--alpha", "5/8", "--n", "4", "--output", "rel.json"])
    assert rc == 0
    payload = json.loads((tmp_path / "rel.json").read_text())
    assert payload["command"] == "gaps"


def test_forced_cover_worked_example(tmp_path):
    rc, payload = run_json(
        tmp_path, ["forced-cover", "--n", "4", "--s", "1,2"])
    assert rc == 0
    assert all(v["passed"] for v in payload["verdicts"])
    assert payload["metrics"]["x"] == 16


def test_cover_of_small_orbit(tmp_path):
    rc, payload = run_json(tmp_path, ["cover", "--alpha", "7/41", "--n", "8"])
    assert rc == 0
    verdict = payload["verdicts"][0]
    assert verdict["name"] == "cover-valid" and verdict["passed"]
    assert verdict["exact"]


def test_verify_subset_prints_status_lines(capsys):
    rc = main(["verify", "--suite", "ap-union,forced-cover"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert any(l.startswith("PASS [ap-union]") for l in lines)
    assert any(l.startswith("PASS [forced-cover]") for l in lines)


def test_verify_rejects_unknown_suite():
    rc = main(["verify", "--suite", "no-such-check"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["generators", "--points", "0,1/2;1/3,1/5;2/3,0"],
    ["cover", "--points", "0;1/3,1/5;2/3"],
    ["generators", "--points", "0;1/3;2/3", "--cover", "0,1/2"],
])
def test_multi_coordinate_circle_points_are_input_errors(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "dimension 2" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cells", ["0", "-1"])
def test_nonpositive_cells_is_input_error(cells, capsys):
    rc = main(["nn-census", "--points", "0,0;1/7,0;3/7,1/2", "--method", "grid",
               "--cells", cells])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "cells" in err
    assert len(err.strip().splitlines()) == 1


def test_negative_print_limit_is_input_error(capsys):
    rc = main(["sumset", "--a", "0,1/2", "--print-limit", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --print-limit must be at least 0, got -1\n"


def test_truncated_sumset_lifts_no_sums(tmp_path, monkeypatch):
    import random
    from collections import Counter
    from fractions import Fraction

    from gaplab import sumset_engine
    from gaplab.exact_torus import TorusPoint

    counts = Counter()
    from_residue = TorusPoint._from_residue.__func__
    lift = sumset_engine._lift

    def counted_from_residue(cls, n, q):
        counts["points"] += 1
        return from_residue(cls, n, q)

    def counted_fraction(*args):
        counts["fractions"] += 1
        return Fraction(*args)

    def counted_lift(*args):
        counts["lifts"] += 1
        return lift(*args)

    monkeypatch.setattr(TorusPoint, "_from_residue", classmethod(counted_from_residue))
    monkeypatch.setattr(sumset_engine, "Fraction", counted_fraction)
    monkeypatch.setattr(sumset_engine, "_lift", counted_lift)
    rng = random.Random(6)
    values = ",".join(f"{n}/999983" for n in rng.sample(range(999983), 300))
    for domain in ("torus", "rationals"):
        rc, payload = run_json(tmp_path, ["sumset", "--a", values, "--domain", domain])
        assert rc == 0
        assert payload["report"] == {"elements": [], "truncated": True}
        assert payload["metrics"]["sum_size"] > 10000
    assert counts == Counter()
    # the counters see the lifts of a printed sum
    for domain in ("torus", "rationals"):
        run_json(tmp_path, ["sumset", "--a", "0,1/8", "--b", "1/4", "--domain", domain])
    assert counts == Counter(points=2, fractions=2, lifts=2)


def test_cover_check_lifts_no_points(tmp_path, monkeypatch):
    import dataclasses

    from gaplab import cli
    from gaplab.exact_torus import TorusPoint

    lifts = []
    from_residue = TorusPoint._from_residue.__func__

    def counted_from_residue(cls, n, q):
        lifts.append(n)
        return from_residue(cls, n, q)

    monkeypatch.setattr(TorusPoint, "_from_residue", classmethod(counted_from_residue))
    cover = cli.minimal_difference_cover
    lifts_by_cover = []

    def spy(*args, **kwargs):
        result = cover(*args, **kwargs)
        lifts_by_cover.append(len(lifts))
        return result

    monkeypatch.setattr(cli, "minimal_difference_cover", spy)
    values = ";".join(f"{n}/1000003" for n in range(0, 1000003, 7919)[:120])
    for argv in (["cover", "--alpha", "89/144", "--n", "40"], ["cover", "--points", values]):
        lifts.clear()
        lifts_by_cover.clear()
        rc, payload = run_json(tmp_path, argv)
        assert rc == 0 and payload["verdicts"][0]["passed"]
        # the counter sees the cover routine lift its universe; the check
        # that C - B = B - B, after it, lifts nothing
        assert lifts_by_cover[0] >= payload["metrics"]["universe_size"]
        assert len(lifts) == lifts_by_cover[0]

    # a cover that misses differences fails the check
    def one_point_cover(*args, **kwargs):
        result = cover(*args, **kwargs)
        return dataclasses.replace(result, cover=result.cover[:1])

    monkeypatch.setattr(cli, "minimal_difference_cover", one_point_cover)
    rc, payload = run_json(tmp_path, ["cover", "--alpha", "89/144", "--n", "40"])
    assert rc == 1 and not payload["verdicts"][0]["passed"]


def test_python_dash_m_runs_the_command_line():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "gaplab", "sumset", "--a", "0,1/8",
                           "--b", "1/4"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["elements"] == ["1/4", "3/8"]
