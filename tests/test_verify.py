"""The verification suite's seed reaches every check's random instances."""

import importlib

import pytest

from conftest import held_rows

verify = importlib.import_module("gaplab.verify")


@pytest.mark.parametrize("check, target, kwargs", [
    ("greedy-gaps", "fractional_orbit", {"trials_per_n": 1}),
    ("kronecker", "kronecker_census", {"trials_per_d": 1, "n": 100}),
])
def test_seed_chooses_the_instances(check, target, kwargs, monkeypatch):
    real = getattr(verify, target)
    drawn = []

    def spy(alpha, n):
        drawn.append((alpha, n))
        return real(alpha, n)

    monkeypatch.setattr(verify, target, spy)
    per_seed = []
    for seed in (0, 1, 0):
        drawn.clear()
        verify.CHECKS[check](seed=seed, **kwargs)
        per_seed.append(list(drawn))
    assert per_seed[0] == per_seed[2]
    assert per_seed[0] != per_seed[1]


def _fraction_cloud(seed, t):
    """Cloud t of the sumset-performance check, built from Fraction tuples."""
    from fractions import Fraction

    rng = verify._rng(seed, "sumset-performance", t)
    d = rng.randrange(1, 4)
    q = rng.choice((997, 4096, 65536, 10 ** 6 + 3))
    n = rng.randrange(2, 2001)
    if d == 1:
        pts = {(Fraction(v, q),) for v in rng.sample(range(q), min(n, q))}
    else:
        pts = set()
        while len(pts) < n:
            pts.add(tuple(Fraction(rng.randrange(q), q) for _ in range(d)))
    return verify.PointCloud.from_values(sorted(pts))


def test_census_clouds_match_the_fraction_construction():
    for t in range(20):
        got, want = verify._census_cloud(0, t), _fraction_cloud(0, t)
        assert held_rows(got) == held_rows(want)
        assert got.points == want.points


def test_census_cross_check_reports_a_changed_row(monkeypatch):
    nn = importlib.import_module("gaplab.nn_census")
    real, calls = nn._grid_rows, []

    def one_row_off(rows, scale):
        nsq, vec, j = real(rows, scale)
        calls.append(len(rows))
        if len(calls) == 2:  # the second cloud's first row gets a farther neighbour
            nsq = nsq.copy()
            nsq[0] += 1
        return nsq, vec, j

    monkeypatch.setattr(nn, "_grid_rows", one_row_off)
    result = verify.check_sumset_performance(clouds=3)
    assert len(calls) == 3
    assert result.details["mismatches"] == 1 and not result.passed


CHECK_NAMES = ["three-gap", "ap-union", "greedy-gaps", "arc-count", "generators",
               "forced-cover", "kronecker", "kissing", "extract-core",
               "sumset-performance"]
FROZEN_SUITE = "ap-union,forced-cover,kissing,greedy-gaps"


def _fake_clock(step):
    """A stand-in for the time module whose perf_counter advances step per call."""
    import itertools
    import types

    ticks = itertools.count(0.0, step)
    return types.SimpleNamespace(perf_counter=lambda: next(ticks))


def test_verify_output_is_the_same_under_different_clocks(tmp_path, monkeypatch, capsys):
    import json

    from gaplab.cli import main

    payloads, timings = [], []
    for step in (0.5, 1.5):
        monkeypatch.setattr(verify, "time", _fake_clock(step))
        path = tmp_path / f"{step}.json"
        assert main(["verify", "--suite", FROZEN_SUITE, "--seed", "0",
                     "--output", str(path)]) == 0
        payloads.append(json.loads(path.read_text()))
        timings.append(payloads[-1].pop("timings"))
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("]")[0] for line in lines] == [
            f"PASS [{name}" for name in FROZEN_SUITE.split(",")]
        assert all(line.endswith(f" ({step}s)") for line in lines)
    assert payloads[0] == payloads[1]
    for name in FROZEN_SUITE.split(","):
        assert [t[f"{name}.total_s"] for t in timings] == [0.5, 1.5]


@pytest.mark.parametrize("name, kwargs, stage, budget", [
    ("three-gap", {"trials": 2}, "spectra_s", 60.0),
    ("sumset-performance", {"clouds": 1}, "sumset_s", 10.0),
])
def test_a_gated_stage_over_its_budget_fails_the_check(name, kwargs, stage, budget,
                                                       monkeypatch):
    results = []
    for step in (budget - 0.5, budget):
        monkeypatch.setattr(verify, "time", _fake_clock(step))
        results.append(verify.CHECKS[name](seed=0, **kwargs))
    under, over = results
    assert under.passed and not over.passed
    # ticks: the check's start, the stage's start and end, the check's end
    assert under.timings == {"total_s": 3 * (budget - 0.5), stage: budget - 0.5}
    assert over.timings == {"total_s": 3 * budget, stage: budget}
    assert (under.summary, under.details) == (over.summary, over.details)


def test_checks_keep_their_names_order_and_trials(tmp_path, monkeypatch):
    import inspect
    import json

    from gaplab import cli

    assert list(verify.CHECKS) == CHECK_NAMES
    cheap = {"three-gap": {"trials": 1}, "ap-union": {"trials": 1},
             "greedy-gaps": {"trials_per_n": 1}, "arc-count": {"trials": 1},
             "generators": {"trials": 1}, "kronecker": {"trials_per_d": 1, "n": 100},
             "kissing": {"trials": 2}, "sumset-performance": {"clouds": 1}}
    results = verify.run_checks(overrides=cheap)
    assert [r.name for r in results] == CHECK_NAMES
    assert all(r.line.startswith(f"PASS [{r.name}] ") for r in results)
    with_trials = ["three-gap", "ap-union", "arc-count", "generators", "kissing"]
    assert [name for name, fn in verify.CHECKS.items()
            if "trials" in inspect.signature(fn).parameters] == with_trials
    seen = {}
    real = cli.run_checks

    def spy(seed, names, overrides):
        seen.update(overrides)
        return real(seed=seed, names=names, overrides=overrides)

    monkeypatch.setattr(cli, "run_checks", spy)
    path = tmp_path / "out.json"
    assert cli.main(["verify", "--suite", "ap-union,arc-count", "--trials", "2",
                     "--output", str(path)]) == 0
    assert seen == {name: {"trials": 2} for name in with_trials}
    report = json.loads(path.read_text())["report"]
    assert report["ap-union"]["trials"] == report["arc-count"]["trials"] == 2


def test_greedy_gaps_checks_label_counts_against_residue_counts(monkeypatch):
    from gaplab import gap_spectrum

    # an A + B count on labels one too high still passes the gap bound, so
    # only the residue oracle sees it
    real = gap_spectrum.sumset_size
    monkeypatch.setattr(gap_spectrum, "sumset_size", lambda a, b: real(a, b) + (a is not b))
    result = verify.CHECKS["greedy-gaps"](seed=0, trials_per_n=1)
    assert not result.passed
    failures = result.details["failures"]
    assert [(f["n"], f["trial"]) for f in failures] == [(100, 0), (1000, 0), (2000, 0)]
    for f in failures:
        labels, residues = f["on_labels"], f["on_residues"]
        assert labels["b_plus_b"] == residues["b_plus_b"] == 2 * f["n"] - 1
        assert labels["a_plus_b"] == residues["a_plus_b"] + 1


def test_arc_count_recount_catches_a_pair_count_one_too_high(monkeypatch):
    import dataclasses

    # a report one pair too high that still passes and sits inside its
    # bounds: only the integer recount sees it
    real, bumped = verify.arc_counting_diagnostic, []

    def one_too_high(a, b, k):
        rep = real(a, b, k)
        if rep.pair_count + 1 > rep.upper:
            return rep
        bumped.append(k)
        return dataclasses.replace(rep, pair_count=rep.pair_count + 1)

    monkeypatch.setattr(verify, "arc_counting_diagnostic", one_too_high)
    result = verify.CHECKS["arc-count"](seed=0, trials=20)
    assert bumped and not result.passed
    assert result.details["failures"] == len(bumped)
