"""The verification suite's seed reaches every check's random instances."""

import importlib

import pytest

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
        assert got._rows == want._rows
        assert got.points == want.points


def test_census_cross_check_reports_a_changed_row(monkeypatch):
    nn = importlib.import_module("gaplab.nn_census")
    real, calls = nn._grid_rows, []

    def one_row_off(rows, scale):
        out = real(rows, scale)
        calls.append(len(rows))
        if len(calls) == 2:  # the second cloud's first row gets a farther neighbour
            nsq, vec, j = out[0]
            out[0] = (nsq + 1, vec, j)
        return out

    monkeypatch.setattr(nn, "_grid_rows", one_row_off)
    result = verify.check_sumset_performance(clouds=3)
    assert len(calls) == 3
    assert result.details["mismatches"] == 1 and not result.passed
