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
