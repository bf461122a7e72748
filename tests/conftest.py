"""Shared fixtures."""

import pytest

from gaplab.exact_torus import TorusPoint


@pytest.fixture
def lifts(monkeypatch) -> list:
    """The residue n of every TorusPoint._from_residue(n, q) call made in the test."""
    seen = []
    from_residue = TorusPoint._from_residue.__func__

    def counted_from_residue(cls, n, q):
        seen.append(n)
        return from_residue(cls, n, q)

    monkeypatch.setattr(TorusPoint, "_from_residue", classmethod(counted_from_residue))
    return seen
