"""Shared fixtures, and int_array, the one way tests hand ints to gaplab's internals."""

import numpy as np
import pytest

from gaplab.exact_torus import TorusPoint, int_dtype


def int_array(values, *bounds: int) -> np.ndarray:
    """Python ints, or rows of them, as the one array form gaplab's internals take:
    int64 while every value and bound (residues over q take the bound q) fits,
    object past it, never numpy's inferred uint64."""
    held = np.array(values, dtype=object)
    top = max((abs(v) for v in held.ravel().tolist()), default=0)
    return held.astype(int_dtype(top, *bounds))


def held_rows(cloud) -> tuple:
    """A cloud's residue rows as (lists of Python ints, scale, dtype), comparable by ==."""
    rows, scale = cloud._rows
    return rows.tolist(), scale, rows.dtype


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
