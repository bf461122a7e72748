"""Canonical representatives, norms and arcs on the circle and the d-torus."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.exact_torus import (TorusPoint, TorusVector, as_rational, ccw_arc,
                                circular_sort, embed_reals, point, reduce_mod1,
                                residues, signed_mod1, torus_dist_sq,
                                torus_norm, torus_norm_sq_d)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=997)
unit_rationals = st.fractions(min_value=0, max_value=Fraction(996, 997),
                              max_denominator=997)


def test_point_reduces_to_unit_interval():
    assert point(Fraction(13, 8)).value == Fraction(5, 8)
    assert point(Fraction(-1, 3)).value == Fraction(2, 3)
    assert reduce_mod1(7).value == 0


def test_raw_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        TorusPoint(Fraction(3, 2))
    with pytest.raises(ValueError):
        TorusPoint(Fraction(-1, 8))


def test_signed_representative_range():
    assert point(Fraction(1, 4)).signed() == Fraction(1, 4)
    assert point(Fraction(3, 4)).signed() == Fraction(-1, 4)
    # 1/2 maps to the left endpoint of [-1/2, 1/2)
    assert point(Fraction(1, 2)).signed() == Fraction(-1, 2)


@given(unit_rationals)
@settings(deadline=None)
def test_norm_is_distance_to_nearest_integer(v):
    p = point(v)
    assert p.norm() == min(v, 1 - v)
    assert 0 <= p.norm() <= Fraction(1, 2)


@given(rationals)
@settings(deadline=None)
def test_norm_symmetry(v):
    assert torus_norm(v) == torus_norm(-v)


@given(rationals, rationals)
@settings(deadline=None)
def test_norm_triangle_inequality(x, y):
    assert torus_norm(x + y) <= torus_norm(x) + torus_norm(y)


@given(unit_rationals, unit_rationals)
@settings(deadline=None)
def test_arcs_of_distinct_points_sum_to_one(a, b):
    p, q = point(a), point(b)
    if p == q:
        assert ccw_arc(p, q) == 0
    else:
        assert ccw_arc(p, q) + ccw_arc(q, p) == 1


def test_signed_mod1_matches_point_signed():
    for num in range(-20, 21):
        v = Fraction(num, 7)
        assert signed_mod1(v) == reduce_mod1(v).signed()


def test_vector_componentwise_canonical():
    v = TorusVector.of(Fraction(5, 4), Fraction(-1, 3))
    assert v.values() == (Fraction(1, 4), Fraction(2, 3))
    assert v.dim == 2


def test_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        TorusVector.of(Fraction(1, 4)) + TorusVector.of(Fraction(1, 4), Fraction(0))


@given(st.lists(unit_rationals, min_size=1, max_size=4),
       st.lists(unit_rationals, min_size=1, max_size=4))
@settings(deadline=None)
def test_vector_distance_symmetry(xs, ys):
    d = min(len(xs), len(ys))
    u = TorusVector.of(*xs[:d])
    v = TorusVector.of(*ys[:d])
    assert torus_dist_sq(u, v) == torus_dist_sq(v, u)
    assert torus_dist_sq(u, u) == 0


def test_vector_norm_sq_sums_components():
    v = TorusVector.of(Fraction(1, 4), Fraction(7, 8))
    assert torus_norm_sq_d(v) == Fraction(1, 16) + Fraction(1, 64)
    assert v.norm_sq() == torus_norm_sq_d(v)


def test_circular_sort_orders_representatives():
    pts = [point(v) for v in (Fraction(3, 4), Fraction(0), Fraction(1, 2))]
    assert [p.value for p in circular_sort(pts)] == [Fraction(0), Fraction(1, 2),
                                                     Fraction(3, 4)]


def test_embed_reals_preserves_order_and_scales():
    pts = embed_reals([Fraction(0), Fraction(3), Fraction(7)])
    vals = [p.value for p in pts]
    assert vals == sorted(vals)
    assert len(set(vals)) == 3


def test_as_rational_accepts_ints_and_strings():
    assert as_rational(3) == 3
    assert as_rational(Fraction(1, 3)) == Fraction(1, 3)


@given(st.one_of(st.integers(1, 10 ** 6), st.integers(1 << 61, 1 << 70)), st.data())
@settings(deadline=None)
def test_residue_constructor_matches_public_constructor(q, data):
    n = data.draw(st.integers(0, q - 1))
    m = data.draw(st.integers(0, q - 1))
    fast = TorusPoint._from_residue(n, q)
    slow = TorusPoint(Fraction(n, q))
    other = TorusPoint(Fraction(m, q))
    assert fast == slow and hash(fast) == hash(slow) and str(fast) == str(slow)
    assert (fast < other) == (slow < other) and (fast > other) == (slow > other)
    assert (other <= fast) == (other <= slow)


@given(st.lists(unit_rationals, max_size=12))
@settings(deadline=None)
def test_residues_clear_a_common_denominator(values):
    ints, q = residues([point(v) for v in values] + values)
    assert ints[:len(values)] == ints[len(values):]
    assert all(0 <= n < q for n in ints)
    assert [Fraction(n, q) for n in ints[:len(values)]] == values
    assert gcd(q, *ints) == 1  # q is the least common denominator
