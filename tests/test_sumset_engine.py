"""Exact sumsets across domains, and the minimum difference cover solver."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.exact_torus import TorusPoint
from gaplab.sumset_engine import (Domain, DomainMismatchError, FiniteExactSet,
                                  difference_set, doubling_ratio,
                                  minimal_difference_cover, negate, sumset)


def brute_sum(xs, ys):
    return sorted({a + b for a in xs for b in ys})


def test_integer_sumset_matches_brute():
    a = FiniteExactSet.integers([0, 1, 5, 11])
    b = FiniteExactSet.integers([-3, 0, 7])
    assert list(sumset(a, b).elements) == brute_sum(a.elements, b.elements)


def test_rational_sumset_matches_brute():
    a = FiniteExactSet.rationals([Fraction(1, 3), Fraction(1, 2), Fraction(-2, 7)])
    b = FiniteExactSet.rationals([Fraction(0), Fraction(5, 6)])
    assert list(sumset(a, b).elements) == brute_sum(a.elements, b.elements)


def test_torus_sumset_wraps():
    a = FiniteExactSet.torus([Fraction(3, 4), Fraction(1, 2)])
    b = FiniteExactSet.torus([Fraction(1, 2)])
    got = [p.value for p in sumset(a, b).elements]
    assert got == [Fraction(0), Fraction(1, 4)]


def test_domain_mismatch_rejected():
    a = FiniteExactSet.integers([1])
    b = FiniteExactSet.rationals([Fraction(1)])
    with pytest.raises(DomainMismatchError):
        sumset(a, b)


def test_integer_domain_rejects_nonints():
    with pytest.raises(TypeError):
        FiniteExactSet.integers([1, Fraction(1, 2)])
    with pytest.raises(TypeError):
        FiniteExactSet.integers([True])


def test_huge_integers_take_the_hashing_path():
    base = 1 << 70  # beyond int64, so the numpy paths must stand aside
    a = FiniteExactSet.integers([base, base + 3, base + 10])
    b = FiniteExactSet.integers([-base, -base + 1])
    assert list(sumset(a, b).elements) == brute_sum(a.elements, b.elements)


def test_mixed_scale_rationals():
    a = FiniteExactSet.rationals([Fraction(1, 997), Fraction(2, 13)])
    b = FiniteExactSet.rationals([Fraction(1, 3), Fraction(1, 4096)])
    assert list(sumset(a, b).elements) == brute_sum(a.elements, b.elements)


@given(st.lists(st.integers(-2000, 2000), min_size=1, max_size=40),
       st.lists(st.integers(-2000, 2000), min_size=1, max_size=40))
@settings(deadline=None, max_examples=60)
def test_sumset_size_floor(xs, ys):
    a = FiniteExactSet.integers(set(xs))
    b = FiniteExactSet.integers(set(ys))
    s = sumset(a, b)
    assert len(s) >= len(a) + len(b) - 1
    assert list(s.elements) == brute_sum(a.elements, b.elements)


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60),
                min_size=1, max_size=25))
@settings(deadline=None, max_examples=60)
def test_torus_negate_is_involution(vals):
    a = FiniteExactSet.torus(vals)
    assert negate(negate(a)) == a
    got = {p.value for p in negate(a).elements}
    assert got == {(-p.value) % 1 for p in a.elements}


def test_difference_set_contains_zero_and_negates():
    a = FiniteExactSet.torus([Fraction(0), Fraction(1, 5), Fraction(2, 5)])
    d = difference_set(a, a)
    vals = {p.value for p in d.elements}
    assert Fraction(0) in vals
    assert vals == {(-v) % 1 for v in vals}


def test_doubling_ratio_exact():
    a = FiniteExactSet.integers([1, 2, 3, 4])
    assert doubling_ratio(a) == Fraction(7, 4)
    with pytest.raises(ValueError):
        doubling_ratio(FiniteExactSet.integers([]))


def test_cover_of_arithmetic_progression_is_small():
    # For {0, d, 2d, ..., (n-1)d} the two endpoints already cover B - B.
    a = FiniteExactSet.integers(list(range(0, 50, 5)))
    cov = minimal_difference_cover(a)
    assert cov.exact
    assert len(cov.cover) == 2


def test_cover_universe_matches_difference_set():
    rng = random.Random(5)
    for _ in range(20):
        q = rng.randrange(6, 50)
        vals = rng.sample(range(q), rng.randrange(2, min(10, q)))
        a = FiniteExactSet.torus([Fraction(v, q) for v in vals])
        cov = minimal_difference_cover(a)
        assert tuple(cov.universe) == difference_set(a, a).elements
        assert set(cov.cover) <= set(a.elements)
        covered = {(c.value - e.value) % 1 for c in cov.cover for e in a.elements}
        assert covered == {p.value for p in cov.universe}


def test_cover_certificate_witnesses_every_difference():
    a = FiniteExactSet.integers([1, 2, 14, 15])
    cov = minimal_difference_cover(a)
    assert set(cov.certificate) == set(cov.universe)
    for d, (c, e) in cov.certificate.items():
        assert c - e == d
        assert c in set(cov.cover) and e in set(a.elements)


def test_exact_cover_is_minimum():
    rng = random.Random(9)
    for _ in range(25):
        q = rng.randrange(5, 30)
        vals = rng.sample(range(q), rng.randrange(2, min(8, q + 1)))
        a = FiniteExactSet.torus([Fraction(v, q) for v in vals])
        cov = minimal_difference_cover(a)
        assert cov.exact
        universe = {(p.value - r.value) % 1 for p in a.elements for r in a.elements}
        best = next(k for k in range(1, len(a) + 1)
                    for cand in combinations(a.elements, k)
                    if {(c.value - e.value) % 1
                        for c in cand for e in a.elements} == universe)
        assert len(cov.cover) == best


def test_greedy_cover_flagged_not_exact():
    rng = random.Random(3)
    vals = rng.sample(range(10 ** 6), 40)
    a = FiniteExactSet.integers(vals)
    cov = minimal_difference_cover(a, exact_limit=24)
    assert not cov.exact
    covered = {c - e for c in cov.cover for e in a.elements}
    assert covered == {p - r for p in a.elements for r in a.elements}


def test_sorted_output_across_domains():
    rng = random.Random(1)
    vals = [Fraction(rng.randrange(1000), 997) for _ in range(50)]
    a = FiniteExactSet.rationals(vals)
    assert list(a.elements) == sorted(set(vals))
    t = FiniteExactSet.torus(vals)
    got = [p.value for p in t.elements]
    assert got == sorted(set(v % 1 for v in vals))


def test_torus_lifts_keep_their_values():
    tenths = [Fraction(n, 10) for n in (0, 1, 2, 3)]
    b = FiniteExactSet.torus(tenths)
    s = sumset(b, FiniteExactSet.torus([Fraction(1, 2), Fraction(3, 4)]))
    assert [str(p) for p in s.elements] == ["1/20", "1/2", "3/5", "7/10", "3/4",
                                            "4/5", "17/20", "19/20"]
    cov = minimal_difference_cover(b)
    assert [str(p) for p in cov.cover] == ["0", "3/10"]
    assert [str(p) for p in cov.universe] == ["0", "1/10", "1/5", "3/10", "7/10",
                                              "4/5", "9/10"]
    assert {str(d): (str(c), str(e)) for d, (c, e) in cov.certificate.items()} == {
        "0": ("0", "0"), "1/10": ("3/10", "1/5"), "1/5": ("3/10", "1/10"),
        "3/10": ("3/10", "0"), "7/10": ("0", "3/10"), "4/5": ("0", "1/5"),
        "9/10": ("0", "1/10")}
    # the certificate is keyed by the universe's own point objects
    assert all(k is u for k, u in zip(cov.certificate, cov.universe))
    rat = minimal_difference_cover(FiniteExactSet.rationals(tenths))
    assert [str(d) for d in rat.universe] == ["-3/10", "-1/5", "-1/10", "0", "1/10",
                                              "1/5", "3/10"]
    assert rat.certificate[Fraction(-1, 5)] == (Fraction(0), Fraction(1, 5))
