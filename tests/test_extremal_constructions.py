"""Progression-free sets, cover forcing, and lattice projections."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.extremal_constructions import (ConstructionRangeError,
                                           ap_free_check, behrend_set,
                                           build_cover_forcing_set,
                                           exact_ap_free, greedy_ap_free,
                                           lattice_projection,
                                           max_ap_free_sizes)
from gaplab.gap_spectrum import CircularSet, CollisionError
from gaplab.generator_decomposition import verify_generation

MAX_SIZES_40 = (1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 8, 8, 8, 8, 8, 8, 9,
                9, 9, 9, 10, 10, 11, 11, 11, 11, 12, 12, 13, 13, 13, 13, 14,
                14, 14, 14, 15)


def brute_max_ap_free(n):
    best = 0
    for size in range(n, 0, -1):
        for cand in combinations(range(1, n + 1), size):
            if ap_free_check(cand):
                return size
    return best


def test_ap_free_check_basics():
    assert ap_free_check([1, 2, 4, 5])
    assert not ap_free_check([1, 2, 3])
    assert not ap_free_check([2, 5, 8])
    assert ap_free_check([])
    assert ap_free_check([7])


def test_max_sizes_against_brute_force():
    sizes = max_ap_free_sizes(12)
    assert sizes == tuple(brute_max_ap_free(n) for n in range(1, 13))


def test_max_sizes_frozen_table():
    assert max_ap_free_sizes(40) == MAX_SIZES_40


def test_max_sizes_grow_by_at_most_one():
    sizes = max_ap_free_sizes(40)
    assert all(0 <= b - a <= 1 for a, b in zip(sizes, sizes[1:]))


def test_exact_witnesses():
    for n in (10, 20, 40):
        w = exact_ap_free(n)
        assert ap_free_check(w)
        assert len(w) == MAX_SIZES_40[n - 1]
        assert all(1 <= v <= n for v in w)
    assert exact_ap_free(10) == (1, 2, 4, 8, 9)
    assert exact_ap_free(20) == (1, 2, 6, 7, 9, 14, 15, 18, 20)


def test_greedy_ap_free_is_ap_free():
    for n in (10, 64, 200):
        g = greedy_ap_free(n)
        assert ap_free_check(g)
        assert all(1 <= v <= n for v in g)


def test_digit_sphere_values():
    rep = behrend_set(125)
    assert rep.points == (5, 17, 20, 65, 68, 80)
    assert (rep.base, rep.digit_count, rep.radius_sq) == (4, 4, 2)
    assert ap_free_check(rep.points)
    for n, size in ((50, 3), (300, 6), (1000, 12)):
        r = behrend_set(n)
        assert r.size == size
        assert ap_free_check(r.points)
        assert all(1 <= v <= n for v in r.points)


@given(st.integers(10, 400))
@settings(deadline=None, max_examples=30)
def test_digit_sphere_always_ap_free(n):
    rep = behrend_set(n)
    assert ap_free_check(rep.points)
    assert all(1 <= v <= n for v in rep.points)


def test_cover_forcing_worked_example():
    rep = build_cover_forcing_set(4, (1, 2))
    assert rep.x == 16
    assert rep.points == (1, 2, 14, 15)
    assert rep.representation_counts == {14: 1, 12: 1}
    assert rep.sumset_size == 9
    assert rep.forced_block == (14, 15)
    assert rep.cover == (1, 2, 14, 15) and rep.cover_exact
    assert rep.passed


def test_cover_forcing_with_exact_seeds():
    for n in (10, 16):
        rep = build_cover_forcing_set(n, exact_ap_free(n))
        assert rep.passed
        assert rep.cover_exact
        assert len(rep.cover) >= len(rep.seed)
        assert set(rep.forced_block) <= set(rep.cover)


def test_cover_forcing_validation():
    with pytest.raises(ConstructionRangeError):
        build_cover_forcing_set(4, (1, 2, 3))  # 1,2,3 is a progression
    with pytest.raises(ConstructionRangeError):
        build_cover_forcing_set(4, (0, 1))  # outside [1, n]
    with pytest.raises(ConstructionRangeError):
        build_cover_forcing_set(4, (1, 2, 4))  # more than n/2 elements
    with pytest.raises(ConstructionRangeError):
        build_cover_forcing_set(4, (1, 1))  # duplicates


def test_lattice_projection_distinct_instance():
    rep = lattice_projection((Fraction(5, 101), Fraction(23, 101)), (4, 4))
    assert len(rep.points) == 16
    assert [c.value for c in rep.corners] == [Fraction(0), Fraction(15, 101),
                                              Fraction(69, 101), Fraction(84, 101)]
    assert rep.cover_equal
    assert rep.sumset_size == 49
    assert rep.sumset_size <= rep.doubling_bound == 64
    assert rep.passed


def test_lattice_doubling_and_corner_count_always_hold():
    # |B + B| <= prod(2 N_j - 1) <= 2^k |B| and there are at most 2^k corners,
    # so only corner-cover can fail the report
    rng = random.Random(43)
    built = 0
    for _ in range(40):
        k = rng.randrange(1, 4)
        box = [rng.randrange(1, 16 if k < 3 else 7) for _ in range(k)]
        q = rng.choice((101, 997, 10007))
        try:
            rep = lattice_projection([Fraction(rng.randrange(1, q), q) for _ in box], box)
        except CollisionError:
            continue
        assert rep.sumset_size <= math.prod(2 * m - 1 for m in box)
        assert rep.sumset_size <= rep.doubling_bound
        assert len(rep.corners) <= rep.corner_bound
        assert rep.passed == rep.cover_equal
        built += 1
    assert built >= 30


def test_lattice_projection_collision_detected():
    with pytest.raises(CollisionError):
        lattice_projection((Fraction(5, 64), Fraction(23, 64)), (4, 4))


def test_lattice_corners_feed_the_decomposer():
    rep = lattice_projection((Fraction(5, 101), Fraction(23, 101)), (4, 4))
    b = CircularSet.from_points(rep.points.points)
    c = CircularSet.from_points(rep.corners.points)
    gen = verify_generation(b, c)
    assert gen.passed
    assert gen.c_size <= rep.corner_bound


def greedy_ap_free_oracle(n):
    """The greedy scan itself: keep each of 1..n that closes no progression."""
    chosen = []
    chosen_set = set()
    for x in range(1, n + 1):
        # x enters as the largest element, so only a < b < x can be closed
        if any(2 * b - x in chosen_set for b in chosen):
            continue
        chosen.append(x)
        chosen_set.add(x)
    return tuple(chosen)


def test_greedy_ap_free_matches_the_greedy_scan():
    # the scan never revisits a choice, so each result is a prefix of the next
    top = greedy_ap_free_oracle(20_000)
    sizes = [20_000, 0, -1] + [3 ** k + d for k in range(10) for d in (0, 1)]
    for n in sizes:
        assert greedy_ap_free(n) == tuple(x for x in top if x <= n), n


# ---------------------------------------------------------------------------
# lattice_projection builds both sets from residues.  The parent's Fraction
# construction of the points and corners is kept verbatim as the reference.

def parent_lattice_sets(alphas, box):
    import itertools
    avals = tuple(Fraction(a) % 1 for a in alphas)
    dims = tuple(int(m) for m in box)
    seen = {}
    for tup in itertools.product(*(range(m) for m in dims)):
        val = sum((n * a for n, a in zip(tup, avals)), Fraction(0)) % 1
        if val in seen:
            raise CollisionError(
                f"box points {seen[val]} and {tup} collide at {val}")
        seen[val] = tup
    ordered = sorted(seen)
    points = CircularSet.from_values(ordered, labels=tuple(seen[v] for v in ordered))
    corner_vals = sorted({
        sum((d * (m - 1) * a for d, m, a in zip(delta, dims, avals)), Fraction(0)) % 1
        for delta in itertools.product((0, 1), repeat=len(dims))})
    corners = CircularSet.from_values(corner_vals)
    return points, corners


@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=60),
                min_size=1, max_size=3),
       st.lists(st.integers(1, 6), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_lattice_projection_matches_the_fraction_construction(alphas, box):
    box = box[:len(alphas)]
    try:
        points, corners = parent_lattice_sets(alphas, box)
    except CollisionError as exc:
        with pytest.raises(CollisionError) as err:
            lattice_projection(alphas, box)
        assert str(err.value) == str(exc)
        return
    rep = lattice_projection(alphas, box)
    for got, want in ((rep.points, points), (rep.corners, corners)):
        assert got._residues == want._residues
        assert got.labels == want.labels and got.wrap == want.wrap
        assert got == want
