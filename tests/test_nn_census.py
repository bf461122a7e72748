"""Nearest-neighbour censuses, dominance families, and core extraction."""

import ast
import importlib
import inspect
import itertools
import random
from bisect import bisect_right
from dataclasses import fields
from fractions import Fraction
from functools import cached_property
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab.exact_torus import (INT64_MAX, TorusVector, as_rational, int_dtype,
                                signed_mod1, torus_dist_sq)
from gaplab.nn_census import (EpsilonRangeError, GramKissingReport, GreedyStallError,
                              InvalidConfigurationError, KissingReport, KroneckerReport,
                              PointCloud, _brute_rows_exact, ball_depth,
                              cloud_sumset, extract_core, gram_kissing_check,
                              hexagon_gram, kissing_check, kronecker_census,
                              max_ball_depth, nn_census, pentagon_cloud,
                              tightness_example)
from gaplab.gap_spectrum import CollisionError, TooFewPointsError


def cloud_1d(*vals):
    return PointCloud.from_values([(Fraction(v) % 1,) for v in vals])


def test_cloud_canonicalizes_and_sorts():
    c = cloud_1d(Fraction(3, 2), Fraction(1, 4))
    assert [p.values() for p in c.points] == [(Fraction(1, 4),), (Fraction(1, 2),)]
    assert c.dim == 1


def test_cloud_rejects_mixed_dimensions():
    with pytest.raises(InvalidConfigurationError):
        PointCloud.from_values([(Fraction(0),), (Fraction(0), Fraction(1, 2))])


def test_census_of_tie_free_line_cloud():
    rep = nn_census(cloud_1d(0, Fraction(1, 7), Fraction(3, 7)))
    by_point = {rec.point.values()[0]: rec for rec in rep.records}
    assert by_point[Fraction(0)].nearest.values()[0] == Fraction(1, 7)
    assert by_point[Fraction(3, 7)].nearest.values()[0] == Fraction(1, 7)
    assert set(rep.census) == {(Fraction(1, 7),), (Fraction(-1, 7),),
                               (Fraction(-2, 7),)}


def test_census_negation_on_tie_free_cloud():
    cloud = cloud_1d(0, Fraction(1, 7), Fraction(3, 7))
    plain = nn_census(cloud)
    mirrored = nn_census(cloud.negate())
    assert {tuple(-v for v in vec) for vec in plain.census} == set(mirrored.census)


def test_census_negation_can_agree_under_ties():
    # both orientations resolve the all-tied triangle to the same vector
    cloud = cloud_1d(0, Fraction(1, 3), Fraction(2, 3))
    plain = nn_census(cloud)
    mirrored = nn_census(cloud.negate())
    assert plain.census == mirrored.census == ((Fraction(-1, 3),),)


def test_methods_agree_on_random_clouds():
    rng = random.Random(17)
    for _ in range(25):
        d = rng.randrange(1, 4)
        q = rng.choice((23, 64, 997))
        n = rng.randrange(2, 40)
        pts = set()
        while len(pts) < min(n, q ** d):
            pts.add(tuple(Fraction(rng.randrange(q), q) for _ in range(d)))
        cloud = PointCloud.from_values(sorted(pts))
        brute = nn_census(cloud, method="brute")
        grid = nn_census(cloud, method="grid")
        assert brute.records == grid.records
        assert brute.census == grid.census


def test_exact_fallback_for_huge_denominators():
    q = (1 << 31) + 1  # past 2^30: both kernels run at any scale
    cloud = cloud_1d(0, Fraction(1, q), Fraction(5, q))
    rep = nn_census(cloud, method="brute")
    by_point = {rec.point.values()[0]: rec for rec in rep.records}
    assert by_point[Fraction(0)].diff == (Fraction(1, q),)
    assert by_point[Fraction(0)].dist_sq == Fraction(1, q * q)
    assert by_point[Fraction(5, q)].diff == (Fraction(-4, q),)
    assert _records(nn_census(cloud, method="grid"), cloud) == _brute_rows_exact(cloud)


def test_brute_census_past_int64_norms_matches_exact_rows():
    # d * (q/2)^2 >= 2^63 with q below 2^30: int64 squared norms would
    # wrap, so brute force must take the exact path
    q = (1 << 30) - 35
    h = q // 2
    rows = [(0,) * 40, (h,) * 40, (h + 1,) + (h,) * 39]
    cloud = PointCloud.from_values([[Fraction(v, q) for v in r] for r in rows])
    for method in ("auto", "brute"):
        rep = nn_census(cloud, method=method)
        got = [(rec.dist_sq, rec.diff, cloud.points.index(rec.nearest))
               for rec in rep.records]
        assert got == _brute_rows_exact(cloud)
        assert all(rec.dist_sq > 0 for rec in rep.records)


def test_record_distances_are_true_minima():
    rng = random.Random(29)
    for _ in range(10):
        q = rng.randrange(10, 60)
        n = rng.randrange(2, 10)
        pts = set()
        while len(pts) < n:
            pts.add((Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q)))
        cloud = PointCloud.from_values(sorted(pts))
        rep = nn_census(cloud)
        for rec in rep.records:
            dists = [torus_dist_sq(rec.point, other)
                     for other in cloud.points if other != rec.point]
            assert rec.dist_sq == min(dists)


def test_kronecker_worked_example():
    rep = kronecker_census((Fraction(5, 8),), 4)
    assert rep.ell == 2
    assert rep.sorted_prefix == (3, 2)
    assert rep.contained and rep.passed
    got = {vec[0] for vec in rep.census}
    assert got == {Fraction(1, 8), Fraction(-1, 8), Fraction(1, 4), Fraction(-1, 4)}


def test_kronecker_rejects_colliding_orbit():
    with pytest.raises(CollisionError):
        kronecker_census((Fraction(1, 3),), 5)


def test_kronecker_census_bound_randomized():
    rng = random.Random(31)
    for d in (1, 2, 3):
        q = 4099
        alphas = tuple(Fraction(rng.randrange(1, q), q) for _ in range(d))
        rep = kronecker_census(alphas, 400)
        assert rep.contained
        assert rep.census_size <= 2 * rep.ell


def test_kronecker_passes_exactly_when_contained():
    # one census vector per allowed offset and at most 2*ell allowed offsets,
    # so the printed containment verdict decides the report's pass flag
    rng = random.Random(37)
    outcomes = set()
    for _ in range(200):
        d = rng.randrange(1, 5)
        q = rng.choice((7, 12, 30, 97, 360, 4099))
        alphas = tuple(Fraction(rng.randrange(q), q) for _ in range(d))
        try:
            rep = kronecker_census(alphas, rng.randrange(2, 40))
        except CollisionError:
            continue
        assert rep.passed == rep.contained
        outcomes.add(rep.contained)
    assert outcomes == {True, False}


def test_kissing_pair_and_triple_on_the_circle():
    u = TorusVector.of(Fraction(1, 8))
    v = TorusVector.of(Fraction(7, 8))
    assert kissing_check([u, v]).passed
    w = TorusVector.of(Fraction(1, 5))
    rep = kissing_check([u, v, w])
    assert not rep.passed
    assert rep.violations


def test_kissing_rejects_zero_vector():
    with pytest.raises(InvalidConfigurationError):
        kissing_check([TorusVector.of(Fraction(0))])


def test_pentagon_reaches_five():
    pts = pentagon_cloud()
    assert len(pts) == 5
    rep = kissing_check(list(pts))
    assert rep.passed and rep.angular_ok


def test_hexagon_gram_reaches_six():
    rep = gram_kissing_check(hexagon_gram())
    assert rep.passed
    assert rep.count == 6 and rep.rank <= 2
    assert rep.positive_semidefinite and rep.embeddable


def test_gram_check_rejects_non_psd():
    bad = [[Fraction(1, 16), Fraction(1, 8)], [Fraction(1, 8), Fraction(1, 16)]]
    rep = gram_kissing_check(bad)
    assert not rep.positive_semidefinite
    assert not rep.passed


def test_seven_point_plane_families_fail():
    # within radius 1/4 torus distance is Euclidean, so seven rays cannot
    # stay pairwise 60 degrees apart and some pair must break dominance
    rng = random.Random(37)
    for _ in range(10):
        q = rng.randrange(24, 400)
        vecs = []
        while len(vecs) < 7:
            v = (Fraction(rng.randrange(-(q // 4), q // 4 + 1), q),
                 Fraction(rng.randrange(-(q // 4), q // 4 + 1), q))
            if any(v):
                vecs.append(TorusVector.of(*v))
        assert not kissing_check(vecs).passed


def test_ball_depth_of_antipodal_pair():
    cloud = cloud_1d(0, Fraction(1, 2))
    rep = max_ball_depth(cloud, cloud)
    assert rep.max_depth == 2
    assert rep.kappa_hat == Fraction(3, 2)


def test_ball_depth_counts_containing_balls():
    cloud = cloud_1d(0, Fraction(1, 7), Fraction(3, 7))
    z = TorusVector.of(Fraction(1, 14))
    # z sits within 1/7 of both 0 and 1/7, but 3/7 has radius 2/7 < dist
    assert ball_depth(z, cloud) == 2


def test_cloud_sumset_wraps():
    a = cloud_1d(Fraction(3, 4))
    s = cloud_sumset(a, a)
    assert [p.values() for p in s.points] == [(Fraction(1, 2),)]


def test_tightness_cloud_m3():
    rep = tightness_example(3)
    assert rep.size == 9
    assert rep.sumset_size == 24
    assert rep.sumset_size < rep.doubling_bound == 36
    assert rep.census_size == 4
    assert rep.census_size >= rep.census_floor
    assert rep.passed


@pytest.mark.parametrize("m", range(2, 21))
def test_tightness_census_is_m_plus_one(m):
    # census >= m, the pass flag's conjunct that no printed verdict shows;
    # |A + A|, counted on the circle, against the cloud sum table
    rep = tightness_example(m)
    assert rep.census_size == m + 1
    assert rep.sumset_size == len(cloud_sumset(rep.cloud, rep.cloud))
    assert rep.passed


def test_extract_core_on_tightness_cloud():
    tight = tightness_example(3)
    kappa = max_ball_depth(tight.cloud, tight.cloud).kappa_hat
    trace = extract_core(tight.cloud, tight.cloud, tight.epsilon, kappa)
    assert trace.passed and trace.size_ok and trace.census_ok
    assert len(trace.core) >= (1 - tight.epsilon) * trace.a_size
    assert trace.core_census_size <= trace.census_bound
    assert trace.thetas[-1] < trace.epsilon
    assert all(x in tight.cloud for x in trace.core)


def test_extract_core_epsilon_validation():
    cloud = cloud_1d(0, Fraction(1, 4))
    with pytest.raises(EpsilonRangeError):
        extract_core(cloud, cloud, Fraction(0))
    with pytest.raises(EpsilonRangeError):
        extract_core(cloud, cloud, Fraction(1))


def test_extract_core_dimension_mismatch():
    a = cloud_1d(0, Fraction(1, 4))
    b = PointCloud.from_values([(Fraction(0), Fraction(0))])
    with pytest.raises(InvalidConfigurationError):
        extract_core(a, b, Fraction(1, 2))


@given(st.lists(st.fractions(min_value=0, max_value=Fraction(63, 64),
                             max_denominator=64),
                min_size=2, max_size=20, unique=True))
@settings(deadline=None, max_examples=40)
def test_census_vectors_are_nonzero_and_consistent(vals):
    cloud = PointCloud.from_values([(v,) for v in vals])
    rep = nn_census(cloud)
    assert len(rep.records) == len(cloud.points)
    assert rep.census == tuple(sorted({rec.diff for rec in rep.records}))
    for vec in rep.census:
        assert any(vec)
    for rec in rep.records:
        assert sum(c * c for c in rec.diff) == rec.dist_sq
        assert (rec.nearest - rec.point).signed() == rec.diff
        assert rec.nearest in cloud and rec.nearest != rec.point


# ---------------------------------------------------------------- sweep

def _records(rep, cloud):
    """A report's records in the exact oracle's form: (dist_sq, diff, index)."""
    return [(rec.dist_sq, rec.diff, cloud.points.index(rec.nearest))
            for rec in rep.records]


def _int_cloud(rows, q):
    return PointCloud.from_values([[Fraction(x, q) for x in r] for r in rows])


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.sampled_from((2, 3, 5, 8, 31, 1024)),
    st.lists(st.lists(st.integers(0, 1023), min_size=d, max_size=d),
             min_size=2, max_size=60))))
@settings(deadline=None, max_examples=150)
def test_sweep_matches_exact_oracle(case):
    d, q, raw = case
    rows = sorted({tuple(x % q for x in r) for r in raw})
    if len(rows) < 2:
        return
    cloud = _int_cloud(rows, q)
    want = _brute_rows_exact(cloud)
    rep = nn_census(cloud, method="grid")
    assert rep.method == "grid"
    assert _records(rep, cloud) == want
    assert rep.census == tuple(sorted({diff for _, diff, _ in want}))


def test_grid_runs_at_scale_two_to_the_thirty_and_one_more():
    q = 1 << 30
    cloud = _int_cloud([(0, 5), (q - 1, 3), (q // 2, q - 7), (17, q // 3)], q)
    assert cloud.common_scale() == q
    rep = nn_census(cloud, method="grid")
    assert _records(rep, cloud) == _brute_rows_exact(cloud)
    over = _int_cloud([(0,), (1,), (q,)], q + 1)
    assert over.common_scale() == q + 1
    assert _records(nn_census(over, method="grid"), over) == _brute_rows_exact(over)
    assert nn_census(over, method="auto").method == "brute"


def test_sweep_past_int64_norms_matches_exact_rows():
    # the 40-dimensional cloud of the brute-force test: the sweep runs the
    # same code on Python ints once d * (q/2)^2 leaves int64
    q = (1 << 30) - 35
    h = q // 2
    cloud = _int_cloud([(0,) * 40, (h,) * 40, (h + 1,) + (h,) * 39], q)
    rep = nn_census(cloud, method="grid")
    assert _records(rep, cloud) == _brute_rows_exact(cloud)
    assert all(rec.dist_sq > 0 for rec in rep.records)


@pytest.mark.parametrize("d", [31, 32])
def test_sweep_on_both_sides_of_the_int64_guard(d):
    # q = 2^30: 31 * (q/2)^2 < 2^63 runs on int64, 32 * (q/2)^2 = 2^63 does not
    q = 1 << 30
    rng = random.Random(d)
    rows = {tuple(rng.choice((0, 1, q // 2, q - 1, rng.randrange(q))) for _ in range(d))
            for _ in range(30)}
    cloud = _int_cloud(sorted(rows), q)
    assert cloud.common_scale() == q
    assert _records(nn_census(cloud, method="grid"), cloud) == _brute_rows_exact(cloud)


def test_sweep_on_points_sharing_sort_axis_coordinates():
    # The sweep sorts along the axis with the most distinct residues, so a
    # sort axis shared by every point only occurs for one point.  Its worst
    # reachable cases: points sharing all coordinates but one, and a cube
    # lattice in which every sort-axis value is shared by a third of the
    # points, all at axis offset 0 from each other.
    q = 211
    line = _int_cloud([(7, y, 7) for y in range(0, q, 3)], q)
    lattice = _int_cloud([(x, y, z, t) for x in range(3) for y in range(3)
                          for z in range(3) for t in range(3)], 3)
    for cloud in (line, lattice):
        rep = nn_census(cloud, method="grid")
        assert _records(rep, cloud) == _brute_rows_exact(cloud)


@pytest.mark.parametrize("k,d", [(2, 1), (5, 2), (4, 3), (3, 4), (20, 2), (5, 4)])
def test_sweep_resolves_fully_tied_lattices(k, d):
    # every point of the full lattice (Z/k)^d has 2d neighbours at 1/k
    # (d for k = 2); each must pick the smallest signed vector, -1/k on the
    # first axis.  At (20, 2) the sweep first meets it past _SWEEP_BLOCK
    # offsets and brute force runs several tiles; (5, 4) has n > 512 and
    # one row in brute force's last tile.
    cloud = _int_cloud(list(itertools.product(range(k), repeat=d)), k)
    rows, scale = cloud._rows
    at = {row: t for t, row in enumerate(rows)}
    want = [(1, (-1,) + (0,) * (d - 1), at[((row[0] - 1) % k,) + row[1:]])
            for row in rows]
    smallest = tuple([Fraction(-1, k) if k > 2 else Fraction(-1, 2)] + [Fraction(0)] * (d - 1))
    for method in ("brute", "grid"):
        assert scale == k and _nn_module._census_rows(cloud, method) == (method, want)
        rep = nn_census(cloud, method=method)
        if len(rows) <= 100:
            assert _records(rep, cloud) == _brute_rows_exact(cloud)
        assert rep.census == (smallest,)
        assert all(rec.dist_sq == Fraction(1, k * k) for rec in rep.records)


def test_sweep_on_two_points():
    for rows, q in ([(0,), (1,)], 2), ([(3, 1), (1, 3)], 5), ([(0, 0), (0, 1)], 7):
        cloud = _int_cloud(rows, q)
        rep = nn_census(cloud, method="grid")
        assert _records(rep, cloud) == _brute_rows_exact(cloud)


@pytest.mark.parametrize("n,method", [(512, "brute"), (513, "grid")])
def test_auto_switches_after_512_points(n, method):
    rng = random.Random(n)
    rows = sorted({(rng.randrange(997), rng.randrange(997)) for _ in range(2 * n)})[:n]
    cloud = _int_cloud(rows, 997)
    rep = nn_census(cloud, method="auto")
    assert rep.method == method
    assert len(rep.records) == n
    other = nn_census(cloud, method="grid" if method == "brute" else "brute")
    assert rep.records == other.records and rep.census == other.census


def test_residue_rows_match_public_constructor():
    rng = random.Random(41)
    for _ in range(30):
        d = rng.randrange(1, 4)
        dens = [rng.choice((1, 2, 6, 9, 35)) for _ in range(d)]
        rows = {tuple(Fraction(rng.randrange(-40, 40), den) for den in dens)
                for _ in range(rng.randrange(1, 12))}
        rows = {tuple(x % 1 for x in r) for r in rows}
        fast = PointCloud.from_values(sorted(rows, reverse=True))
        public = PointCloud(tuple(TorusVector.of(*r) for r in rows))
        assert fast == public
        assert fast._rows == public._rows
        assert fast.common_scale() == public.common_scale()
        assert fast.negate() == PointCloud(tuple(-p for p in public.points))
        assert cloud_sumset(fast, fast) == PointCloud(
            tuple({p + r for p in public for r in public}))
    # sums can have a smaller common denominator than either summand
    a = cloud_1d(Fraction(1, 6), Fraction(1, 2))
    assert cloud_sumset(a, a).common_scale() == 3


# ---------------------------------------------------------------- kronecker

def _kronecker_reference(alphas, n):
    """kronecker_census on Fractions, one orbit vector per index."""
    avals = tuple(as_rational(a) % 1 for a in alphas)
    if not avals:
        raise InvalidConfigurationError("at least one rotation is required")
    if n < 2:
        raise TooFewPointsError("an orbit census needs n >= 2")
    order = 1
    for a in avals:
        order = lcm(order, a.denominator)
    if order < n:
        raise CollisionError(
            f"orbit points 1 and {1 + order} coincide; denominators too small")

    def vec(k):
        return tuple(signed_mod1(k * a) for a in avals)

    nsq = [None] + [sum((v * v for v in vec(k)), Fraction(0)) for k in range(1, n)]
    census = set()
    for i in range(1, n + 1):
        j = min((j for j in range(1, n + 1) if j != i), key=lambda j: (nsq[abs(i - j)], j))
        census.add(vec(i - j))
        census.add(vec(j - i))
    ordered = sorted(range(1, n), key=lambda k: (nsq[k], k))
    ell = next(pos + 1 for pos, k in enumerate(ordered) if 2 * k <= n)
    allowed = {vec(s * k) for k in ordered[:ell] for s in (1, -1)}
    tie_free = ell >= len(ordered) or nsq[ordered[ell - 1]] != nsq[ordered[ell]]
    ratio = len(census) / ((4.0 / 3.0) ** len(avals))
    return KroneckerReport(avals, n, ell, tuple(ordered[:ell]), tuple(sorted(census)),
                           2 * ell, census <= allowed, tie_free, ratio)


def test_kronecker_matches_fraction_reference():
    rng = random.Random(43)
    cases = [((Fraction(5, 8),), 4), ((Fraction(1, 2),), 2), ((Fraction(0), Fraction(1, 3)), 3),
             ((Fraction(2, 7), Fraction(3, 7)), 7), ((Fraction(-9, 4), Fraction(1, 2)), 4)]
    for d in (1, 2, 3, 4):
        for n in (2, 3, 17, 120, 300):
            alphas = tuple(Fraction(rng.randrange(-50 * n, 50 * n), rng.randrange(n, 3 * n + 2))
                           for _ in range(d))
            cases.append((alphas, n))
    # full orbits of small order, where norms tie across offsets and the
    # left-before-right rule shows in the census
    cases += [((Fraction(a, q), Fraction(b, q)), q)
              for q in range(3, 10) for a in range(1, q) for b in range(a, q)]
    # the array code's edges: n = 2, a full orbit (n = q), q < 2n so that
    # two offsets share a residue, equal least norms on both sides of a
    # point, a zero coordinate, and full orbits of small order in d = 4
    cases += [((Fraction(3, 5), Fraction(1, 7)), 2), ((Fraction(3, 11),), 11),
              ((Fraction(2, 9),), 6), ((Fraction(5, 12), Fraction(1, 4)), 10),
              ((Fraction(3, 7),), 5), ((Fraction(0), Fraction(2, 9), Fraction(0)), 7)]
    cases += [(tuple(Fraction(x, q) for x in (a, b, 1, q - 1)), q)
              for q in range(3, 8) for a in range(q) for b in range(a, q)]
    # denominators whose lcm exceeds 2^63: the norms run on Python ints
    big = (Fraction(12345678901, 2 ** 40 + 15), Fraction(3, 2 ** 31 - 1), Fraction(5, 999983))
    cases += [(big, 150), (big[:2], 300)]
    for alphas, n in cases:
        try:
            want = _kronecker_reference(alphas, n)
        except CollisionError as exc:
            with pytest.raises(CollisionError) as got:
                kronecker_census(alphas, n)
            assert str(got.value) == str(exc)
            continue
        assert kronecker_census(alphas, n) == want


def test_kronecker_collision_message_is_unchanged():
    with pytest.raises(CollisionError) as exc:
        kronecker_census((Fraction(1, 4), Fraction(1, 6)), 13)
    assert str(exc.value) == "orbit points 1 and 13 coincide; denominators too small"


# ---------------------------------------------------------------- core

def _depth_reference(a, b):
    """max_ball_depth on Fractions: (max depth, first deepest point of A+B)."""
    pts = a.points
    radii = [nsq for nsq, _, _ in _brute_rows_exact(a)]
    best, arg = -1, None
    for z in sorted({p + r for p in a for r in b}):
        depth = sum(1 for p, r_sq in zip(pts, radii) if torus_dist_sq(z, p) <= r_sq)
        if depth > best:
            best, arg = depth, z
    return best, arg


def _core_reference(a, b, eps, kap):
    """extract_core on Fractions with sorted distance lists per center."""
    rows = _brute_rows_exact(a)
    radii = {p: nsq for p, (nsq, _, _) in zip(a.points, rows)}
    diffs = {p: diff for p, (_, diff, _) in zip(a.points, rows)}
    s_points = sorted({p + r for p in a for r in b})
    d = a.dim
    threshold = (2 * kap / eps) * Fraction(4 ** d, 3 ** d) * Fraction(len(s_points), len(a))
    l = 1 + int(threshold)
    dist_lists = {c: sorted(torus_dist_sq(c, s) for s in s_points) for c in s_points}
    a_sets = {c: set() for c in s_points}
    upsilon = {r: 0 for r in b.points}
    worst = 0
    for p in a.points:
        for r in b.points:
            count = bisect_right(dist_lists[p + r], radii[p])
            worst = max(worst, count)
            if count > threshold:
                upsilon[r] += 1
            else:
                a_sets[p + r].add(p)
    covered, centers, r_sizes, thetas = set(), [], [0], [Fraction(1)]
    while thetas[-1] >= eps:
        best_gain, best_c = -1, None
        for c in s_points:
            if len(a_sets[c] - covered) > best_gain:
                best_gain, best_c = len(a_sets[c] - covered), c
        if best_gain <= 0:
            kappa_min = eps * len(a) * worst * Fraction(3 ** d, 4 ** d) / (2 * len(s_points))
            raise GreedyStallError(f"no center adds coverage; retry with kappa >= {kappa_min}")
        centers.append(best_c)
        covered |= a_sets[best_c]
        r_sizes.append(len(covered))
        thetas.append(Fraction(len(a) - len(covered), len(a)))
    census = {diffs[p] for p in covered}
    rounds = len(r_sizes)
    return dict(epsilon=eps, kappa=kap, dim=d, a_size=len(a), b_size=len(b),
                sumset_size=len(s_points), threshold=threshold, l=l,
                centers=tuple(centers), r_sizes=tuple(r_sizes), thetas=tuple(thetas),
                core=PointCloud(tuple(covered)), core_census_size=len(census),
                census_bound=rounds * l, upsilon_max=max(upsilon.values()),
                upsilon_ok=all(2 * v < eps * len(a) for v in upsilon.values()),
                size_ok=len(covered) >= (1 - eps) * len(a),
                census_ok=len(census) <= rounds * l)


def _check_core(a, b, eps, kap, omit=False):
    """extract_core against the reference, called without kap when omit (kap is
    then the measured kappa it must default to); False when both stall alike."""
    args = (a, b, eps) if omit else (a, b, eps, kap)
    try:
        want = _core_reference(a, b, eps, kap)
    except GreedyStallError as exc:
        with pytest.raises(GreedyStallError) as got:
            extract_core(*args)
        assert str(got.value) == str(exc)
        return False
    got = extract_core(*args)
    assert {f.name: getattr(got, f.name) for f in fields(got)} == want
    assert got.core._rows == want["core"]._rows
    return True


def test_ball_depth_and_core_match_fraction_reference():
    clouds = [tightness_example(m).cloud for m in range(2, 7)]
    rng = random.Random(47)
    for _ in range(12):
        q = rng.choice((6, 10, 24, 35))
        n = rng.randrange(2, 16)
        pts = {(Fraction(rng.randrange(q), q), Fraction(rng.randrange(2 * q), 2 * q))
               for _ in range(n)}
        if len(pts) > 1:
            clouds.append(PointCloud.from_values(sorted(pts)))
    # Wide scales, each the cloud's lowest-terms scale: 2 * scale on both sides
    # of INT64_MAX in one dimension (the pair sums' dtype), scale**2 on both
    # sides in two (the sum rows' keys), and 2^64 + 13 in two
    root = 3037000499  # the largest int whose square is below INT64_MAX
    wide = []
    for q, d in (((1 << 62) - 1, 1), ((1 << 62) + 1, 1), (root, 2), (root + 2, 2),
                 ((1 << 64) + 13, 2)):
        pts = {(Fraction(1, q),) * d} | {tuple(Fraction(rng.randrange(q), q) for _ in range(d))
                                         for _ in range(7)}
        wide.append(PointCloud.from_values(sorted(pts)))
        assert wide[-1].common_scale() == q
    assert (int_dtype(2 * ((1 << 62) - 1)), int_dtype(2 * ((1 << 62) + 1))) == (np.int64, object)
    assert (int_dtype(root ** 2), int_dtype((root + 2) ** 2)) == (np.int64, object)
    extracted = 0
    for cloud in clouds + wide:
        assert cloud_sumset(cloud, cloud) == PointCloud(
            tuple({p + r for p in cloud for r in cloud}))
        rep = max_ball_depth(cloud, cloud)
        assert (rep.max_depth, rep.deepest) == _depth_reference(cloud, cloud)
        for eps, kap, omit in ((Fraction(1, 4), rep.kappa_hat, False),
                               (Fraction(1, 4), rep.kappa_hat, True),
                               (Fraction(1, 2), Fraction(1), False),
                               (Fraction(2, 3), Fraction(1, 40), False)):
            extracted += _check_core(cloud, cloud, eps, kap, omit)
    assert extracted > 10
    a = clouds[-1]
    b = PointCloud.from_values([(Fraction(1, 7), Fraction(0)), (Fraction(1, 3), Fraction(1, 2))])
    assert (max_ball_depth(a, b).max_depth, max_ball_depth(a, b).deepest) == _depth_reference(a, b)
    _check_core(a, b, Fraction(1, 3), Fraction(1, 2))
    # A's scale is 10 and its sumset's is 5, no multiple of it; one (a, b)
    # ball count exceeds the threshold only at the exact radius
    a = PointCloud.from_values([(Fraction(1, 10),), (Fraction(1, 2),), (Fraction(7, 10),)])
    b = PointCloud.from_values([(Fraction(1, 2),)])
    assert (a.common_scale(), cloud_sumset(a, b).common_scale()) == (10, 5)
    assert (max_ball_depth(a, b).max_depth, max_ball_depth(a, b).deepest) == _depth_reference(a, b)
    assert _check_core(a, b, Fraction(1, 2), Fraction(1, 2))
    assert extract_core(a, b, Fraction(1, 2), Fraction(1, 2)).upsilon_max == 1


def test_stalling_kappa_message_matches_reference():
    tight = tightness_example(4)
    eps, kap = tight.epsilon, Fraction(1, 100)
    assert not _check_core(tight.cloud, tight.cloud, eps, kap)
    with pytest.raises(GreedyStallError) as exc:
        extract_core(tight.cloud, tight.cloud, eps, kap)
    assert str(exc.value) == "no center adds coverage; retry with kappa >= 11/60"


# ---------------------------------------------------------------- brute force at every scale

_nn_module = importlib.import_module("gaplab.nn_census")


def _edge_residues(q):
    """Residues mod q that meet the fold: 0, 1, q//2, q//2 + 1, q - 1, or any."""
    return st.one_of(st.sampled_from((0, 1, q // 2, q // 2 + 1, q - 1)),
                     st.integers(0, q - 1))


@given(st.sampled_from(((1 << 30) + 1, (1 << 31) + 1, (1 << 62) + 7, 1 << 70)).flatmap(
    lambda q: st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(q), st.just(d),
        st.lists(st.lists(_edge_residues(q), min_size=d, max_size=d),
                 min_size=1, max_size=12)))))
@settings(deadline=None, max_examples=80)
def test_brute_force_past_the_grid_limit_matches_exact_oracle(case):
    q, d, raw = case
    # the row (1, 0, ...) keeps the cloud's common scale at q
    rows = sorted({tuple(r) for r in raw} | {(1,) + (0,) * (d - 1)})
    if len(rows) < 2:
        return
    cloud = _int_cloud(rows, q)
    assert cloud.common_scale() == q
    want = _brute_rows_exact(cloud)
    for method in ("brute", "auto"):
        rep = nn_census(cloud, method=method)
        assert rep.method == "brute"
        assert _records(rep, cloud) == want
        assert rep.census == tuple(sorted({diff for _, diff, _ in want}))


@given(st.sampled_from(((1 << 30) + 1, (1 << 31) + 1, (1 << 62) + 7, 1 << 70)),
       st.integers(1, 4), st.one_of(st.integers(2, 30), st.integers(513, 600)),
       st.integers(0, 1 << 32))
@settings(deadline=None, max_examples=30)
@example(q=1 << 70, d=4, n=600, seed=0)
@example(q=(1 << 62) + 7, d=3, n=513, seed=1)
@example(q=(1 << 31) + 1, d=2, n=541, seed=2)  # the last brute-force tile holds one row
@example(q=1 << 70, d=1, n=595, seed=3)  # and again on object rows
def test_census_kernels_agree_at_every_scale(q, d, n, seed):
    rng = random.Random(seed)

    def coord():
        # the fold's edges, near-duplicates of them (ties, tiny gaps), or any
        base = rng.choice((0, 1, q // 2, q // 2 + 1, q - 1, rng.randrange(q)))
        return (base + rng.choice((0, 0, 1, -1, 2))) % q

    # the row (1, 0, ...) keeps the cloud's common scale at q
    rows = {(1,) + (0,) * (d - 1)}
    while len(rows) < n:
        rows.add(tuple(coord() for _ in range(d)))
    cloud = PointCloud._from_rows(rows, q)
    rows, scale = cloud._rows
    assert scale == q
    want = _nn_module._brute_rows_numpy(rows, q)
    grid = _nn_module._census_rows(cloud, "grid")
    assert grid == ("grid", want)
    assert _nn_module._census_rows(cloud, "auto") == (grid if n > 512 else ("brute", want))
    if n <= 30:
        assert [(Fraction(m, q * q), tuple(Fraction(x, q) for x in v), j)
                for m, v, j in want] == _brute_rows_exact(cloud)


@pytest.mark.parametrize("q, dtype", [((1 << 32) - 1, np.int64), (1 << 32, object)])
def test_brute_force_on_both_sides_of_the_int64_norm_bound(q, dtype):
    # d = 2: 2 * (q//2)^2 is 2^63 - 2^33 + 2 below 2^32 and exactly 2^63 at it
    assert int_dtype(_nn_module._norm_bound(2, q)) is dtype
    h = q // 2
    cloud = _int_cloud([(0, 0), (1, h), (h, h + 1), (q - 1, q - 1), (h + 1, 1), (h, 0)], q)
    assert cloud.common_scale() == q
    assert _records(nn_census(cloud, method="brute"), cloud) == _brute_rows_exact(cloud)


@pytest.mark.parametrize("bound, dtype", [(INT64_MAX - 1, np.int64), (INT64_MAX, object)])
def test_brute_force_self_distance_sentinel_at_the_int64_edge(bound, dtype, monkeypatch):
    # with the norm bound forced to 2^63 - 2 the self-distance sentinel
    # bound + 1 is exactly INT64_MAX in int64; one more moves to object rows
    assert int_dtype(bound) is dtype
    monkeypatch.setattr(_nn_module, "_norm_bound", lambda d, scale: bound)
    q = (1 << 31) + 1
    cloud = _int_cloud([(0, 0, 0), (1, 0, q - 1), (q // 2, 1, 0), (q - 1, q // 2, 2)], q)
    assert _records(nn_census(cloud, method="brute"), cloud) == _brute_rows_exact(cloud)


# ---------------------------------------------------------------- one constructor

def test_every_cloud_holds_its_residue_rows():
    assert not any(isinstance(v, cached_property) for v in vars(PointCloud).values())
    public = PointCloud((TorusVector.of(Fraction(1, 2), Fraction(1, 3)),
                         TorusVector.of(Fraction(0), Fraction(1, 6))))
    fast = PointCloud.from_values([(Fraction(0), Fraction(1, 6)), ("1/2", "1/3")])
    assert public._rows == fast._rows == ([(0, 1), (3, 2)], 6)
    for cloud in (public, fast, public.negate(), cloud_sumset(public, fast),
                  tightness_example(3).cloud):
        assert "_rows" in vars(cloud)


@pytest.mark.parametrize("points, error, text", [
    ((), TooFewPointsError, "a cloud needs at least one point"),
    ((TorusVector.of(0), TorusVector.of(0, 0)), InvalidConfigurationError,
     "mixed dimensions in one cloud"),
    ((TorusVector.of("1/2"), TorusVector.of("3/2")), InvalidConfigurationError,
     "cloud points must be distinct"),
])
def test_public_constructor_errors(points, error, text):
    with pytest.raises(error) as exc:
        PointCloud(points)
    assert str(exc.value) == text


def test_census_takes_no_cells_option():
    assert "cells" not in inspect.signature(nn_census).parameters


def test_library_dispatches_to_residue_kernels_only():
    # _brute_rows_exact is the tests' oracle: no library module calls it
    src = Path(_nn_module.__file__).parent
    called = {node.func.id for path in src.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"_brute_rows_numpy", "_grid_rows"} <= called
    assert "_brute_rows_exact" not in called


def test_one_nearest_partner_choice_for_both_kernels():
    # _least alone breaks ties between equally near partners; the Kronecker
    # census sorts its own offsets
    tree = ast.parse(Path(_nn_module.__file__).read_text())
    defs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}

    def calls(f, name):
        return any(isinstance(node, ast.Call) and ast.unparse(node.func) == name
                   for node in ast.walk(f))
    assert calls(defs["_brute_rows_numpy"], "_least") and calls(defs["_grid_rows"], "_least")
    sorting = {name for name, f in defs.items() if calls(f, "np.lexsort")}
    assert sorting == {"_least", "kronecker_census"}


# ---------------------------------------------------------------- gram elimination

def _gram_reference(gram, rank_bound=2):
    """gram_kissing_check with its original pivot scan, kept verbatim."""
    g = [[as_rational(x) for x in row] for row in gram]
    k = len(g)
    if k == 0 or any(len(row) != k for row in g):
        raise InvalidConfigurationError("Gram matrix must be square")
    if any(g[i][j] != g[j][i] for i in range(k) for j in range(k)):
        raise InvalidConfigurationError("Gram matrix must be symmetric")
    if any(g[i][i] <= 0 for i in range(k)):
        raise InvalidConfigurationError("zero vector in configuration")
    # exact symmetric elimination: PSD iff every pivot is positive and rows
    # with zero pivot vanish entirely
    work = [row[:] for row in g]
    active = list(range(k))
    rank = 0
    psd = True
    while active:
        pivot = None
        for idx, i in enumerate(active):
            if work[i][i] > 0:
                pivot = idx
                break
            if work[i][i] < 0:
                psd = False
                break
            if any(work[i][j] != 0 for j in active):
                psd = False
                break
        if not psd or pivot is None:
            break
        i = active.pop(pivot)
        rank += 1
        piv = work[i][i]
        for r in active:
            f = work[r][i] / piv
            if f == 0:
                continue
            for c in active:
                work[r][c] -= f * work[i][c]
            work[r][i] = Fraction(0)
        if all(work[r][r] == 0 and all(work[r][c] == 0 for c in active)
               for r in active):
            break
    if psd and active:
        psd = all(work[r][r] == 0 and all(work[r][c] == 0 for c in active)
                  for r in active)
    pairwise = all(
        g[i][i] + g[j][j] - 2 * g[i][j] >= max(g[i][i], g[j][j])
        for i in range(k) for j in range(i + 1, k))
    embeddable = all(g[i][i] <= Fraction(1, 16) for i in range(k))
    passed = psd and rank <= rank_bound and pairwise and embeddable
    return GramKissingReport(k, rank, rank_bound, psd, pairwise, embeddable, passed)


@st.composite
def _gram_matrices(draw):
    """Symmetric matrices: B B^T of every rank up to k, then perhaps perturbed."""
    k = draw(st.integers(1, 6))
    r = draw(st.integers(1, k))
    entries = st.integers(-3, 3)
    b = [[draw(entries) for _ in range(r)] for _ in range(k)]
    den = draw(st.sampled_from((1, 16, 64, 144)))
    g = [[Fraction(sum(x * y for x, y in zip(u, v)), den) for v in b] for u in b]
    kind = draw(st.sampled_from(("psd", "perturbed", "symmetric")))
    for i in range(k):
        for j in range(i, k):
            if kind == "symmetric":
                g[i][j] = Fraction(draw(st.integers(-4, 4)), den)
            elif kind == "perturbed" and draw(st.booleans()):
                g[i][j] += Fraction(draw(st.integers(-1, 1)), 4 * den)
            g[j][i] = g[i][j]
    return g, draw(st.integers(0, 6))


@given(_gram_matrices())
@settings(deadline=None, max_examples=400)
def test_gram_elimination_matches_reference_scan(case):
    gram, rank_bound = case
    try:
        want = _gram_reference(gram, rank_bound)
    except InvalidConfigurationError as exc:
        with pytest.raises(InvalidConfigurationError) as got:
            gram_kissing_check(gram, rank_bound)
        assert str(got.value) == str(exc)
        return
    got = gram_kissing_check(gram, rank_bound)
    assert {f.name: getattr(got, f.name) for f in fields(got)} == \
        {f.name: getattr(want, f.name) for f in fields(want)}


# ---------------------------------------------------------------------------
# kissing_check on residue rows.  The parent's version, which decided every
# pair with Fraction torus arithmetic, is kept verbatim as the oracle.

def _angle_at_least_third_pi(u, v):
    """Exact predicate for angle(u, v) >= pi/3 between nonzero real vectors."""
    dot = sum((a * b for a, b in zip(u, v)), Fraction(0))
    if dot <= 0:
        return True
    uu = sum((a * a for a in u), Fraction(0))
    vv = sum((b * b for b in v), Fraction(0))
    return 4 * dot * dot <= uu * vv


def parent_kissing_check(vectors):
    zs = tuple(vectors)
    if not zs:
        raise InvalidConfigurationError("empty configuration")
    dims = {z.dim for z in zs}
    if len(dims) != 1:
        raise InvalidConfigurationError("mixed dimensions")
    if any(z.norm_sq() == 0 for z in zs):
        raise InvalidConfigurationError("zero vector in configuration")
    norms = [z.norm_sq() for z in zs]
    violations = []
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            dsq = torus_dist_sq(zs[i], zs[j])
            if dsq < max(norms[i], norms[j]):
                violations.append((i, j))
    angular = None
    if zs[0].dim <= 2:
        reps = [z.signed() for z in zs]
        angular = all(
            _angle_at_least_third_pi(reps[i], reps[j])
            for i in range(len(zs)) for j in range(i + 1, len(zs)))
    return KissingReport(zs[0].dim, len(zs), not violations,
                         tuple(violations[:8]), angular, not violations)


@st.composite
def _kissing_families(draw):
    """1-7 vectors of dimension d <= 3 over mixed denominators, some past 2^63
    and 2^64; rarely a zero vector or a vector of another dimension."""
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from((8, 12, 97, 360, (1 << 63) + 25, (1 << 64) + 13)))
    den = st.sampled_from((scale, 2 * scale, 3, 5, 7, 16))

    def vector(dim):
        return st.tuples(*[st.builds(Fraction, st.integers(0, 1 << 70), den)] * dim)
    family = draw(st.lists(st.one_of(vector(d), vector(d), vector(d),
                                     st.integers(1, 3).flatmap(vector),
                                     st.just((Fraction(0),) * d)),
                           min_size=0, max_size=7))
    return [TorusVector(v) for v in family]


@given(_kissing_families())
@settings(deadline=None, max_examples=300)
@example([TorusVector.of(Fraction(1, 8)), TorusVector.of(Fraction(7, 8))])
@example(list(pentagon_cloud()))
@example([TorusVector.of(Fraction(1, 3), 0), TorusVector.of(Fraction(2, 5), 0),
          TorusVector.of(Fraction(1, 7), 0)])
def test_kissing_check_matches_the_parent(vectors):
    try:
        want = parent_kissing_check(vectors)
    except InvalidConfigurationError as exc:
        with pytest.raises(InvalidConfigurationError) as got:
            kissing_check(vectors)
        assert str(got.value) == str(exc)
        return
    assert kissing_check(vectors) == want


def test_kissing_violations_come_in_row_major_order():
    # nine vectors crowded near 1/8: every one of the 36 pairs violates, and
    # the report keeps the first eight in the parent's (i, j) loop order
    vecs = [TorusVector.of(Fraction(1, 8) + Fraction(k, 1000)) for k in range(9)]
    rep = kissing_check(vecs)
    assert rep.violations == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8))
    assert rep == parent_kissing_check(vecs)


def test_kissing_pair_at_equal_distance_and_norm_passes():
    # 1/3 and 2/3 are 1/3 apart on the circle, as far as each is from 0:
    # dominance is not strict, so the pair is valid
    u, v = TorusVector.of(Fraction(1, 3)), TorusVector.of(Fraction(2, 3))
    assert torus_dist_sq(u, v) == u.norm_sq() == v.norm_sq()
    rep = kissing_check([u, v])
    assert rep.passed and rep.violations == () and rep == parent_kissing_check([u, v])


# ---------------------------------------------------------------------------
# Cloud membership answers from the residue rows, by a sorted search.

class _SubVector(TorusVector):
    """Equal in coordinates to a member, yet never equal to a TorusVector."""


@st.composite
def _cloud_membership_cases(draw):
    d = draw(st.integers(1, 3))
    q = draw(st.sampled_from((2, 12, 60, 97)))
    coord = st.integers(0, q - 1)
    rows = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=10, unique=True))
    # an even-only cloud reduces to scale q/2, so odd numerators over q miss it
    if draw(st.booleans()) and q % 2 == 0:
        rows = sorted({tuple(2 * (x // 2) for x in r) for r in rows})

    def vector(row, den):
        return TorusVector(tuple(Fraction(x, den) for x in row))

    member = st.sampled_from(rows).map(lambda r: vector(r, q))
    near = st.builds(vector, st.tuples(*[coord] * d), st.just(q))
    foreign = st.builds(vector, st.tuples(*[st.integers(0, 400)] * d),
                        st.sampled_from((1, 7, 24, 720)))
    wrong_dim = st.builds(vector, st.lists(coord, min_size=1, max_size=4)
                          .filter(lambda r: len(r) != d).map(tuple), st.just(q))
    other = st.one_of(
        st.sampled_from(rows).map(lambda r: vector(r, q).coords),
        st.sampled_from(rows).map(lambda r: _SubVector(vector(r, q).coords)),
        st.sampled_from(rows).map(lambda r: vector(r, q).coords[0]),
        st.sampled_from(rows).map(lambda r: Fraction(r[0], q)),
        st.integers(0, 3), st.none(), st.text(max_size=3))
    probes = draw(st.lists(st.one_of(member, near, foreign, wrong_dim, other), max_size=12))
    return [[Fraction(x, q) for x in r] for r in rows], probes


@given(_cloud_membership_cases())
@settings(deadline=None, max_examples=150)
def test_cloud_membership_answers_as_the_set_of_points(case):
    rows, probes = case
    cloud = PointCloud.from_values(rows)
    oracle = set(cloud.points)
    for p in probes + list(cloud.points):
        assert (p in cloud) is (p in oracle)
