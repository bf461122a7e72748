"""Nearest-neighbour censuses, dominance families, and core extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.exact_torus import TorusVector, torus_dist_sq
from gaplab.nn_census import (EpsilonRangeError, InvalidConfigurationError,
                              PointCloud, _brute_rows_exact, ball_depth,
                              cloud_sumset, extract_core, gram_kissing_check,
                              hexagon_gram, kissing_check, kronecker_census,
                              max_ball_depth, nn_census, pentagon_cloud,
                              tightness_example)
from gaplab.gap_spectrum import CollisionError


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
    q = (1 << 31) + 1  # over the integer-grid limit, exact pairwise path
    cloud = cloud_1d(0, Fraction(1, q), Fraction(5, q))
    rep = nn_census(cloud, method="brute")
    by_point = {rec.point.values()[0]: rec for rec in rep.records}
    assert by_point[Fraction(0)].diff == (Fraction(1, q),)
    assert by_point[Fraction(0)].dist_sq == Fraction(1, q * q)
    assert by_point[Fraction(5, q)].diff == (Fraction(-4, q),)
    with pytest.raises(InvalidConfigurationError):
        nn_census(cloud, method="grid")


def test_brute_census_past_int64_norms_matches_exact_rows():
    # d * (q/2)^2 >= 2^63 with q under the integer-grid limit: int64 squared
    # norms would wrap, so brute force must take the exact path
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
