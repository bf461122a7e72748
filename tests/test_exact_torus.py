"""Canonical representatives, norms and arcs on the circle and the d-torus."""

from fractions import Fraction
from functools import reduce
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.exact_torus import (INT64_MAX, Cleared, TorusPoint, TorusVector, as_rational,
                                ccw_arc, circular_sort, common_scale,
                                embed_reals, int_dtype, point, reduce_mod1,
                                residues, run_starts, signed_mod1, signed_residues,
                                stable_sort, torus_dist_sq, torus_norm, torus_norm_sq_d)
from gaplab.nn_census import _norm_bound, _sq_norms

from conftest import held_rows, int_array

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


# The shared residue helpers, each against a Fraction reference.  Scales
# reach past int64 so the object-array paths run too.
scales = st.one_of(st.integers(1, 10 ** 6), st.integers((1 << 62) - 3, (1 << 62) + 3),
                   st.integers(1 << 63, 1 << 70))


@given(st.lists(scales, min_size=1, max_size=4), st.data())
@settings(deadline=None)
def test_common_scale_matches_fraction_reference(qs, data):
    # each family an int array: int64 while its values fit (near 2^62 and 2^63 at
    # those scales), object past that, or object whatever it holds
    families = []
    for s in qs:
        ints = int_array(data.draw(st.lists(st.integers(0, s - 1), max_size=6)))
        families.append((ints.astype(object) if data.draw(st.booleans()) else ints, s))
    got, q = common_scale(*families)
    assert q == reduce(lambda a, b: a * b // gcd(a, b), qs)
    for (ints, s), scaled in zip(families, got):
        assert type(scaled) is np.ndarray and scaled.dtype != np.uint64
        assert [Fraction(n, q) for n in scaled.tolist()] == [Fraction(n, s) for n in ints.tolist()]
        if s == q:
            assert scaled is ints
        else:
            assert scaled.dtype == int_dtype(max(scaled.tolist(), default=0))


@pytest.mark.parametrize("n, s, f", [
    ((1 << 62) - 1, (1 << 62) + 1, 2), ((1 << 61) + 1, 1 << 62, 4), (INT64_MAX, 1 << 63, 3),
    (0, 1 << 63, 1 << 70), (3, 7, (1 << 62) // 3)])
def test_common_scale_picks_the_dtype_of_the_largest_scaled_value(n, s, f):
    # scaled magnitudes 2^63 - 2, 2^63 + 4, 3 (2^63 - 1), 0 and 2^62 - 1: int64
    # exactly while int_dtype allows them, never numpy's uint64
    for ints in (int_array([0, n]), int_array([-n, 0])):
        (scaled, _), q = common_scale((ints, s), (int_array([]), s * f))
        assert q == s * f and scaled.tolist() == [v * f for v in ints.tolist()]
        assert scaled.dtype == int_dtype(n * f)


@given(scales, st.data())
@settings(deadline=None)
def test_signed_residues_match_fraction_reference(q, data):
    rs = [0, q - 1, q // 2, (q - 1) // 2] + data.draw(st.lists(st.integers(0, q - 1), max_size=12))
    want = [signed_mod1(Fraction(r, q)) for r in rs]
    dtypes = [object] + ([np.int64] if int_dtype(2 * q) is np.int64 else [])
    for dtype in dtypes:
        got = signed_residues(np.array(rs, dtype=dtype), q)
        assert got.dtype == np.dtype(dtype)
        assert [Fraction(int(x), q) for x in got] == want
        assert all(-q <= 2 * int(x) < q for x in got)


@given(st.lists(st.integers(INT64_MAX - 3, INT64_MAX + 3), min_size=1, max_size=3))
def test_int64_guard_keeps_int64_only_below_the_limit(bounds):
    dtype = int_dtype(*bounds)
    assert (dtype is np.int64) == (max(bounds) < (1 << 63) - 1)
    if dtype is np.int64:
        assert np.array(bounds, dtype=dtype).tolist() == bounds


# Residue decomposition: differences and prefix sums below 2q, so 2q is the
# bound, and int64 holds exactly while q < 2^62.
@pytest.mark.parametrize("q, dtype", [((1 << 62) - 1, np.int64), (1 << 62, object),
                                      ((1 << 62) + 1, object)])
def test_int64_guard_at_the_decomposition_switch(q, dtype):
    assert int_dtype(2 * q) is dtype
    res = np.array([0, 1, q // 2, q - 2, q - 1], dtype=dtype)
    gaps = (np.roll(res, -1) - res) % q
    prefix = np.concatenate((np.zeros(1, dtype=dtype), np.cumsum(gaps)))
    want = [(b - a) % q for a, b in zip(res.tolist(), np.roll(res, -1).tolist())]
    assert gaps.tolist() == want and prefix.tolist()[-1] == q


# Census: folded squared norms reach d * (q // 2)^2, which must stay below
# 2^63 - 1.  (d, q) with that bound one below the limit, at it and past it,
# and a 1-d cloud at 2^62.
@pytest.mark.parametrize("d, q, bound, dtype", [
    ((1 << 63) - 2, 3, INT64_MAX - 1, np.int64),
    (188232082384791343, 14, INT64_MAX, object),
    (2, 1 << 32, INT64_MAX + 1, object),
    (1, 1 << 32, 1 << 62, np.int64)])
def test_int64_guard_at_the_census_switch(d, q, bound, dtype):
    assert _norm_bound(d, q) == bound
    assert int_dtype(bound) is dtype
    if d <= 4:
        # the farthest residue differences fold to q // 2 in every coordinate
        rows = np.array([[0] * d, [q // 2] * d], dtype=dtype)
        got = _sq_norms((c[1:] - c[:1] for c in rows.T), q)
        want = sum(TorusPoint(Fraction(q // 2, q)).norm() ** 2 for _ in range(d)) * q * q
        assert int(got[0]) == want == bound


# ---------------------------------------------------------------------------
# The five result types that keep integers until read share one lazy-field
# base: an unread instance behaves as the eager one built by the public
# constructor from its read fields (a FiniteExactSet: the same set, read).

def _lazy_circular_set():
    from gaplab.gap_spectrum import Wrap, fractional_orbit
    return (lambda: fractional_orbit(Fraction(13, 97), 40),
            lambda r: type(r)(tuple(r.points), r.labels, r.wrap), {"wrap": Wrap.EXCLUDE})


def _lazy_point_cloud():
    from gaplab.nn_census import PointCloud
    rows = [("0", "0"), ("1/7", "0"), ("3/7", "1/2"), ("1/2", "1/3"), ("5/6", "2/3")]
    return lambda: PointCloud.from_values(rows), lambda r: type(r)(tuple(r.points)), {}


def _lazy_census_report():
    from gaplab.nn_census import PointCloud, nn_census
    rows = [("0", "0"), ("1/7", "0"), ("3/7", "1/2"), ("1/2", "1/3"), ("5/6", "2/3")]
    return (lambda: nn_census(PointCloud.from_values(rows), "brute"),
            lambda r: type(r)(r.dim, r.method, r.records, r.census), {"method": "grid"})


def _lazy_cover_result():
    from gaplab.sumset_engine import FiniteExactSet, minimal_difference_cover
    b = FiniteExactSet.torus([Fraction(n, 10) for n in (0, 1, 2, 3)])
    return (lambda: minimal_difference_cover(b),
            lambda r: type(r)(r.cover, r.exact, r.universe, r.certificate, r.nodes,
                              r.budget_exhausted), {"nodes": 7})


def _lazy_finite_exact_set():
    from gaplab.sumset_engine import FiniteExactSet, sumset
    a = FiniteExactSet.torus([Fraction(n, 12) for n in (0, 1, 5, 7)])

    def read(s):
        s.elements
        return s
    return lambda: sumset(a, a), read, {"elements": (Fraction(1, 5),)}


def _hash(x):
    try:
        return hash(x)
    except TypeError:  # a CoverResult holds a dict, eager or not
        return TypeError


@pytest.mark.parametrize("kind", [_lazy_circular_set, _lazy_point_cloud,
                                  _lazy_census_report, _lazy_cover_result,
                                  _lazy_finite_exact_set],
                         ids=["CircularSet", "PointCloud", "CensusReport", "CoverResult",
                              "FiniteExactSet"])
def test_an_unread_instance_matches_an_eager_one(kind):
    import copy
    import dataclasses
    import pickle

    lazy, eager_of, changes = kind()
    eager = eager_of(lazy())
    cls = type(eager)
    unread = lambda x: not any(name in vars(x) for name in cls._LAZY)  # noqa: E731
    assert unread(lazy()) and not unread(eager)
    assert lazy() == eager and eager == lazy()
    assert _hash(lazy()) == _hash(eager)
    assert repr(lazy()) == repr(eager)
    assert dataclasses.replace(lazy(), **changes) == dataclasses.replace(eager, **changes)
    restored = pickle.loads(pickle.dumps(lazy()))
    assert unread(restored)
    assert restored == eager and repr(restored) == repr(eager)
    for copied in (copy.copy(lazy()), copy.deepcopy(lazy())):
        assert unread(copied) and copied == eager
    assert hasattr(lazy(), "nope") is False
    for name in (cls._LAZY[0], dataclasses.fields(cls)[0].name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lazy(), name, ())


# A Cleared (as the command line reads a list) against the same values given as
# Fractions: any common denominator, values outside [0, 1), repeats and mixed
# dimensions give every constructor the same set, or the same error.
def _outcome(build):
    try:
        return build()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _cleared(rows, factor):
    """rows (tuples of Fractions) as a Cleared over factor times their least scale."""
    ints, q = residues([x for r in rows for x in r])
    it = iter(n * factor for n in ints)
    return Cleared(tuple(tuple(next(it) for _ in r) for r in rows), q * factor)


@given(st.lists(st.lists(rationals | st.integers(-3, 3).map(Fraction), min_size=1, max_size=2)
                .map(tuple), min_size=1, max_size=8),
       st.integers(1, 6) | st.sampled_from([2 ** 64 + 13]))
@settings(max_examples=300, deadline=None)
def test_constructors_read_a_cleared_as_its_values(rows, factor):
    from gaplab.gap_spectrum import CircularSet
    from gaplab.nn_census import PointCloud
    from gaplab.sumset_engine import FiniteExactSet

    cleared = _cleared(rows, factor)
    assert cleared.values() == tuple(rows)
    got = _outcome(lambda: PointCloud.from_values(cleared))
    want = _outcome(lambda: PointCloud.from_values(rows))
    if type(want) is tuple:
        assert got == want
    else:
        assert held_rows(got) == held_rows(want)
        assert list(got.points) == sorted({TorusVector(r) for r in rows})  # folded onto the torus
    if any(len(r) != 1 for r in rows):
        return
    flat = Cleared(tuple(n for n, in cleared.ints), cleared.scale)
    values = [x for x, in rows]
    labels = list(range(len(values), 0, -1))
    got = _outcome(lambda: CircularSet.from_values(flat, labels))
    want = _outcome(lambda: CircularSet.from_values(values, labels))
    assert got == want if type(want) is tuple else (
        (got._residues[0].tolist(), got._residues[1], got.labels)
        == (want._residues[0].tolist(), want._residues[1], want.labels))
    for make in (FiniteExactSet.rationals, FiniteExactSet.torus):
        assert ((make(flat)._ints.array().tolist(), make(flat)._scale)
                == (make(values)._ints.array().tolist(), make(values)._scale))
    if all(v.denominator == 1 for v in values):
        got, want = FiniteExactSet.integers(flat), FiniteExactSet.integers(map(int, values))
        assert (got._ints.array().tolist(), got._scale) == (want._ints.array().tolist(), 1)
    else:
        first = next(v for v in values if v.denominator != 1)
        assert _outcome(lambda: FiniteExactSet.integers(flat)) == (
            TypeError, f"integer domain got {first!r}")


# ---------------------------------------------------------------------------
# stable_sort against np.argsort(kind="stable"), on the key path and the fallback.

def _assert_stable_sort(a):
    want = np.argsort(a.ravel(), kind="stable")
    values, order = stable_sort(a.copy())
    assert np.array_equal(order, want)
    assert np.array_equal(values, a.ravel()[want])
    return order


def _spy_argsort(monkeypatch):
    """Record each np.argsort call, so a test can tell the fallback from the key path."""
    calls = []
    argsort = np.argsort

    def spy(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


@given(st.lists(st.integers(-(1 << 62), 1 << 62), max_size=40),
       st.sampled_from([1, 4, 9, 1 << 20, 1 << 40, 1 << 64]), st.integers(1, 5),
       st.sampled_from([np.int64, np.int32, object]))
@settings(max_examples=200, deadline=None)
def test_stable_sort_matches_the_stable_argsort(values, spread, rows, dtype):
    # small spreads give ties, a spread of 2^64 the fallback; rows makes the array 2-d
    a = np.array([v % spread - spread // 2 for v in values], dtype=np.int64)
    if dtype is np.int32:
        a = a.astype(np.int32)  # wraps past int32, which the test does not mind
    elif dtype is object:
        a = np.array([v << 64 for v in a.tolist()], dtype=object)
    if len(a) % rows == 0 and len(a):
        a = a.reshape(rows, -1)
    _assert_stable_sort(a)
    # a transposed view is not C-contiguous, so its keys go to a copy
    _assert_stable_sort(a.T)


@pytest.mark.parametrize("size", [2, 4, 5, 1000])
def test_stable_sort_keys_fill_int64_exactly(size, monkeypatch):
    # (hi - lo + 1) * 2^k is at most INT64_MAX on the key path; 2^63 - 1 is odd, so
    # with k >= 1 the largest product that fits is 2^63 - 2^k, and 2^63 falls back
    k = (size - 1).bit_length()
    lo = -(1 << 62)
    for span, fallback in (((1 << 63 - k) - 1, False), (1 << 63 - k, True)):
        rng = np.random.default_rng(size)
        a = rng.integers(lo, lo + span, size=size, dtype=np.int64)
        a[:2] = lo, lo + span - 1
        assert ((int(a.max()) - int(a.min()) + 1) << k > INT64_MAX) is fallback
        want = np.argsort(a, kind="stable")
        calls = _spy_argsort(monkeypatch)
        values, order = stable_sort(a.copy())
        assert calls == (["stable"] if fallback else [])
        assert np.array_equal(order, want) and np.array_equal(values, a[want])
        monkeypatch.undo()


@pytest.mark.parametrize("a", [np.array([-5, -1, -5, -3, -1, -9], dtype=np.int64),
                               np.full((3, 4), -7, dtype=np.int64),
                               np.full(9, INT64_MAX, dtype=np.int64),
                               np.array([3, -2, 3, -2], dtype=np.int32),
                               np.array([], dtype=np.int64), np.array([42], dtype=np.int64),
                               np.array([-(1 << 63)], dtype=np.int64)])
def test_stable_sort_edge_arrays(a):
    order = _assert_stable_sort(a)
    # the key path returns int32 positions
    assert order.dtype == np.int32 or not a.size


def test_stable_sort_keys_live_in_a_contiguous_int64_table():
    a = np.array([[4, -1, 4], [0, -1, 2]], dtype=np.int64)
    values, _ = stable_sort(a)
    assert np.shares_memory(values, a)
    assert values.tolist() == [-1, -1, 0, 2, 4, 4]
    # an int32 table, or a view that is not C-contiguous, is left as it was
    for b in (np.array([[4, -1, 4], [0, -1, 2]], dtype=np.int32),
              np.array([[4, 0], [-1, -1], [4, 2]], dtype=np.int64).T):
        kept = b.copy()
        values, _ = stable_sort(b)
        assert not np.shares_memory(values, b) and np.array_equal(b, kept)
        assert values.tolist() == [-1, -1, 0, 2, 4, 4]


def test_stable_sort_falls_back_on_object_arrays_past_int64(monkeypatch):
    big = 1 << 70
    a = np.array([big, -big, 3, big, -big, 3, big + 1], dtype=object).reshape(7, 1)
    calls = _spy_argsort(monkeypatch)
    values, order = stable_sort(a)
    assert calls == ["stable"]
    assert order.tolist() == [1, 4, 2, 5, 0, 3, 6]
    assert values.tolist() == [-big, -big, 3, 3, big, big, big + 1]
    assert run_starts(values).tolist() == [True, False, True, False, True, False, True]
