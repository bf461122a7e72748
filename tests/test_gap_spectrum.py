"""Gap spectra of circular sets: orbits, progression unions, greedy subsets."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaplab import gap_spectrum
from gaplab.exact_torus import (INT64_MAX, DuplicatePointError, TorusPoint, as_rational,
                                common_scale, int_dtype, point)
from gaplab.gap_spectrum import (APUnionSpec, ArcCountingReport, CircularSet,
                                 CollisionError, InsufficientDenominatorError,
                                 SubsetViolationError, ThreeGapReport,
                                 TooFewPointsError, Wrap, _orbit_gap_counts,
                                 _require_subset, _orbit_residues, _residue_sumset_size,
                                 ap_union_gap_check,
                                 ap_union_points,
                                 arc_counting_diagnostic, fractional_orbit,
                                 gap_bound_check, greedy_max_distinct,
                                 orbit_three_gap_check, sidon_subset, spectrum,
                                 sumset_size, three_gap_check)
from gaplab.sumset_engine import FiniteExactSet, sumset, torus_pairsums

from conftest import int_array


def test_orbit_of_five_eighths():
    rep = three_gap_check(Fraction(5, 8), 4)
    assert rep.passed
    assert rep.distinct_gaps == (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8))
    assert rep.reference_distances == rep.distinct_gaps
    assert (rep.first_label, rep.last_label) == (2, 3)


def test_orbit_labels_are_multipliers():
    b = fractional_orbit(Fraction(5, 8), 4)
    assert {(n * 5) % 8 for n in b.labels} == {p.value * 8 for p in b.points}


@pytest.mark.parametrize("alpha,n", [(Fraction(5, 8), 1), (Fraction(5, 8), 4),
                                     (Fraction(-5, 3), 2), (Fraction(3, 7), 6),
                                     (Fraction(13, 97), 40), (Fraction(7, 3000), 41),
                                     (Fraction(1234567, 9999991), 3000)])
def test_three_gap_verdict_read_off_a_built_orbit(alpha, n):
    b = fractional_orbit(alpha, n)
    assert orbit_three_gap_check(alpha, b) == three_gap_check(alpha, n)


def test_single_point_orbit_has_closing_arc_only():
    rep = three_gap_check(Fraction(2, 5), 1)
    assert rep.passed
    assert rep.distinct_gaps == (Fraction(1),)


def test_colliding_multiples_rejected():
    with pytest.raises(InsufficientDenominatorError):
        fractional_orbit(Fraction(5, 8), 8)


def test_spectrum_needs_two_points():
    with pytest.raises(TooFewPointsError):
        spectrum(CircularSet.from_values([Fraction(1, 3)]))


@given(st.integers(2, 400), st.data())
@settings(deadline=None, max_examples=80)
def test_three_gap_bound_randomized(q, data):
    p = data.draw(st.integers(1, q - 1))
    # p/q may reduce; distinctness needs n below the reduced denominator
    den = Fraction(p, q).denominator
    assume(den > 1)
    n = data.draw(st.integers(1, den - 1))
    rep = three_gap_check(Fraction(p, q), n)
    assert rep.passed
    assert len(rep.distinct_gaps) <= 3
    assert set(rep.distinct_gaps) <= set(rep.reference_distances)


@given(st.lists(st.fractions(min_value=0, max_value=Fraction(99, 100),
                             max_denominator=300),
                min_size=2, max_size=30, unique=True))
@settings(deadline=None, max_examples=60)
def test_wrapped_gaps_sum_to_one(vals):
    a = CircularSet.from_values(vals)
    spec = spectrum(a)
    assert sum(spec.gaps, Fraction(0)) == 1
    assert all(g > 0 for g in spec.gaps)
    assert sum(spec.multiplicity.values()) == len(spec.gaps)


def test_unwrapped_spectrum_drops_closing_arc():
    a = CircularSet.from_values([Fraction(0), Fraction(1, 8), Fraction(1, 2)],
                                wrap=Wrap.EXCLUDE)
    spec = spectrum(a)
    assert spec.gaps == (Fraction(1, 8), Fraction(3, 8))


def test_ap_union_within_three_k():
    spec = APUnionSpec(Fraction(3, 97), ((Fraction(0), 5), (Fraction(1, 3), 7)))
    rep = ap_union_gap_check(spec)
    assert rep.passed
    assert rep.k == 2 and rep.total_points == 12
    assert len(rep.distinct_gaps) <= 6


def test_ap_union_collision_detected():
    spec = APUnionSpec(Fraction(1, 10), ((Fraction(0), 3), (Fraction(1, 10), 3)))
    with pytest.raises(CollisionError) as err:
        ap_union_points(spec)
    assert str(err.value) == "point 1/5 generated twice: arm (1, 2) and arm (2, 1)"


@given(st.integers(1, 4), st.data())
@settings(deadline=None, max_examples=40)
def test_ap_union_bound_randomized(k, data):
    q = data.draw(st.integers(300, 2000))
    p = data.draw(st.integers(1, q - 1))
    arms = []
    for i in range(k):
        beta = Fraction(data.draw(st.integers(0, q - 1)), q) + Fraction(i, 7 * q)
        arms.append((beta, data.draw(st.integers(1, 15))))
    try:
        rep = ap_union_gap_check(APUnionSpec(Fraction(p, q), tuple(arms)))
    except CollisionError:
        return
    assert rep.passed
    assert len(rep.distinct_gaps) <= 3 * k


def greedy_target(n):
    root = isqrt(2 * n)
    return root - 1 if root * root == 2 * n else root


def test_greedy_consecutive_differences_distinct():
    for q, n in ((233, 100), (1009, 500), (4999, 144)):
        b = fractional_orbit(Fraction(89 % q, q), n)
        a = greedy_max_distinct(b)
        diffs = [a.values()[i + 1] - a.values()[i] for i in range(len(a) - 1)]
        assert len(set(diffs)) == len(diffs)
        assert len(diffs) >= greedy_target(n) - 1
        assert a.issubset(b)


def test_greedy_needs_two_points():
    with pytest.raises(TooFewPointsError):
        greedy_max_distinct(CircularSet.from_values([Fraction(0)]))


def test_sidon_subset_has_distinct_differences():
    b = fractional_orbit(Fraction(89, 233), 60)
    s = sidon_subset(b)
    vals = s.values()
    diffs = [(vals[j] - vals[i]) % 1 for i in range(len(vals))
             for j in range(len(vals)) if i != j]
    assert len(set(diffs)) == len(diffs)


def test_gap_bound_for_random_subsets():
    rng = random.Random(2)
    for _ in range(15):
        q = rng.randrange(80, 3000)
        n = rng.randrange(4, min(q - 1, 120))
        p = rng.randrange(1, q)
        while gcd(p, q) != 1:
            p += 1
        b = fractional_orbit(Fraction(p % q, q), n)
        k = rng.randrange(2, n + 1)
        a = CircularSet.from_points(rng.sample(b.points, k))
        rep = gap_bound_check(a, b)
        assert rep.passed
        assert rep.lhs == (rep.distinct_gaps - 1) ** 2 * rep.b_size
        assert rep.rhs == 2 * rep.sumset_size ** 2


def test_gap_bound_rejects_non_subset():
    b = fractional_orbit(Fraction(5, 8), 4)
    a = CircularSet.from_values([Fraction(1, 3)])
    with pytest.raises(SubsetViolationError):
        gap_bound_check(a, b)


def test_arc_counting_pair_count_in_bounds():
    rng = random.Random(4)
    for _ in range(15):
        q = rng.randrange(60, 2000)
        nb = rng.randrange(4, 40)
        p = rng.randrange(1, q)
        while gcd(p, q) != 1:
            p += 1
        b = fractional_orbit(Fraction(p % q, q), nb)
        na = rng.randrange(3, nb + 1)
        a = CircularSet.from_points(rng.sample(b.points, na))
        k = rng.randrange(1, 8)
        rep = arc_counting_diagnostic(a, b, k)
        assert rep.passed
        assert rep.lower <= rep.pair_count <= rep.upper
        assert rep.upper <= rep.sum_cap


def test_arc_counting_needs_three_points():
    b = fractional_orbit(Fraction(5, 8), 4)
    a = CircularSet.from_points(b.points[:2])
    with pytest.raises(TooFewPointsError):
        arc_counting_diagnostic(a, b, 2)


# ---- differential checks of the residue kernels against plain Fractions

def reference_orbit(alpha, n):
    """Sorted Fraction orbit of alpha with its multipliers."""
    alpha = Fraction(alpha) % 1
    p, q = alpha.numerator, alpha.denominator
    pairs = sorted(((m * p) % q, m) for m in range(1, n + 1))
    return tuple(Fraction(r, q) for r, _ in pairs), tuple(m for _, m in pairs)


def reference_gaps(vals, wrap=True):
    gaps = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    if wrap:
        gaps.append(vals[0] + 1 - vals[-1])
    return gaps


def reference_greedy(vals):
    chosen, used = [0, 1], {vals[1] - vals[0]}
    for idx in range(2, len(vals)):
        d = vals[idx] - vals[chosen[-1]]
        if d not in used:
            used.add(d)
            chosen.append(idx)
    return chosen


def reference_ap_union(spec):
    """The union's sorted values, or the collision message."""
    seen = {}
    for i, (beta, length) in enumerate(spec.arms, start=1):
        val = beta.value
        for n in range(1, length + 1):
            val = (val + spec.alpha) % 1
            if val in seen:
                return f"point {val} generated twice: arm {seen[val]} and arm {(i, n)}"
            seen[val] = (i, n)
    return sorted(seen)


denominators = st.one_of(st.integers(2, 3000), st.integers(1 << 62, 1 << 70))


@given(denominators, st.data())
@settings(deadline=None, max_examples=80)
def test_orbit_kernels_match_fraction_reference(q, data):
    p = data.draw(st.integers(1, q - 1))
    den = Fraction(p, q).denominator
    assume(den > 1)
    n = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, min(den - 1, 300))))
    assume(n < den)
    vals, labels = reference_orbit(Fraction(p, q), n)
    orbit = fractional_orbit(Fraction(p, q), n)
    assert orbit.values() == vals and orbit.labels == labels
    gaps = reference_gaps(vals)
    refs = tuple(sorted({vals[0], 1 - vals[-1], vals[0] + 1 - vals[-1]}))
    rep = three_gap_check(Fraction(p, q), n)
    distinct = (Fraction(1),) if n == 1 else tuple(sorted(set(gaps)))
    assert rep.alpha == Fraction(p, q)
    assert (rep.n_points, rep.distinct_gaps, rep.reference_distances) == (n, distinct, refs)
    assert (rep.first_label, rep.last_label) == (labels[0], labels[-1])
    assert rep.passed == (len(distinct) <= 3 and set(distinct) <= set(refs))
    if n >= 2:
        spec = spectrum(orbit)
        assert spec.gaps == tuple(gaps)
        assert spec.distinct == frozenset(gaps)
        assert spec.multiplicity == dict(Counter(gaps))
        assert list(spec.multiplicity) == list(Counter(gaps))
        a = greedy_max_distinct(orbit)
        chosen = reference_greedy(vals)
        assert a.values() == tuple(vals[i] for i in chosen)
        assert a.labels == tuple(labels[i] for i in chosen)


@given(denominators, st.integers(1, 4), st.data())
@settings(deadline=None, max_examples=60)
def test_ap_union_matches_fraction_reference(q, k, data):
    alpha = Fraction(data.draw(st.integers(0, q - 1)), q)
    arms = tuple((Fraction(data.draw(st.integers(0, 40)),
                           data.draw(st.sampled_from([q, 2 * q, 7, 13]))),
                  data.draw(st.integers(1, 12))) for _ in range(k))
    spec = APUnionSpec(alpha, arms)
    expected = reference_ap_union(spec)
    if isinstance(expected, str):
        with pytest.raises(CollisionError) as err:
            ap_union_points(spec)
        assert str(err.value) == expected
        with pytest.raises(CollisionError):
            ap_union_gap_check(spec)
        return
    assert ap_union_points(spec).values() == tuple(expected)
    rep = ap_union_gap_check(spec)
    distinct = ((Fraction(1),) if len(expected) == 1
                else tuple(sorted(set(reference_gaps(expected)))))
    assert (rep.k, rep.total_points, rep.distinct_gaps) == (k, len(expected), distinct)
    assert rep.passed == (len(distinct) <= 3 * k)


@given(denominators, st.sampled_from(list(Wrap)), st.data())
@settings(deadline=None, max_examples=60)
def test_residue_constructor_matches_public_constructor(q, wrap, data):
    ints = sorted(data.draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=30)))
    labels = data.draw(st.one_of(st.none(), st.permutations(range(len(ints))).map(tuple)))
    fast = CircularSet._from_residues(int_array(ints, q), q, labels, wrap)
    public = CircularSet.from_values([Fraction(r, q) for r in ints], labels, wrap)
    assert fast == public and hash(fast) == hash(public)
    assert fast.points == public.points and fast.labels == public.labels
    assert fast.to_exact_set().elements == public.to_exact_set().elements
    assert fast.to_exact_set().elements == FiniteExactSet.torus(public.points).elements


def test_public_constructors_keep_their_checks():
    third = Fraction(1, 3)
    cases = [
        (lambda: CircularSet.from_values([Fraction(4, 3), third]), DuplicatePointError,
         "points not strictly increasing at 1/3"),
        (lambda: CircularSet.from_points([point(third), point(Fraction(1, 2)), point(third)]),
         DuplicatePointError, "points not strictly increasing at 1/3"),
        (lambda: CircularSet((point(Fraction(1, 2)), point(third))), DuplicatePointError,
         "points not strictly increasing at 1/2"),
        # the label count is checked before duplicates, distinctness after them
        (lambda: CircularSet.from_values([third, third], labels=[1]), ValueError,
         "labels must match points one to one"),
        (lambda: CircularSet.from_values([third, third], labels=[1, 1]), DuplicatePointError,
         "points not strictly increasing at 1/3"),
        (lambda: CircularSet.from_values([third, Fraction(1, 2)], labels=[1, 1]), ValueError,
         "labels must be distinct"),
        (lambda: CircularSet.from_values([third], wrap="sideways"), ValueError,
         "'sideways' is not a valid Wrap"),
        (lambda: CircularSet.from_values([0.5]), TypeError,
         "0.5 is not an exact rational; pass str, int or Fraction"),
    ]
    for build, error, text in cases:
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == text
    a = CircularSet.from_values(["7/6", 0, "0.25"], labels=[5, 6, 7], wrap="exclude_wrap")
    assert a.values() == (0, Fraction(1, 6), Fraction(1, 4)) and a.labels == (6, 5, 7)
    assert a.wrap is Wrap.EXCLUDE and (a._residues[0].tolist(), a._residues[1]) == ([0, 2, 3], 12)
    b = CircularSet.from_points(reversed(a.points))
    assert b.points == a.points and b.labels is None and b.wrap is Wrap.INCLUDE


@given(st.lists(st.fractions(min_value=0, max_value=Fraction(99, 100), max_denominator=400),
                max_size=25, unique=True),
       st.lists(st.fractions(min_value=0, max_value=Fraction(99, 100), max_denominator=(1 << 64)),
                min_size=1, max_size=25, unique=True))
@example([], [Fraction(1, 3)])
@settings(deadline=None, max_examples=60)
def test_count_only_sumset_size_matches_sumset(xs, ys):
    a, b = CircularSet.from_values(xs), CircularSet.from_values(ys)
    for u, v in ((a, b), (b, a), (a, a)):
        assert sumset_size(u, v) == len(sumset(u.to_exact_set(), v.to_exact_set()))


# ---------------------------------------------------------------------------
# A set built from residues lifts its points on first read; membership
# answers from the residues.

def test_sets_from_residues_lift_their_points_on_first_read(lifts):
    orbit = fractional_orbit(Fraction(1234567, 9999991), 3000)
    a = greedy_max_distinct(orbit)
    b = CircularSet.from_values([Fraction(n, 101) for n in range(0, 101, 3)])
    spectrum(orbit)
    gap_bound_check(a, orbit)
    assert sumset_size(b, b) >= len(b.values()) == len(b) == 34
    assert len(orbit) == 3000 and lifts == []
    assert "points" not in vars(orbit)
    points = orbit.points
    assert len(lifts) == 3000 and orbit.points is points
    assert len(a.points) == len(a) and len(lifts) == 3000 + len(a)
    with pytest.raises(DuplicatePointError, match="at 1/2$"):
        CircularSet.from_values(["1/4", "1/2", "1/2"])
    # the error text lifts only the offending point
    assert len(lifts) == 3000 + len(a) + 1


def test_lazy_circular_set_matches_an_eager_one():
    import copy
    import dataclasses
    import pickle

    lazy = lambda: fractional_orbit(Fraction(13, 97), 40)  # noqa: E731
    read = lazy()
    eager = CircularSet(tuple(read.points), read.labels, read.wrap)
    assert "points" in vars(eager) and "points" not in vars(lazy())
    assert lazy() == eager and eager == lazy()
    assert repr(lazy()) == repr(eager)
    assert (dataclasses.replace(lazy(), wrap=Wrap.EXCLUDE)
            == dataclasses.replace(eager, wrap=Wrap.EXCLUDE))
    restored = pickle.loads(pickle.dumps(lazy()))
    assert "points" not in vars(restored)
    assert restored == eager and repr(restored) == repr(eager)
    assert pickle.loads(pickle.dumps(read)) == eager
    assert copy.copy(lazy()) == eager and copy.deepcopy(lazy()) == eager
    assert not hasattr(lazy(), "coords")
    with pytest.raises(dataclasses.FrozenInstanceError):
        lazy().points = ()


_DENOMINATORS = (1, 2, 12, 60, 97, 360)


class _SubPoint(TorusPoint):
    """Equal in value to a member, yet never equal to a TorusPoint."""


@st.composite
def _membership_cases(draw):
    q = draw(st.sampled_from(_DENOMINATORS[1:]))
    ints = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=12, unique=True))
    member = st.sampled_from(ints).map(lambda n: point(Fraction(n, q)))
    foreign = st.builds(lambda n, d: point(Fraction(n, d)), st.integers(0, 400),
                        st.sampled_from(_DENOMINATORS + (7, 720)))
    other = st.one_of(
        st.sampled_from(ints).map(lambda n: Fraction(n, q)),
        st.sampled_from(ints).map(lambda n: (point(Fraction(n, q)),)),
        st.sampled_from(ints).map(lambda n: _SubPoint(Fraction(n, q))),
        st.sampled_from(Wrap), st.integers(0, 3), st.none(), st.text(max_size=3))
    probes = draw(st.lists(st.one_of(member, foreign, other), max_size=12))
    return [Fraction(n, q) for n in ints], probes


@given(_membership_cases())
@settings(deadline=None, max_examples=150)
def test_membership_answers_as_the_set_of_points(case):
    values, probes = case
    s = CircularSet.from_values(values)
    oracle = s.point_set()
    fresh = CircularSet.from_values(values)
    for p in probes + list(s.points):
        assert (p in fresh) is (p in oracle) is (p in s)
    assert "points" not in vars(fresh)


# ---------------------------------------------------------------------------
# One three-gap builder.  The parent's two entry points are kept verbatim as
# the reference: three_gap_check on the orbit's residues, and the orbit
# variant that turned its spectrum's Fraction gaps back into ints.

def parent_three_gap_check(alpha, n_points):
    alpha, ints, labels, q = _orbit_residues(alpha, n_points)
    ints, labels = ints.tolist(), labels.tolist()
    gaps = {b - a for a, b in zip(ints, ints[1:])} | {ints[0] + q - ints[-1]}
    return _parent_three_gap_report(alpha, ints, labels, q, gaps)


def parent_orbit_three_gap_check(alpha, orbit, spect):
    ints, q = orbit._residues[0].tolist(), orbit._residues[1]
    distinct = spect.distinct if spect is not None else {Fraction(1)}
    return _parent_three_gap_report(as_rational(alpha) % 1, ints, orbit.labels, q,
                                    {int(g * q) for g in distinct})


def _parent_three_gap_report(alpha, ints, labels, q, distinct):
    b1, bn = ints[0], ints[-1]
    refs = sorted({b1, q - bn, b1 + q - bn})
    passed = len(distinct) <= 3 and distinct <= set(refs)
    return ThreeGapReport(alpha, len(ints), tuple(Fraction(g, q) for g in sorted(distinct)),
                          tuple(Fraction(r, q) for r in refs), labels[0], labels[-1], passed)


def convergent_denominators(p, q):
    """Denominators q_k of the continued-fraction convergents of p/q."""
    dens, (prev, cur) = [], (0, 1)
    while q:
        a, (p, q) = p // q, (q, p % q)
        prev, cur = cur, a * cur + prev
        dens.append(cur)
    return dens


@given(st.integers(2, 1500), st.integers(-3000, 3000), st.data())
@settings(max_examples=40, deadline=None)
def test_three_gap_builder_matches_the_parent_at_convergents(q, p, data):
    assume(gcd(p, q) == 1)
    alpha = Fraction(p, q)
    ns = {1} | {k + e for k in convergent_denominators(p % q, q) for e in (-1, 0, 1)}
    for n in sorted(m for m in ns if 1 <= m < q):
        want = parent_three_gap_check(alpha, n)
        assert three_gap_check(alpha, n) == want
        orbit = fractional_orbit(alpha, n)
        assert orbit_three_gap_check(alpha, orbit) == want
        spect = spectrum(orbit) if n > 1 else None
        assert parent_orbit_three_gap_check(alpha, orbit, spect) == want
        # the orbit command's single count: the same verdict and spectrum's multiplicities
        assert _orbit_gap_counts(alpha, orbit) == (want, spect.multiplicity if spect else {})
    n = data.draw(st.integers(q, 2 * q))
    for check in (three_gap_check, parent_three_gap_check):
        with pytest.raises(InsufficientDenominatorError) as err:
            check(alpha, n)
        assert str(err.value) == (f"alpha = {alpha % 1} has denominator {q} <= N = {n}; "
                                  "multiples would collide")


def test_three_gap_check_builds_no_traced_orbit(monkeypatch):
    def no_orbit(*args):
        raise AssertionError("fractional_orbit called")

    monkeypatch.setattr(gap_spectrum, "fractional_orbit", no_orbit)
    rep = three_gap_check(Fraction(5, 8), 4)
    assert rep == parent_three_gap_check(Fraction(5, 8), 4) and rep.passed


# ---------------------------------------------------------------------------
# Gap diagnostics on int gaps.  The parent's versions, which read the gaps
# through spectrum's Fractions, are kept verbatim as the reference.

def parent_distinct_gap_count(a):
    # A single point contributes just the closing arc, one gap value.
    return 1 if len(a) == 1 else spectrum(a).size


def parent_arc_counting_diagnostic(a, b, k):
    if k < 1:
        raise ValueError("k must be positive")
    if len(a) < 3:
        raise TooFewPointsError("the pair-counting bound needs at least three points in A")
    _require_subset(a, b)
    spec = spectrum(a)
    witness = {}
    for i, g in enumerate(spec.gaps):
        if g not in witness:
            witness[g] = i
    j_a = tuple(sorted(witness.values()))

    (xs, ys), q = common_scale(a._residues, b._residues)
    sums = torus_pairsums(xs, ys, q).array().tolist()
    xs, ys = xs.tolist(), ys.tolist()
    pos = {n: t for t, n in enumerate(sums)}
    total = len(sums)
    floor_size, oversized = divmod(total, k)

    def arc_of(t):
        head = oversized * (floor_size + 1)
        if t < head:
            return t // (floor_size + 1)
        return oversized + (t - head) // floor_size if floor_size else t

    m = len(xs)
    count = 0
    for i in j_a:
        u, v = xs[i], xs[(i + 1) % m]
        for y in ys:
            if arc_of(pos[(u + y) % q]) == arc_of(pos[(v + y) % q]):
                count += 1

    sizes = [floor_size + 1] * oversized + [floor_size] * (k - oversized)
    upper = sum(sz * (sz - 1) // 2 for sz in sizes)
    lower = len(b) * (spec.size - k)
    bounds = []
    t = 0
    for sz in sizes:
        bounds.append((TorusPoint._from_residue(sums[t], q),
                       TorusPoint._from_residue(sums[t + sz - 1], q)) if sz else None)
        t += sz
    sum_cap = Fraction(total * total, 2 * k)
    derived = k + Fraction(total * total, 2 * k * len(b))
    return ArcCountingReport(k, floor_size, oversized, tuple(bounds), j_a, count,
                             lower, upper, sum_cap, derived, spec.size,
                             lower <= count <= upper)


def _same_outcome(got, want, *args):
    """got(*args) returns what want(*args) returns, or raises the same error."""
    try:
        expected = want(*args)
    except (ValueError, TooFewPointsError) as exc:
        with pytest.raises(type(exc)) as err:
            got(*args)
        assert str(err.value) == str(exc)
        return
    assert got(*args) == expected


@given(denominators, st.sampled_from(list(Wrap)), st.data())
@settings(deadline=None, max_examples=120)
def test_gap_diagnostics_match_the_parent(q, wrap, data):
    ints = data.draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=24))
    b = CircularSet.from_values([Fraction(r, q) for r in ints],
                                wrap=data.draw(st.sampled_from(list(Wrap))))
    # A lies in B, or misses one point of it; its scale may be smaller than B's
    picked = data.draw(st.lists(st.sampled_from(sorted(ints)), unique=True, max_size=len(ints)))
    if data.draw(st.booleans()):
        picked.append(data.draw(st.integers(0, q - 1)))
    a = CircularSet.from_values({Fraction(r, q) for r in picked}, wrap=wrap)
    _same_outcome(gap_spectrum._distinct_gap_count, parent_distinct_gap_count, a)
    total = sumset_size(a, b) if len(a) else 0
    for k in sorted({1, 2, total, total + 1, data.draw(st.integers(1, 2 * total + 3))}):
        if k >= 1:
            _same_outcome(arc_counting_diagnostic, parent_arc_counting_diagnostic, a, b, k)


@pytest.mark.parametrize("q, wrap, k", [
    ((1 << 63) + 25, Wrap.INCLUDE, 3),  # sums past int64: object rows
    (97, Wrap.EXCLUDE, 4),              # A embedded from the reals: no closing arc
    (60, Wrap.INCLUDE, 500),            # k past |A + B|: empty arcs, bounds None
])
def test_arc_count_matches_the_parent_at_its_edges(q, wrap, k):
    rng = random.Random(q)
    ints = sorted(rng.sample(range(q), 12) if q < 1000 else {rng.randrange(q) for _ in range(12)})
    b = CircularSet.from_values([Fraction(r, q) for r in ints])
    a = CircularSet.from_values([Fraction(r, q) for r in ints[::2]], wrap=wrap)
    rep = arc_counting_diagnostic(a, b, k)
    assert rep == parent_arc_counting_diagnostic(a, b, k)
    assert (None in rep.arc_boundaries) is (k > sumset_size(a, b))


# ---------------------------------------------------------------------------
# Orbits in multiplier coordinates: the orbit of p/q is the image of its
# labels under k -> k*p mod q, built by one argsort, and sums within one
# orbit are counted on the labels.  The residue count is the oracle.

def reference_orbit_residues(alpha, n):
    """The orbit's ascending residues n*p mod q and, through p's inverse, their multipliers."""
    alpha = Fraction(alpha) % 1
    p, q = alpha.numerator, alpha.denominator
    ints = sorted(k * p % q for k in range(1, n + 1))
    p_inv = pow(p, -1, q)
    return alpha, ints, tuple(r * p_inv % q for r in ints), q


def _unit_near(q, p):
    """The first unit mod q from p on."""
    while gcd(p, q) != 1:
        p += 1
    return p


_Q_EDGE = INT64_MAX // 1000  # N * q crosses INT64_MAX between N = 1000 and 1001


@pytest.mark.parametrize("q, n, dtype", [
    (_Q_EDGE, 1000, np.int64),
    (_Q_EDGE, 1001, object),
    ((1 << 64) + 13, 500, object),
])
def test_orbit_build_matches_the_python_reference(q, n, dtype):
    assert int_dtype(n * q) is dtype
    for p in (_unit_near(q, 2), _unit_near(q, q // 3), q - 1):
        alpha, ints, labels, scale = _orbit_residues(Fraction(p, q), n)
        assert ints.dtype == dtype and labels.dtype == np.int64
        got = (alpha, ints.tolist(), tuple(labels.tolist()), scale)
        assert got == reference_orbit_residues(Fraction(p, q), n)
        assert all(type(v) is int for v in got[1] + list(got[2]))


@pytest.mark.parametrize("alpha, n", [(Fraction(5, 13), 6), (Fraction(7, 9699690), 300),
                                      (Fraction(3, (1 << 64) + 13), 40)])
def test_an_orbit_held_as_arrays_reads_as_its_lifted_self(alpha, n):
    import pickle

    def seen(s):
        return s == eager, repr(s), pickle.loads(pickle.dumps(s)) == eager, s.labels

    eager = CircularSet(tuple(fractional_orbit(alpha, n).points),
                        reference_orbit_residues(alpha, n)[2])
    for read in ("points", "labels"):
        orbit = fractional_orbit(alpha, n)
        assert "points" not in vars(orbit) and "labels" not in vars(orbit)
        kept = pickle.loads(pickle.dumps(orbit))  # unpickles unread
        assert "labels" not in vars(kept)
        getattr(orbit, read)
        assert "points" in vars(orbit) and "labels" in vars(orbit)
        assert seen(orbit) == seen(kept) == (True, repr(eager), True, eager.labels)
        assert type(orbit.labels) is tuple and all(type(k) is int for k in orbit.labels)
    subset = greedy_max_distinct(fractional_orbit(alpha, n))
    assert subset.labels == tuple(eager.labels[i] for i, p in enumerate(eager.points)
                                  if p in subset)


def convergent_denominators(p, q):
    """The denominators q_k of the continued-fraction convergents of p/q, ending in q."""
    out, before, last = [], 1, 0
    while q:
        a, (p, q) = p // q, (q, p % q)
        before, last = last, a * last + before
        out.append(last)
    return out


def test_convergent_denominators_of_a_fibonacci_ratio():
    # 89/144 = [0; 1, 1, 1, 1, 1, 1, 1, 1, 1, 2]
    assert convergent_denominators(89, 144) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 144]


def _assert_label_counts_match_residues(alpha, n):
    b = fractional_orbit(alpha, n)
    subsets = [b, sidon_subset(b)] + ([greedy_max_distinct(b)] if n >= 2 else [])
    for x in subsets:
        assert x._step == alpha.numerator
        for y in subsets:
            assert sumset_size(x, y) == _residue_sumset_size(x, y)


@given(st.one_of(st.integers(3, 3000), st.integers(1 << 62, 1 << 70)), st.data())
@settings(deadline=None, max_examples=40)
def test_orbit_sums_on_labels_equal_sums_on_residues(q, data):
    p = data.draw(st.integers(1, q - 1).filter(lambda p: gcd(p, q) == 1))
    # N at q_k - 1, q_k and q_k + 1, and one N with 2N >= q, where the sums fold
    ns = {k + d for k in convergent_denominators(p, q) for d in (-1, 0, 1)}
    ns.add(data.draw(st.integers((q + 1) // 2, q - 1)))
    for n in sorted(n for n in ns if 1 <= n < min(q, 300)):
        _assert_label_counts_match_residues(Fraction(p, q), n)


@pytest.mark.parametrize("alpha, n", [
    (Fraction(89, 144), 100),  # 2N >= q: B + B folds onto all of Z/144
    (Fraction(_unit_near(_Q_EDGE, _Q_EDGE // 3), _Q_EDGE), 1000),  # N * q below INT64_MAX
    (Fraction(_unit_near(_Q_EDGE, _Q_EDGE // 3), _Q_EDGE), 1001),  # and above
    (Fraction(12345678901234567891, (1 << 64) + 13), 400),
])
def test_orbit_sums_on_labels_at_the_edges(alpha, n):
    _assert_label_counts_match_residues(alpha, n)


def _spy_counts(monkeypatch):
    """The (xs, ys, q) that sumset_size hands to torus_pairsums, recorded."""
    calls = []

    def spy(xs, ys, q):
        # the holders' arrays reach the kernel as they are: no list between them
        assert type(xs) is type(ys) is np.ndarray
        calls.append((xs.tolist(), ys.tolist(), q))
        return torus_pairsums(xs, ys, q)

    monkeypatch.setattr(gap_spectrum, "torus_pairsums", spy)
    return calls


def test_only_sets_of_one_orbit_count_on_labels(monkeypatch):
    calls = _spy_counts(monkeypatch)
    b = fractional_orbit(Fraction(5, 13), 6)
    a = greedy_max_distinct(b)
    assert sumset_size(a, b) == _residue_sumset_size(a, b)
    assert calls[0] == (sorted(a.labels), list(range(1, 7)), 13)
    # the same q with another p: labels of different units are not comparable
    calls.clear()
    one, three = fractional_orbit(Fraction(1, 7), 3), fractional_orbit(Fraction(3, 7), 3)
    assert sorted(one.labels) == sorted(three.labels) == [1, 2, 3]
    assert sumset_size(one, three) == 7  # the labels would give 5
    assert calls == [([1, 2, 3], [2, 3, 6], 7)]


def test_sets_from_values_or_points_never_count_on_labels(monkeypatch):
    from gaplab.cli import _points_or_orbit, build_parser

    calls = _spy_counts(monkeypatch)
    # labels that are not multipliers: residues {0, 1, 3} mod 7
    b = CircularSet.from_values([Fraction(0), Fraction(1, 7), Fraction(3, 7)], labels=(1, 2, 3))
    assert b._step is None and sumset_size(b, b) == 6  # the labels would give 5
    # a set from --points
    args = build_parser().parse_args(["cover", "--points", "0;1/7;3/7"])
    points = _points_or_orbit(args)
    assert points._step is None and sumset_size(points, points) == 6
    assert calls == [([0, 1, 3], [0, 1, 3], 7)] * 2
    # labels that are multipliers, but given by hand
    calls.clear()
    orbit = fractional_orbit(Fraction(5, 13), 6)
    same = CircularSet.from_values(orbit.values(), labels=orbit.labels)
    assert same == orbit and same._step is None
    assert sumset_size(same, same) == sumset_size(orbit, orbit)
    residues = orbit._residues[0].tolist()
    assert calls == [(residues, residues, 13), ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], 13)]
    # a rebuilt orbit holds no step either
    import dataclasses
    assert dataclasses.replace(orbit)._step is None and CircularSet(
        orbit.points, orbit.labels)._step is None


def test_the_step_is_not_part_of_the_set():
    import copy
    import pickle

    orbit = fractional_orbit(Fraction(5, 13), 6)
    eager = CircularSet(tuple(orbit.points), orbit.labels)
    assert "_step" not in repr(orbit) and repr(orbit) == repr(eager) and orbit == eager
    for kept in (pickle.loads(pickle.dumps(fractional_orbit(Fraction(5, 13), 6))),
                 copy.copy(orbit)):
        assert kept == eager and kept._step == 5
