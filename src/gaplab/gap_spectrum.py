"""Gap spectra of finite circular sets, and what sumset growth says about them.

A CircularSet is a finite subset of R/Z held in anticlockwise order.  Its
spectrum is the list of consecutive arc lengths; the wrap policy decides
whether the closing arc (last point back to the first) is included.  On top
of the spectrum sit the classical verifications: the three-gap property of
orbits {n*alpha}, its union-of-progressions generalization, the sumset bound
on the number of distinct gaps of any subset, the arc-partition pair count
that proves it, a greedy subset maximizing distinct gaps, and greedy Sidon
extraction.  Everything is exact: a set's points are cleared once to
integer residues mod a common denominator q (an orbit of p/q is just the
sorted residues n*p mod q), every gap, subset test, sum and verdict (the
three-gap one is built in one place, from the orbit's distinct int gaps) is
decided on those integers; Fractions and torus points are built only for
what is shown.  Sums within one orbit are counted on its labels: the orbit
is the image of its multipliers under the automorphism k -> k*p of Z/q, so
|A + B| = |(L_A + L_B) mod q|, counted over 2N bits instead of 2q.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .exact_torus import (Cleared, DuplicatePointError, LazyFields, RationalLike, TorusPoint,
                          _unread, as_rational, common_scale, int_dtype, lowest_terms,
                          reduce_mod1, residue_over, residues)
from .sumset_engine import FiniteExactSet, Domain, _Sorted, _lift, torus_pairsums


class TooFewPointsError(ValueError):
    """The operation needs more points than the set provides."""


class InsufficientDenominatorError(ValueError):
    """alpha = p/q with q <= N cannot produce N distinct multiples mod 1."""


class CollisionError(ValueError):
    """Two generated points coincide; the offending parameters are reported."""


class SubsetViolationError(ValueError):
    """A is required to be a subset of B but is not."""


class Wrap(str, Enum):
    INCLUDE = "include_wrap"
    EXCLUDE = "exclude_wrap"


@dataclass(frozen=True)
class CircularSet(LazyFields):
    """Finite subset of R/Z in strictly increasing representative order.

    labels, when present, tag each point with a distinct integer (orbits use
    the multiplier n of the point {n*alpha}).  The wrap policy travels with
    the set: torus-native sets include the closing arc, sets embedded from
    the reals exclude it.

    A set built from values (or from an exact_torus.Cleared, read with no
    Fraction built), or by the library from residues, is held unread
    (exact_torus.LazyFields): it keeps only its ascending residues over one
    denominator, on which length, membership and every gap and subset test
    run, ``points``, the tuple of TorusPoints, is lifted on first read, and
    an unread set is written from its residues.

    An orbit of p/q, and a subset the library takes from one, also holds
    its unit ``_step`` = p: its labels are then the multipliers k of its
    residues k*p mod q, and sumset_size counts on them.  Every other set
    has none.
    """

    points: tuple
    labels: Optional[tuple] = None
    wrap: Wrap = Wrap.INCLUDE

    _LAZY = ("points",)
    _step = None  # not a field: equality, repr and reports never see it

    def __post_init__(self) -> None:
        ints, q = self._residues
        for a, b in zip(ints, ints[1:]):
            if not a < b:
                raise DuplicatePointError(
                    f"points not strictly increasing at {TorusPoint._from_residue(a, q)}")
        if self.labels is not None:
            if len(self.labels) != len(ints):
                raise ValueError("labels must match points one to one")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be distinct")
        object.__setattr__(self, "wrap", Wrap(self.wrap))

    @classmethod
    def from_values(cls, values: Iterable[RationalLike] | Cleared,
                    labels: Optional[Sequence[int]] = None,
                    wrap: Wrap = Wrap.INCLUDE) -> "CircularSet":
        if type(values) is Cleared:
            ints, q = values.ints, values.scale
        else:
            ints, q = residues([as_rational(v) for v in values])
        ints, q = lowest_terms([n % q for n in ints], q)
        if labels is not None and len(labels) != len(ints):
            raise ValueError("labels must match points one to one")
        order = sorted(range(len(ints)), key=ints.__getitem__)
        labels = None if labels is None else tuple(labels[i] for i in order)
        inst = cls._from_residues([ints[i] for i in order], q, labels, wrap)
        inst.__post_init__()  # the dataclass checks, on the integer residues
        return inst

    @classmethod
    def from_points(cls, points: Iterable[TorusPoint], wrap: Wrap = Wrap.INCLUDE) -> "CircularSet":
        return cls.from_values([p.value for p in points], wrap=wrap)

    @classmethod
    def _from_residues(cls, ints: list, q: int, labels: Optional[tuple] = None,
                       wrap: Wrap = Wrap.INCLUDE, step: Optional[int] = None) -> "CircularSet":
        # Internal: ints must be a list of distinct residues in [0, q),
        # ascending, so the points are strictly increasing without a
        # Fraction comparison; a step p says that labels[i] * p % q == ints[i].
        held = {} if step is None else {"_step": step}
        return _unread(cls, labels=labels, wrap=wrap, _residues=(ints, q), **held)

    def _lift(self) -> dict:
        return {"points": _lift(*self._residues, Domain.TORUS)}

    def _field_rows(self) -> dict:
        return {"points": self._residues}

    @cached_property
    def _residues(self) -> Tuple[list, int]:
        """(ints, q): ascending residues mod q with points[i] == ints[i] / q."""
        return residues(self.points)

    def values(self) -> tuple:
        return _lift(*self._residues, Domain.RATIONALS)

    def point_set(self) -> frozenset:
        return frozenset(self.points)

    def to_exact_set(self) -> FiniteExactSet:
        ints, q = self._residues
        return FiniteExactSet._from_ints(_Sorted.of(ints), q, Domain.TORUS)

    def __len__(self) -> int:
        return len(self._residues[0])

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        # A sorted search of the residues: p must be a TorusPoint, as every
        # point of the set is, whose value is a multiple of 1/q.
        if type(p) is not TorusPoint:
            return False
        ints, q = self._residues
        n = residue_over(p.value, q)
        if n is None:
            return False
        i = bisect_left(ints, n)
        return i < len(ints) and ints[i] == n

    def issubset(self, other: "CircularSet") -> bool:
        return self._first_missing(other) is None

    def _first_missing(self, other: "CircularSet") -> Optional[TorusPoint]:
        """The smallest point of self that other lacks, or None."""
        (mine, theirs), q = common_scale(self._residues, other._residues)
        present = set(theirs)
        for n in mine:
            if n not in present:
                return TorusPoint._from_residue(n, q)
        return None


def sumset_size(a: CircularSet, b: CircularSet) -> int:
    """|A + B|, counted without lifting the sums to points.

    Two sets of one orbit (the same step p and scale q) count their labels'
    sums mod q, whose image under k -> k*p is A + B; every other pair counts
    its residues' sums.
    """
    q = a._residues[1]
    if a._step is None or a._step != b._step or q != b._residues[1]:
        return _residue_sumset_size(a, b)
    xs = sorted(a.labels)
    return len(torus_pairsums(xs, xs if b is a else sorted(b.labels), q))


def _residue_sumset_size(a: CircularSet, b: CircularSet) -> int:
    """|A + B| counted on residues, for any two sets: the oracle of the count on labels."""
    (xs, ys), q = common_scale(a._residues, b._residues)
    return len(torus_pairsums(xs, ys, q)) if xs and ys else 0


def _gaps(ints: list, q: int, wrap: Wrap) -> list:
    """Consecutive differences of ascending residues, closing arc per wrap."""
    gaps = np.diff(np.array(ints, dtype=int_dtype(q))).tolist()
    if wrap is Wrap.INCLUDE:
        gaps.append(ints[0] + q - ints[-1])
    return gaps


@dataclass(frozen=True)
class GapSpectrum:
    """Consecutive arc lengths of a circular set, with their multiplicities."""

    gaps: tuple
    distinct: frozenset
    multiplicity: dict

    @property
    def size(self) -> int:
        return len(self.distinct)


def spectrum(a: CircularSet) -> GapSpectrum:
    """Anticlockwise consecutive differences of a, honouring its wrap policy."""
    if len(a) < 2:
        raise TooFewPointsError("a spectrum needs at least two points")
    ints, q = a._residues
    gaps = _gaps(ints, q, a.wrap)
    mult = Counter(gaps)
    # One Fraction per distinct gap, shared by every gap equal to it.
    lifted = {g: Fraction(g, q) for g in mult}
    return GapSpectrum(tuple(lifted[g] for g in gaps), frozenset(lifted.values()),
                       {lifted[g]: c for g, c in mult.items()})


def _orbit_residues(alpha: RationalLike, n_points: int) -> Tuple[Fraction, list, tuple, int]:
    """alpha mod 1, the orbit's ascending residues n*p mod q, their multipliers n, and q."""
    alpha = as_rational(alpha) % 1
    if n_points < 1:
        raise ValueError("need at least one point")
    p, q = alpha.numerator, alpha.denominator
    if q <= n_points:
        raise InsufficientDenominatorError(
            f"alpha = {alpha} has denominator {q} <= N = {n_points}; multiples would collide")
    # every product n*p is below N*q: int64 while that fits, Python ints beyond
    res = np.arange(1, n_points + 1, dtype=int_dtype(n_points * q)) * p % q
    order = np.argsort(res, kind="stable")
    return alpha, res[order].tolist(), tuple((order + 1).tolist()), q


def _orbit(alpha: RationalLike, n_points: int) -> Tuple[Fraction, CircularSet]:
    """alpha mod 1 and its N-point orbit, holding its step p."""
    alpha, ints, labels, q = _orbit_residues(alpha, n_points)
    return alpha, CircularSet._from_residues(ints, q, labels, step=alpha.numerator)


def fractional_orbit(alpha: RationalLike, n_points: int) -> CircularSet:
    """The orbit { {alpha}, {2 alpha}, ..., {N alpha} }, labeled by multiplier.

    alpha = p/q must have q > N so the N points are pairwise distinct; this
    is the exact-arithmetic model of an irrational rotation at finite scale.
    """
    return _orbit(alpha, n_points)[1]


@dataclass(frozen=True)
class ThreeGapReport:
    """Verdict that an orbit's gaps take at most three values, all reference distances."""

    alpha: Fraction
    n_points: int
    distinct_gaps: tuple
    reference_distances: tuple
    first_label: int
    last_label: int
    passed: bool


def three_gap_check(alpha: RationalLike, n_points: int) -> ThreeGapReport:
    """orbit_three_gap_check on the N-point orbit of alpha, built without fractional_orbit."""
    return orbit_three_gap_check(*_orbit(alpha, n_points))


def orbit_three_gap_check(alpha: RationalLike, orbit: CircularSet) -> ThreeGapReport:
    """The three-gap verdict for the orbit of alpha, read off its residues.

    The references are the pairwise distances among the three real points
    {a_N alpha} - 1, 0 and {a_1 alpha}, where a_1 and a_N label the smallest
    and largest orbit point: 1 - b_N, b_1, and their sum.  Every gap,
    including the closing arc (the whole circle for a single point), must
    equal one of them.
    """
    ints, q = orbit._residues
    return _three_gap_report(alpha, orbit, set(_gaps(ints, q, Wrap.INCLUDE)))


def _orbit_gap_counts(alpha: RationalLike, orbit: CircularSet) -> Tuple[ThreeGapReport, dict]:
    """orbit_three_gap_check plus each gap's multiplicity (none for one point), counted once."""
    ints, q = orbit._residues
    counts = Counter(_gaps(ints, q, Wrap.INCLUDE))
    mult = {Fraction(g, q): c for g, c in counts.items()} if len(ints) > 1 else {}
    return _three_gap_report(alpha, orbit, counts.keys()), mult


def _three_gap_report(alpha: RationalLike, orbit: CircularSet, distinct) -> ThreeGapReport:
    # distinct: the set of the orbit's int gaps, closing arc included
    ints, q = orbit._residues
    b1, bn = ints[0], ints[-1]
    refs = sorted({b1, q - bn, b1 + q - bn})
    passed = len(distinct) <= 3 and distinct <= set(refs)
    return ThreeGapReport(as_rational(alpha) % 1, len(ints),
                          tuple(Fraction(g, q) for g in sorted(distinct)),
                          tuple(Fraction(r, q) for r in refs),
                          orbit.labels[0], orbit.labels[-1], passed)


@dataclass(frozen=True)
class APUnionSpec:
    """k arithmetic progressions beta_i + n_i*alpha, 1 <= n_i <= N_i, sharing one alpha."""

    alpha: Fraction
    arms: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_rational(self.alpha) % 1)
        arms = tuple((reduce_mod1(beta), int(length)) for beta, length in self.arms)
        if not arms:
            raise ValueError("need at least one progression")
        if any(length < 1 for _, length in arms):
            raise ValueError("every progression needs length >= 1")
        object.__setattr__(self, "arms", arms)

    @property
    def k(self) -> int:
        return len(self.arms)


def _ap_union_residues(spec: APUnionSpec) -> Tuple[list, int]:
    """Ascending residues of the union over the lcm q of all denominators.

    Each arm is one numpy progression; the arms' points, in order, are
    stable-sorted once, so equal points sit together in generation order.
    """
    ints, q = residues([spec.alpha] + [beta for beta, _ in spec.arms])
    step, lengths = ints[0], [length for _, length in spec.arms]
    dtype = int_dtype(q * (max(lengths) + 1))
    vals = np.concatenate([(beta + step * np.arange(1, n + 1, dtype=dtype)) % q
                           for beta, n in zip(ints[1:], lengths)])
    order = np.argsort(vals, kind="stable")
    ascending = vals[order]
    repeats = np.flatnonzero(ascending[1:] == ascending[:-1]) + 1
    if len(repeats):
        # the first point generated twice, in generation order, and its first occurrence
        again = int(order[repeats].min())
        first = int(order[np.searchsorted(ascending, vals[again])])
        raise CollisionError(
            f"point {TorusPoint._from_residue(int(vals[again]), q)} generated twice: "
            f"arm {_arm_of(lengths, first)} and arm {_arm_of(lengths, again)}")
    return ascending.tolist(), q


def _arm_of(lengths: list, pos: int) -> tuple:
    """(i, n) of the pos-th generated point, arm i's n-th, both counted from 1."""
    for i, length in enumerate(lengths, start=1):
        if pos < length:
            return i, pos + 1
        pos -= length


def ap_union_points(spec: APUnionSpec) -> CircularSet:
    """The union of the k progressions as a circular set; collisions are errors."""
    ints, q = _ap_union_residues(spec)
    return CircularSet._from_residues(ints, q)


@dataclass(frozen=True)
class APUnionGapReport:
    """Verdict that a union of k progressions has at most 3k distinct gaps."""

    k: int
    total_points: int
    distinct_gaps: tuple
    bound: int
    passed: bool


def ap_union_gap_check(spec: APUnionSpec) -> APUnionGapReport:
    ints, q = _ap_union_residues(spec)
    bound = 3 * spec.k
    distinct = tuple(Fraction(g, q) for g in sorted(set(_gaps(ints, q, Wrap.INCLUDE))))
    return APUnionGapReport(spec.k, len(ints), distinct, bound, len(distinct) <= bound)


def _require_subset(a: CircularSet, b: CircularSet) -> None:
    missing = a._first_missing(b)
    if missing is not None:
        raise SubsetViolationError(f"A is not a subset of B: {missing} missing from B")


def _distinct_gap_count(a: CircularSet) -> int:
    # A single point contributes just the closing arc, one gap value.
    if not len(a):
        raise TooFewPointsError("a spectrum needs at least two points")
    return 1 if len(a) == 1 else len(set(_gaps(*a._residues, a.wrap)))


@dataclass(frozen=True)
class GapBoundReport:
    """Exact check of |D(A)| <= sqrt(2|B|) |A+B|/|B| + 1 for A inside B.

    The comparison is done squared: (|D(A)|-1)^2 |B| <= 2 |A+B|^2, with the
    |D(A)| <= 1 case passing unconditionally.
    """

    a_size: int
    b_size: int
    distinct_gaps: int
    sumset_size: int
    lhs: int
    rhs: int
    passed: bool


def gap_bound_check(a: CircularSet, b: CircularSet) -> GapBoundReport:
    if len(b) < 2:
        raise TooFewPointsError("B needs at least two points")
    _require_subset(a, b)
    m = _distinct_gap_count(a)
    s = sumset_size(a, b)
    lhs = (m - 1) ** 2 * len(b)
    rhs = 2 * s * s
    return GapBoundReport(len(a), len(b), m, s, lhs, rhs, m <= 1 or lhs <= rhs)


@dataclass(frozen=True)
class ArcCountingReport:
    """The pair count P over a balanced k-arc partition of A+B, with its bounds.

    P counts pairs (i, b) with i indexing one chosen gap witness per distinct
    gap of A and b in B, such that a_i + b and a_{i+1} + b land in the same
    arc.  lower = |B| (|D(A)| - k) and upper = sum of C(|I_j|, 2) over the
    arcs; both bounds are exact, and upper <= |A+B|^2 / 2k.
    """

    k: int
    arc_size_floor: int
    arcs_oversized: int
    arc_boundaries: tuple
    witness_indices: tuple
    pair_count: int
    lower: int
    upper: int
    sum_cap: Fraction
    derived_gap_bound: Fraction
    distinct_gaps: int
    passed: bool


def arc_counting_diagnostic(a: CircularSet, b: CircularSet, k: int) -> ArcCountingReport:
    """Count same-arc pairs for one witness index per distinct gap of A.

    Needs |A| >= 3: with exactly two points the two circular gaps are
    complementary and the same unordered pair of sums is produced from both
    sides, which breaks the pair-to-gap uniqueness behind the upper bound.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if len(a) < 3:
        raise TooFewPointsError("the pair-counting bound needs at least three points in A")
    _require_subset(a, b)
    (xs, ys), q = common_scale(a._residues, b._residues)
    dtype = int_dtype(2 * q)
    # the witnesses: the first index of each distinct gap, ascending
    j_a = np.sort(np.unique(np.array(_gaps(*a._residues, a.wrap), dtype), return_index=True)[1])

    sums = torus_pairsums(xs, ys, q).tolist()
    total = len(sums)
    floor_size, oversized = divmod(total, k)
    sizes = [floor_size + 1] * oversized + [floor_size] * (k - oversized)
    # the arc of each sorted sum, then of a_i + b and a_{i+1} + b, i a witness
    arc = np.repeat(np.arange(k), sizes)
    x, y, at = (np.array(v, dtype=dtype) for v in (xs, ys, sums))
    u, v = (arc[np.searchsorted(at, (x[i, None] + y) % q)] for i in (j_a, (j_a + 1) % len(xs)))
    count = int((u == v).sum())

    upper = sum(sz * (sz - 1) // 2 for sz in sizes)
    lower = len(b) * (len(j_a) - k)
    bounds = tuple((TorusPoint._from_residue(sums[e - sz], q),
                    TorusPoint._from_residue(sums[e - 1], q)) if sz else None
                   for sz, e in zip(sizes, np.cumsum(sizes).tolist()))
    sum_cap = Fraction(total * total, 2 * k)
    derived = k + Fraction(total * total, 2 * k * len(b))
    return ArcCountingReport(k, floor_size, oversized, bounds, tuple(j_a.tolist()), count,
                             lower, upper, sum_cap, derived, len(j_a),
                             lower <= count <= upper)


def greedy_max_distinct(b: CircularSet) -> CircularSet:
    """Greedy subset of B whose consecutive differences are pairwise distinct.

    Starts with the first two points; each further point is the earliest one
    whose difference from the last chosen point avoids all differences used
    so far.  Step j lands within the first C(j,2)+1 points of B, so the
    subset keeps at least ceil(sqrt(2|B|)) - 1 points.
    """
    if len(b) < 2:
        raise TooFewPointsError("the greedy construction needs at least two points")
    ints, q = b._residues
    chosen = [0, 1]
    used = {ints[1] - ints[0]}
    for idx in range(2, len(ints)):
        d = ints[idx] - ints[chosen[-1]]
        if d not in used:
            used.add(d)
            chosen.append(idx)
    labels = None if b.labels is None else tuple(b.labels[i] for i in chosen)
    return CircularSet._from_residues([ints[i] for i in chosen], q, labels, b.wrap, b._step)


def greedy_target(n: int) -> int:
    """ceil(sqrt(2n)) - 1: the distinct-gap count the greedy subset of n points must reach."""
    root = isqrt(2 * n)
    return root - 1 if root * root == 2 * n else root


def sidon_subset(b: CircularSet) -> CircularSet:
    """Greedy subset of B with all pairwise differences distinct mod 1.

    Consequently all consecutive differences of the output are distinct.
    Greedy, not maximum: scan B in anticlockwise order and keep any point
    that preserves the property.
    """
    if len(b) < 1:
        raise TooFewPointsError("need at least one point")
    ints, q = b._residues
    chosen: list = []
    diffs: set = set()
    for x in ints:
        new = set()
        ok = True
        for u in chosen:
            d1 = (x - u) % q
            d2 = (u - x) % q
            if d1 in diffs or d2 in diffs or d1 in new or d2 in new or d1 == d2:
                ok = False
                break
            new.add(d1)
            new.add(d2)
        if ok:
            chosen.append(x)
            diffs |= new
    labels = None
    if b.labels is not None:
        keep = dict(zip(ints, b.labels))
        labels = tuple(keep[x] for x in chosen)
    return CircularSet._from_residues(chosen, q, labels, b.wrap, b._step)
