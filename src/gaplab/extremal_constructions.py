"""Progression-free sets and the constructions built on top of them.

Three ways to produce sets with no three-term arithmetic progression: the
classical greedy sequence, an exact branch-and-bound maximizer for small
ranges, and the digit-sphere construction that packs digits of a bounded
base onto a sphere so that midpoints are impossible.

On top of these sit two constructions.  One turns an AP-free seed into an
integer set with small doubling whose minimal difference covers are forced
to contain a prescribed block.  The other projects a k-dimensional box of
multiples onto the circle and shows the 2^k box corners already cover all
differences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .exact_torus import as_rational, residues
from .gap_spectrum import CircularSet, CollisionError
from .sumset_engine import (EXACT_LIMIT, FiniteExactSet, difference_set,
                            minimal_difference_cover, sumset)


class ConstructionRangeError(ValueError):
    """Input parameters leave the construction's admissible range."""


def ap_free_check(values: Iterable[int]) -> bool:
    """True when no three distinct elements satisfy a + c = 2b."""
    vals = sorted(set(values))
    members = set(vals)
    for i, a in enumerate(vals):
        for c in vals[i + 2:]:
            if (a + c) % 2 == 0 and (a + c) // 2 in members:
                return False
    return True


def greedy_ap_free(n: int) -> Tuple[int, ...]:
    """Greedily keep each of 1..n that closes no progression with earlier picks.

    That greedy sequence is exactly {x : x - 1 has no digit 2 in base 3}
    (Erdos-Turan; Odlyzko-Stanley 1978), so it is listed directly: element
    k, counting from 0, is 1 plus the binary digits of k read in base 3.
    """
    chosen: List[int] = []
    x = 1
    while x <= n:
        chosen.append(x)
        x = int(format(len(chosen), "b"), 3) + 1
    return tuple(chosen)


_MAX_SIZES: List[int] = [0, 1]
_WITNESSES: List[Tuple[int, ...]] = [(), (1,)]


def _search_exact(limit: int, target: int) -> Optional[Tuple[int, ...]]:
    """Find an AP-free subset of [1..limit] of the given size, or None.

    Any maximizer translates down to one containing 1, so the search roots
    there.  Suffix pruning uses the table for shorter ranges: the tail
    [x..limit] can add at most the maximum for a range of its length.
    """
    chosen = [1]
    chosen_set = {1}

    def descend(x: int) -> bool:
        if len(chosen) >= target:
            return True
        if x > limit or len(chosen) + _MAX_SIZES[limit - x + 1] < target:
            return False
        if not any(2 * b - x in chosen_set for b in chosen):
            chosen.append(x)
            chosen_set.add(x)
            if descend(x + 1):
                return True
            chosen.pop()
            chosen_set.remove(x)
        return descend(x + 1)

    if descend(2):
        return tuple(chosen)
    return None


def _extend_exact_table(limit: int) -> None:
    while len(_MAX_SIZES) <= limit:
        n = len(_MAX_SIZES)
        witness = _search_exact(n, _MAX_SIZES[n - 1] + 1)
        if witness is None:
            _MAX_SIZES.append(_MAX_SIZES[n - 1])
            _WITNESSES.append(_WITNESSES[n - 1])
        else:
            _MAX_SIZES.append(len(witness))
            _WITNESSES.append(witness)


def max_ap_free_sizes(n: int) -> Tuple[int, ...]:
    """Maximum sizes of AP-free subsets of [1..m] for m = 1..n."""
    _extend_exact_table(n)
    return tuple(_MAX_SIZES[1:n + 1])


def exact_ap_free(n: int) -> Tuple[int, ...]:
    """A maximum-size AP-free subset of [1..n], found exactly."""
    if n < 1:
        raise ConstructionRangeError("range must contain at least 1")
    _extend_exact_table(n)
    return _WITNESSES[n]


@dataclass(frozen=True)
class DigitSphereReport:
    """AP-free set from digit vectors of fixed squared length."""

    limit: int
    base: int
    digit_count: int
    radius_sq: int
    points: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.points)


def _shell_counts(half_base: int, digit_count: int) -> Dict[int, int]:
    """Number of digit vectors per squared length, digits 0..half_base-1."""
    counts = {0: 1}
    for _ in range(digit_count):
        nxt: Dict[int, int] = {}
        for s, c in counts.items():
            for d in range(half_base):
                nxt[s + d * d] = nxt.get(s + d * d, 0) + c
        counts = nxt
    return counts


def _shell_points(half_base: int, digit_count: int, radius_sq: int,
                  limit: int) -> Tuple[int, ...]:
    base = 2 * half_base
    out: List[int] = []

    def walk(i: int, remaining: int, value: int) -> None:
        if i == digit_count:
            if remaining == 0 and 1 <= value <= limit:
                out.append(value)
            return
        if remaining > (digit_count - i) * (half_base - 1) ** 2:
            return
        power = base ** i
        for d in range(half_base):
            if d * d > remaining:
                break
            walk(i + 1, remaining - d * d, value + d * power)

    walk(0, radius_sq, 0)
    return tuple(sorted(out))


def behrend_set(n: int) -> DigitSphereReport:
    """Largest digit-sphere AP-free subset of [1..n] over a small parameter scan.

    Digits stay below half the base, so adding two set elements never
    carries; a progression would force three equal-length digit vectors
    with one the midpoint of the others, impossible on a sphere.
    """
    if n < 1:
        raise ConstructionRangeError("range must contain at least 1")
    best: Optional[Tuple[int, int, int, Tuple[int, ...]]] = None
    # half-base scan stays tiny: isqrt of the bit length bounds the optimum
    d_hi = isqrt(n.bit_length()) + 2
    for half_base in range(2, d_hi + 1):
        base = 2 * half_base
        digit_count = 0
        while (half_base - 1) * (base ** (digit_count + 1) - 1) // (base - 1) <= n:
            digit_count += 1
        if digit_count == 0:
            continue
        counts = _shell_counts(half_base, digit_count)
        radius_sq = max((s for s in counts if s > 0),
                        key=lambda s: (counts[s], -s))
        points = _shell_points(half_base, digit_count, radius_sq, n)
        key = (len(points), -base, -radius_sq)
        if best is None or key > (len(best[3]), -best[0], -best[1]):
            best = (base, radius_sq, digit_count, points)
    if best is None:
        raise ConstructionRangeError("no admissible digit parameters")
    base, radius_sq, digit_count, points = best
    return DigitSphereReport(n, base, digit_count, radius_sq, points)


@dataclass(frozen=True)
class CoverForcingReport:
    """Integer set with small doubling whose covers must contain a block.

    Each target x - 2s has exactly one representation as a difference of
    two set elements, so any difference cover contains its top endpoint.
    """

    n: int
    seed: Tuple[int, ...]
    x: int
    points: Tuple[int, ...]
    sumset_size: int
    doubling_bound: int
    representation_counts: Dict[int, int]
    forced_block: Tuple[int, ...]
    cover: Tuple[int, ...]
    cover_exact: bool
    forced_block_in_cover: bool
    passed: bool


def build_cover_forcing_set(n: int, seed: Sequence[int],
                            exact_limit: int = EXACT_LIMIT) -> CoverForcingReport:
    """Embed an AP-free seed into an n-point set forcing its mirror into covers."""
    s = tuple(sorted(set(seed)))
    if len(s) != len(tuple(seed)):
        raise ConstructionRangeError("seed elements must be distinct")
    if not s or s[0] < 1 or s[-1] > n:
        raise ConstructionRangeError("seed must lie inside [1, n]")
    if 2 * len(s) > n:
        raise ConstructionRangeError("seed may hold at most n/2 elements")
    if not ap_free_check(s):
        raise ConstructionRangeError("seed must be progression-free")
    x = 5 * n - 2 * len(s)
    middle = range(2 * n + 1, x - 2 * n + 1)
    mirror = tuple(sorted(x - v for v in s))
    points = tuple(sorted(set(s) | set(middle) | set(mirror)))
    if len(points) != n:
        raise ConstructionRangeError("construction blocks overlap")
    b = FiniteExactSet.integers(points)
    double = sumset(b, b)
    rep_counts: Dict[int, int] = {}
    point_set = set(points)
    for sv in s:
        m = x - 2 * sv
        rep_counts[m] = sum(1 for p in points if p - m in point_set)
    cover = minimal_difference_cover(b, exact_limit=exact_limit)
    cover_vals = tuple(int(v) for v in cover.cover)
    forced_ok = set(mirror) <= set(cover_vals)
    passed = (len(points) == n and len(double) < 10 * n
              and all(c == 1 for c in rep_counts.values()) and forced_ok)
    return CoverForcingReport(n, s, x, points, len(double), 10 * n,
                              rep_counts, mirror, cover_vals, cover.exact,
                              forced_ok, passed)


@dataclass(frozen=True)
class LatticeProjectionReport:
    """A box of multiple-sums on the circle, covered by its corner points."""

    alphas: Tuple[Fraction, ...]
    box: Tuple[int, ...]
    points: CircularSet
    corners: CircularSet
    corner_bound: int
    cover_equal: bool
    sumset_size: int
    doubling_bound: int

    @property
    def passed(self) -> bool:
        return self.cover_equal and len(self.corners) <= self.corner_bound


def lattice_projection(alphas: Sequence, box: Sequence[int]) -> LatticeProjectionReport:
    """Project {sum n_j a_j : 0 <= n_j < N_j} to the circle; corners cover it.

    The corner for a sign pattern delta takes n_j = delta_j (N_j - 1).  Any
    difference of two box points matches some corner minus a box point, so
    the corner set is a difference cover of size at most 2^k.
    """
    avals = tuple(as_rational(a) % 1 for a in alphas)
    dims = tuple(int(m) for m in box)
    if len(avals) != len(dims) or not avals:
        raise ConstructionRangeError("one box length per rotation is required")
    if any(m < 1 for m in dims):
        raise ConstructionRangeError("box lengths must be at least 1")
    steps, q = residues(avals)
    seen: Dict[int, Tuple[int, ...]] = {}
    for tup in itertools.product(*(range(m) for m in dims)):
        val = sum(n * a for n, a in zip(tup, steps)) % q
        if val in seen:
            raise CollisionError(
                f"box points {seen[val]} and {tup} collide at {Fraction(val, q)}")
        seen[val] = tup
    corner_ints = {sum(d * (m - 1) * a for d, m, a in zip(delta, dims, steps)) % q
                   for delta in itertools.product((0, 1), repeat=len(dims))}

    def circle(ints: list, labels: Optional[tuple] = None) -> CircularSet:
        g = gcd(q, *ints)  # lowest terms, as CircularSet.from_values clears them
        return CircularSet._from_residues([n // g for n in ints], q // g, labels)

    ordered = sorted(seen)
    points = circle(ordered, tuple(seen[v] for v in ordered))
    corners = circle(sorted(corner_ints))
    b = points.to_exact_set()
    c = corners.to_exact_set()
    cover_equal = difference_set(c, b) == difference_set(b, b)
    double = sumset(b, b)
    return LatticeProjectionReport(avals, dims, points, corners,
                                   2 ** len(dims), cover_equal,
                                   len(double), (2 ** len(dims)) * len(points))
