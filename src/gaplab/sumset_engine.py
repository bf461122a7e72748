"""Exact finite sumsets over Z, Q and R/Z, plus a minimum difference cover solver.

Sums and differences are computed exactly.  Rational inputs are cleared to a
common denominator so the heavy lifting happens on machine integers: a dense
bitmap convolution when the output span is small enough to afford one, a
chunked outer-sum otherwise, and a plain hashing fallback for values too large
for int64.  Results are returned in the input domain (ints, Fractions, or
canonical torus points).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable

import numpy as np

from .exact_torus import TorusPoint, as_rational, reduce_mod1, residues

# Dense path budgets: output bitmap at most 2^26 bits (8 MB), the shifted
# segment table at most 64 * 2^22 bits (32 MB), overflow-free int64 sums.
DENSE_SPAN_LIMIT = 1 << 26
DENSE_SEG_LIMIT = 1 << 22
OUTER_PAIR_LIMIT = 1 << 25
_I64_MAX = (1 << 63) - 1


class DomainMismatchError(ValueError):
    """Binary set operations need both operands in the same domain."""


class Domain(str, Enum):
    INTEGERS = "integers"
    RATIONALS = "rationals"
    TORUS = "torus"


def _value_key(x):
    """Sort key resolving almost every comparison at float speed, exactly.

    The float approximation is the primary key; the exact value breaks float
    ties, so the order is the true rational order even when two values round
    to the same double.
    """
    v = x.value if isinstance(x, TorusPoint) else x
    try:
        f = float(v)
    except OverflowError:
        f = float("inf") if v > 0 else float("-inf")
    return (f, v)


@dataclass(frozen=True)
class FiniteExactSet:
    """A finite set of exact elements, stored as a sorted duplicate-free tuple."""

    elements: tuple
    domain: Domain

    def __post_init__(self) -> None:
        dom = Domain(self.domain)
        if dom is Domain.INTEGERS:
            elems = set()
            for x in self.elements:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise TypeError(f"integer domain got {x!r}")
                elems.add(x)
        elif dom is Domain.RATIONALS:
            elems = {as_rational(x) for x in self.elements}
        else:
            elems = {x if isinstance(x, TorusPoint) else reduce_mod1(x) for x in self.elements}
        if dom is Domain.INTEGERS:
            ordered = sorted(elems)
        else:
            ordered = sorted(elems, key=_value_key)
        object.__setattr__(self, "elements", tuple(ordered))
        object.__setattr__(self, "domain", dom)

    @classmethod
    def integers(cls, xs: Iterable[int]) -> "FiniteExactSet":
        return cls(tuple(xs), Domain.INTEGERS)

    @classmethod
    def rationals(cls, xs: Iterable) -> "FiniteExactSet":
        return cls(tuple(xs), Domain.RATIONALS)

    @classmethod
    def torus(cls, xs: Iterable) -> "FiniteExactSet":
        return cls(tuple(xs), Domain.TORUS)

    @classmethod
    def _from_sorted(cls, elems: tuple, dom: Domain) -> "FiniteExactSet":
        # Internal: elems must already be canonical, distinct and ascending.
        inst = object.__new__(cls)
        object.__setattr__(inst, "elements", elems)
        object.__setattr__(inst, "domain", dom)
        return inst

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.element_set


def negate(x: FiniteExactSet) -> FiniteExactSet:
    elems = x.elements
    if not elems:
        return x
    if x.domain is not Domain.TORUS:
        return FiniteExactSet._from_sorted(tuple(-e for e in reversed(elems)), x.domain)
    # 0 is fixed by negation; the positives reverse their order.
    head = 1 if elems[0].value == 0 else 0
    flipped = elems[:head] + tuple(-e for e in reversed(elems[head:]))
    return FiniteExactSet._from_sorted(flipped, Domain.TORUS)


def _require_same_domain(x: FiniteExactSet, y: FiniteExactSet) -> None:
    if x.domain is not y.domain:
        raise DomainMismatchError(f"cannot combine {x.domain.value} with {y.domain.value}")


def sumset(x: FiniteExactSet, y: FiniteExactSet) -> FiniteExactSet:
    """The set {a + b : a in x, b in y}, exactly, in the common domain."""
    _require_same_domain(x, y)
    dom = x.domain
    if not x.elements or not y.elements:
        return FiniteExactSet((), dom)
    if dom is Domain.INTEGERS:
        sums = _pairsums_int(list(x.elements), list(y.elements))
        return FiniteExactSet._from_sorted(tuple(sums), dom)
    ints, scale = residues(x.elements + y.elements)
    if dom is Domain.RATIONALS:
        sums = _pairsums_int(ints[:len(x)], ints[len(x):])
        return FiniteExactSet._from_sorted(tuple(Fraction(n, scale) for n in sums), dom)
    folded = torus_pairsums(ints[:len(x)], ints[len(x):], scale)
    return FiniteExactSet._from_sorted(
        tuple(TorusPoint._from_residue(n, scale) for n in folded), dom)


def torus_pairsums(xs: list, ys: list, q: int) -> list:
    """Sorted distinct residues mod q of x + y, for ascending residue lists."""
    if not xs or not ys:
        return []
    return sorted({n % q for n in _pairsums_int(xs, ys)})


def difference_set(x: FiniteExactSet, y: FiniteExactSet) -> FiniteExactSet:
    """The set {a - b : a in x, b in y} (differences wrap in the torus domain)."""
    return sumset(x, negate(y))


def doubling_ratio(x: FiniteExactSet) -> Fraction:
    """|x + x| / |x| as an exact rational."""
    if not x.elements:
        raise ValueError("doubling ratio of the empty set is undefined")
    return Fraction(len(sumset(x, x)), len(x))


def _pairsums_int(xs: list, ys: list) -> list:
    """Sorted distinct pairwise sums of two sorted lists of python ints."""
    lo = xs[0] + ys[0]
    hi = xs[-1] + ys[-1]
    int64_ok = (-_I64_MAX <= lo and hi <= _I64_MAX
                and -_I64_MAX <= xs[0] and xs[-1] <= _I64_MAX
                and -_I64_MAX <= ys[0] and ys[-1] <= _I64_MAX)
    if int64_ok:
        n_pairs = len(xs) * len(ys)
        span_out = hi - lo + 1
        seg_bits = min(xs[-1] - xs[0], ys[-1] - ys[0]) + 1
        dense_ok = span_out <= DENSE_SPAN_LIMIT and seg_bits <= DENSE_SEG_LIMIT
        if dense_ok and (n_pairs >= span_out // 16 or n_pairs > OUTER_PAIR_LIMIT):
            return _dense_pairsums(xs, ys, lo, span_out)
        if n_pairs <= OUTER_PAIR_LIMIT:
            return _outer_pairsums(xs, ys)
    # Arbitrary-precision fallback; correct for any magnitudes.
    return sorted({a + b for a in xs for b in ys})


def _outer_pairsums(xs: list, ys: list) -> list:
    a = np.asarray(xs, dtype=np.int64)
    b = np.asarray(ys, dtype=np.int64)
    rows = max(1, (1 << 23) // len(b))
    pieces = [np.unique(np.add.outer(a[i:i + rows], b).ravel())
              for i in range(0, len(a), rows)]
    merged = pieces[0] if len(pieces) == 1 else np.unique(np.concatenate(pieces))
    return merged.tolist()


def _dense_pairsums(xs: list, ys: list, lo: int, span_out: int) -> list:
    # The smaller-span operand becomes the bitmap segment that gets OR-ed
    # once per element of the other operand, at 64 precomputed bit shifts.
    if xs[-1] - xs[0] < ys[-1] - ys[0]:
        xs, ys = ys, xs
    a_off = np.asarray(xs, dtype=np.int64) - xs[0]
    b_off = (np.asarray(ys, dtype=np.int64) - ys[0]).astype(np.uint64)
    words_b = (int(b_off[-1]) >> 6) + 1
    base = np.zeros(words_b, dtype=np.uint64)
    np.bitwise_or.at(base, (b_off >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (b_off & np.uint64(63)))
    variants = []
    for s in range(64):
        v = np.zeros(words_b + 1, dtype=np.uint64)
        if s == 0:
            v[:words_b] = base
        else:
            v[:words_b] = base << np.uint64(s)
            v[1:] |= base >> np.uint64(64 - s)
        variants.append(v)
    out = np.zeros(((span_out + 63) >> 6) + 1, dtype=np.uint64)
    seg = words_b + 1
    for t in a_off.tolist():
        w = t >> 6
        out[w:w + seg] |= variants[t & 63]
    bits = np.unpackbits(out.view(np.uint8), bitorder="little")
    pos = np.flatnonzero(bits[:span_out])
    return (pos + lo).tolist() if -(1 << 62) < lo < (1 << 62) else [int(p) + lo for p in pos]


@dataclass(frozen=True)
class CoverResult:
    """Outcome of the minimum difference cover search for a set B.

    cover        elements c_1 < ... < c_k with B - B contained in cover - B
    exact        True when the size is provably minimum, False for greedy only
    universe     the difference set B - B that was covered
    certificate  for each d in B - B, one witness pair (c, b) with d = c - b
    """

    cover: tuple
    exact: bool
    universe: tuple
    certificate: dict


def minimal_difference_cover(b: FiniteExactSet, exact_limit: int = 24,
                             node_budget: int = 500_000) -> CoverResult:
    """Smallest C inside B with C - B = B - B; exact up to |B| <= exact_limit.

    Each candidate c in B covers the differences c - B, so this is a set
    cover over the universe B - B.  Small instances run an exact branch and
    bound that branches on the difference with the fewest remaining writers
    (unit propagation on uniquely representable differences); larger ones, or
    budget exhaustion, fall back to the classical greedy cover, flagged
    exact=False.  C = B always covers, so a cover always exists.
    """
    elems = b.elements
    if not elems:
        return CoverResult((), True, (), {})
    # Clear denominators once so the set algebra below runs on machine ints.
    dom = b.domain
    if dom is Domain.INTEGERS:
        ints = list(elems)
        lift = None
    elif dom is Domain.RATIONALS:
        ints, scale = residues(elems)
        lift = lambda n: Fraction(n, scale)
    else:
        ints, scale = residues(elems)
        lift = lambda n: TorusPoint._from_residue(n, scale)
    wrap = (lambda d: d % scale) if dom is Domain.TORUS else (lambda d: d)
    orig = dict(zip(ints, elems))
    universe = sorted({wrap(p - q) for p in ints for q in ints})
    index = {d: i for i, d in enumerate(universe)}
    full = (1 << len(universe)) - 1
    cand_by_mask: Dict[int, int] = {}
    for c in ints:
        mask = 0
        for e in ints:
            mask |= 1 << index[wrap(c - e)]
        if mask not in cand_by_mask:
            cand_by_mask[mask] = c
    cands = sorted((c, m) for m, c in cand_by_mask.items())

    def greedy(start_uncovered: int) -> list:
        chosen = []
        uncovered = start_uncovered
        while uncovered:
            best_gain, best_c, best_m = -1, None, 0
            for c, m in cands:
                gain = (m & uncovered).bit_count()
                if gain > best_gain:
                    best_gain, best_c, best_m = gain, c, m
            chosen.append((best_c, best_m))
            uncovered &= ~best_m
        return chosen

    greedy_cover = greedy(full)
    best = [c for c, _ in greedy_cover]
    exact = False
    if len(elems) <= exact_limit:
        covering = [[] for _ in universe]
        for ci, (_, m) in enumerate(cands):
            mm = m
            while mm:
                low = mm & -mm
                covering[low.bit_length() - 1].append(ci)
                mm ^= low
        max_set = max(m.bit_count() for _, m in cands)
        nodes = 0
        seen: Dict[int, int] = {}
        best_list = [list(best)]

        def descend(uncovered: int, chosen: list) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                return False
            if not uncovered:
                if len(chosen) < len(best_list[0]):
                    best_list[0] = list(chosen)
                return True
            depth = len(chosen)
            if depth + (uncovered.bit_count() + max_set - 1) // max_set >= len(best_list[0]):
                return True
            prior = seen.get(uncovered)
            if prior is not None and prior <= depth:
                return True
            seen[uncovered] = depth
            # Branch on the difference with the fewest remaining writers.
            pick, fewest = -1, None
            mm = uncovered
            while mm:
                low = mm & -mm
                i = low.bit_length() - 1
                k = len(covering[i])
                if fewest is None or k < fewest:
                    pick, fewest = i, k
                mm ^= low
            ok = True
            for ci in covering[pick]:
                c, m = cands[ci]
                chosen.append(c)
                ok = descend(uncovered & ~m, chosen) and ok
                chosen.pop()
            return ok

        completed = descend(full, [])
        best = best_list[0]
        exact = completed

    cover_ints = sorted(best)
    # Witness each difference by its smallest covering c (first write wins).
    witness: Dict[int, tuple] = {}
    for cn in cover_ints:
        for en in ints:
            d = wrap(cn - en)
            if d not in witness:
                witness[d] = (cn, en)
    if lift is None:
        cover = tuple(cover_ints)
        certificate = {d: witness[d] for d in universe}
        return CoverResult(cover, exact, tuple(universe), certificate)
    cover = tuple(orig[n] for n in cover_ints)
    lifted = tuple(lift(d) for d in universe)
    certificate = {key: (orig[witness[d][0]], orig[witness[d][1]])
                   for key, d in zip(lifted, universe)}
    return CoverResult(cover, exact, lifted, certificate)
