"""Exact finite sumsets over Z, Q and R/Z, plus a minimum difference cover solver.

Sums and differences are computed exactly.  A FiniteExactSet clears its
input values once, straight to (ints, scale): distinct integers over one
common denominator, residues mod the scale on the torus, with no set of
Fractions or torus points built on the way.  Sums run on those integers as
offsets from the smallest sum, so the span of the sums and the cost of each
kernel pick the path, never the magnitude of the ints: a dense bitmap
convolution when the output span is small enough to afford one (or, when its
segment is sparse, the pair sums scattered into a bool map and packed to the
same words), a chunked outer sum otherwise (sorted int64 offsets; past int64
and up to a span of 2^124, two 62-bit limbs added with carry and sorted on
the sum's top 64 bits; past that, Python ints in object arrays).  Dense sums
stay bitmap words (_Bitmap) and every other set ascending offsets from a
Python-int base (_Sorted) until their ints are read: the size of a sum that
nobody prints costs a popcount or a length, and the torus folds [q, 2q) onto
[0, q) as a shifted OR of words, by moving the base, or on the offsets
(62-bit limbs past int64).  A + A of one set (the same list as both
operands) forms each unordered pair once on every path, and on the dense
word kernel it also skips the output words that are already all ones.  A set
(an exact_torus.LazyFields type) lifts its elements to ints, Fractions or
torus points only when ``elements`` is first read, so a sum that nobody
prints is never lifted.

The minimum difference cover also runs on the set's ints: one composite-key
sort of the |B| x |B| differences (exact_torus.stable_sort; int64, object
past int64) gives B - B, each difference's index in it and each difference's
writers, the rows that hold it.  The greedy cover runs on pushed gain counts:
each pick is the first row of greatest gain, and each difference it covers
takes one from the gain of each of its writers.  The witness table is one
more stable sort, of the cover's rows.  Small sets get an exact branch and
bound on bit masks, whose node count and budget are reported.  The result
lifts only its cover: B - B and the witness rows stay ints until a caller
first reads its universe or certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, Iterable, Optional

import numpy as np

from .exact_torus import (INT64_MAX, Cleared, LazyFields, TorusPoint, _coerce, _unread,
                          as_rational, common_scale, int_dtype, lowest_terms, residues,
                          run_starts, sorted_unique, stable_sort)

# Dense path budgets: output bitmap at most 2^26 bits (8 MB), segment at
# most 2^22 bits, and the segment's shift table at most _TABLE_WORDS words
# (256 KB) or one row: its 64 shifted rows are built a block at a time.
# The word kernel's cost in word ORs is, for each element of the loop
# operand, one per segment word and about DENSE_LOOP_ORS more for the
# element's Python step.  Writing a pair sum into a bool map costs about
# SCATTER_PAIR_ORS, so a dense sum scatters when that is cheaper and its
# map takes at most 2^22 bytes, 2^20 sums at a time.
# Outer sums are formed and sorted about 2^23 pairs at a time, on two
# 62-bit limbs for spans past int64 up to 2^124.
DENSE_SPAN_LIMIT = 1 << 26
DENSE_SEG_LIMIT = 1 << 22
_TABLE_WORDS = 1 << 15
DENSE_LOOP_ORS = 3000
SCATTER_PAIR_ORS = 12
SCATTER_SPAN_LIMIT = 1 << 22
_SCATTER_PAIRS = 1 << 20
LIMB_SPAN_LIMIT = 1 << 124
_CHUNK_PAIRS = 1 << 23
_LIMB_BITS = 62
_LIMB_MASK = 0x3FFF_FFFF_FFFF_FFFF  # the low _LIMB_BITS bits
_FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# largest |B| whose minimum difference cover is searched exactly by default
EXACT_LIMIT = 24
# the greedy cover gathers at most about this many writers at a time
_WRITER_BLOCK = 1 << 18


class DomainMismatchError(ValueError):
    """Binary set operations need both operands in the same domain."""


class Domain(str, Enum):
    INTEGERS = "integers"
    RATIONALS = "rationals"
    TORUS = "torus"


class _Bitmap:
    """Distinct ints as bitmap words: bit i of the little-endian uint64 words is lo + i.

    lo is a Python int of any size.  The set-bit count is taken once, here
    (or handed over by a kernel that already has it); the ints are extracted
    only by tolist().
    """

    __slots__ = ("words", "lo", "count")

    def __init__(self, words: np.ndarray, lo: int, count: Optional[int] = None) -> None:
        self.words, self.lo = words, lo
        if count is None:
            # unpacked _TABLE_WORDS // 8 words (256 KiB of bits) at a time
            step = _TABLE_WORDS // 8
            count = sum(int(np.count_nonzero(np.unpackbits(words[i:i + step].view(np.uint8))))
                        for i in range(0, len(words), step))
        self.count = count

    def __len__(self) -> int:
        return self.count

    def sorted(self) -> "_Sorted":
        """The ints as sorted int64 offsets from lo."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return _Sorted(np.flatnonzero(bits), self.lo)

    def tolist(self) -> list:
        return self.sorted().tolist()


class _Sorted:
    """Distinct ints in ascending order, as offsets from base, a Python int of any size.

    Each int is base + (top << shift) + low: top a sorted int64 array (an
    object one past int64, exact_torus.int_dtype) and low None (shift 0),
    or, for two-limb sums, top the uint64 top 64 bits of each offset and low
    the shift bits below them.  Two-limb offsets whose tops are all distinct
    may come unordered; they are sorted on first read.  The ints are built
    only by tolist().
    """

    __slots__ = ("top", "base", "low", "shift", "ordered")

    def __init__(self, top: np.ndarray, base: int, low: Optional[np.ndarray] = None,
                 shift: int = 0, ordered: bool = True) -> None:
        self.top, self.base, self.low, self.shift, self.ordered = top, base, low, shift, ordered

    @classmethod
    def of(cls, ints: list) -> "_Sorted":
        """Ascending distinct Python ints, as offsets from the first."""
        return cls(_offsets(ints), ints[0]) if ints else cls(np.zeros(0, dtype=np.int64), 0)

    def __len__(self) -> int:
        return len(self.top)

    def _order(self) -> None:
        if not self.ordered:
            order = np.argsort(self.top)
            self.top, self.low, self.ordered = self.top[order], self.low[order], True

    def ends(self) -> tuple:
        """The least and the greatest offset, as Python ints; unordered rows,
        whose tops are distinct, are read at their least and greatest top."""
        rows = (0, -1) if self.ordered else (np.argmin(self.top), np.argmax(self.top))
        if self.low is None:
            return tuple(int(self.top[i]) for i in rows)
        return tuple((int(self.top[i]) << self.shift) + int(self.low[i]) for i in rows)

    def tolist(self) -> list:
        self._order()
        top, base = self.top, self.base
        if self.low is not None:
            s = self.shift
            return [(t << s) + n + base for t, n in zip(top.tolist(), self.low.tolist())]
        # offsets are never negative, so base and its largest sum bound them all
        if len(top) and -INT64_MAX <= base and base + int(top[-1]) <= INT64_MAX:
            return (top + base).tolist()
        return [t + base for t in top.tolist()]


def _lift(ints: list, scale: int, dom: Domain) -> tuple:
    """The elements n / scale of ascending Python ints, in the domain's types."""
    if dom is Domain.INTEGERS:
        return tuple(ints)
    if dom is Domain.RATIONALS:
        return tuple(Fraction(n, scale) for n in ints)
    return tuple(TorusPoint._from_residue(n, scale) for n in ints)


@dataclass(frozen=True, eq=False, init=False)
class FiniteExactSet(LazyFields):
    """A finite set of exact elements: integers, rationals or points of R/Z.

    The set keeps distinct ints n over one positive scale, each standing for
    the element n / scale (a residue in [0, scale) on the torus): the words
    of a dense sum (a _Bitmap) or sorted offsets from a base (a _Sorted),
    both of which build their ints only when they are read.  Length is the
    count each form holds, and set algebra runs on the ascending ints.  A set is held unread
    (exact_torus.LazyFields): ``elements``, the ascending tuple of ints,
    Fractions or canonical TorusPoints, is lifted on first read.  The constructors
    also take an exact_torus.Cleared, whose ints they read with no Fraction built.
    """

    elements: tuple
    domain: Domain

    _LAZY = ("elements",)

    def __init__(self, elements: Iterable | Cleared, domain: Domain) -> None:
        dom = Domain(domain)
        if type(elements) is Cleared:
            ints, scale = lowest_terms(elements.ints, elements.scale)
            if scale != 1 and dom is Domain.INTEGERS:
                raise TypeError("integer domain got "
                                f"{next(Fraction(n, scale) for n in ints if n % scale)!r}")
        elif dom is Domain.INTEGERS:
            ints = []
            for x in elements:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise TypeError(f"integer domain got {x!r}")
                ints.append(x)
            scale = 1
        else:
            coerce = _coerce if dom is Domain.TORUS else as_rational
            ints, scale = residues([coerce(x) for x in elements])
        ints = {n % scale for n in ints} if dom is Domain.TORUS else set(ints)
        self.__dict__.update(_ints=_Sorted.of(sorted(ints)), _scale=scale, domain=dom)

    @classmethod
    def integers(cls, xs: Iterable[int] | Cleared) -> "FiniteExactSet":
        return cls(xs, Domain.INTEGERS)

    @classmethod
    def rationals(cls, xs: Iterable | Cleared) -> "FiniteExactSet":
        return cls(xs, Domain.RATIONALS)

    @classmethod
    def torus(cls, xs: Iterable | Cleared) -> "FiniteExactSet":
        return cls(xs, Domain.TORUS)

    @classmethod
    def _from_ints(cls, ints, scale: int, dom: Domain) -> "FiniteExactSet":
        # Internal: ints a _Bitmap or a _Sorted, taken unchecked.
        return _unread(cls, _ints=ints, _scale=scale, domain=dom)

    def _lift(self) -> dict:
        return {"elements": _lift(self._ints.tolist(), self._scale, self.domain)}

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def _key(self) -> tuple:
        # Lowest terms make the key canonical: equal sets, equal keys.
        ints = self._ints.tolist()
        g = gcd(self._scale, *ints)
        return self.domain, self._scale // g, tuple(n // g for n in ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteExactSet):
            return NotImplemented
        if len(self) != len(other):
            return False
        a, b = self._ints, other._ints
        if (type(a) is type(b) is _Bitmap and a.lo == b.lo and len(a.words) == len(b.words)
                and self._scale == other._scale and self.domain is other.domain):
            # Each bit stands for the same element in both maps.
            return bool(np.array_equal(a.words, b.words))
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __len__(self) -> int:
        return len(self._ints)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.element_set


def negate(x: FiniteExactSet) -> FiniteExactSet:
    """-x, read off the ascending ints backwards: n -> -n, or q - n on the torus."""
    ints, q, dom = x._ints.tolist(), x._scale, x.domain
    if dom is not Domain.TORUS:
        neg = [-n for n in reversed(ints)]
    else:
        zero = ints[:1] == [0]  # 0 is its own negative and stays first
        neg = ints[:zero] + [q - n for n in reversed(ints[zero:])]
    return FiniteExactSet._from_ints(_Sorted.of(neg), q, dom)


def _require_same_domain(x: FiniteExactSet, y: FiniteExactSet) -> None:
    if x.domain is not y.domain:
        raise DomainMismatchError(f"cannot combine {x.domain.value} with {y.domain.value}")


def sumset(x: FiniteExactSet, y: FiniteExactSet) -> FiniteExactSet:
    """The set {a + b : a in x, b in y}, exactly, in the common domain."""
    _require_same_domain(x, y)
    dom = x.domain
    if not len(x) or not len(y):
        return FiniteExactSet((), dom)
    xs = x._ints.tolist()
    ys = xs if y is x else y._ints.tolist()
    (xs, ys), scale = common_scale((xs, x._scale), (ys, y._scale))
    if dom is Domain.TORUS:
        return FiniteExactSet._from_ints(torus_pairsums(xs, ys, scale), scale, dom)
    return FiniteExactSet._from_ints(_pairsums_int(xs, ys), scale, dom)


def torus_pairsums(xs: list, ys: list, q: int):
    """Distinct residues mod q of x + y, for nonempty ascending residue lists.

    Words over exactly [0, q) (a _Bitmap with lo 0) when the dense kernel
    ran and that map is at most twice the size of its words.  Otherwise a
    _Sorted: the sums as they are when none reaches q, their base moved by q
    when all do, and when some do, folded in numpy, on int64 offsets while q
    fits int64, on 62-bit limbs up to LIMB_SPAN_LIMIT, as Python ints past it.
    """
    sums = _pairsums_int(xs, ys)
    if isinstance(sums, _Bitmap):
        if (q + 63) >> 6 <= 2 * len(sums.words):
            return _torus_words(sums, q)
        sums = sums.sorted()
    # Sums lie in [0, 2q); those at or above q are the offsets t and up.
    t, base = q - sums.base, sums.base
    first, last = sums.ends()
    if t > last:
        return sums
    if t <= first:
        return _Sorted(sums.top, base - q, sums.low, sums.shift, sums.ordered)
    top = sums.top
    if top.dtype == np.int64 and q <= INT64_MAX:
        return _Sorted(sorted_unique(np.where(top >= t, top - t, top + base)), 0)
    if top.dtype != object and q <= LIMB_SPAN_LIMIT:
        return _fold_limbs(sums, q)
    ints = np.array(sums.tolist(), dtype=object)
    return _Sorted.of(sorted_unique(np.where(ints >= q, ints - q, ints)).tolist())


def _fold_limbs(sums: _Sorted, q: int) -> _Sorted:
    """Int64 or two-limb sums in [0, 2q), some at or above q, folded mod q on limbs.

    Each offset, split into 62-bit limbs, adds the base less q when it lies
    at or above t = q - base, and the base alone when not, with carry or
    borrow modulo 2^126.  The results take the limb encoding _outer_pairsums
    gives a span of q, and _distinct_limbs their union; nothing is ordered.
    """
    t, s = q - sums.base, np.uint64(sums.shift)
    top = sums.top.astype(np.uint64)  # int64 offsets are two limbs with shift 0
    hi = top >> (np.uint64(_LIMB_BITS) - s)
    lo = (top << s) & np.uint64(_LIMB_MASK)
    if sums.low is not None:
        lo |= sums.low
    t_hi, t_lo = np.uint64(t >> _LIMB_BITS), np.uint64(t & _LIMB_MASK)
    up = (hi > t_hi) | ((hi == t_hi) & (lo >= t_lo))
    below, above = sums.base, (sums.base - q) % (1 << (_LIMB_BITS + 64))
    hi += np.where(up, np.uint64(above >> _LIMB_BITS), np.uint64(below >> _LIMB_BITS))
    lo += np.where(up, np.uint64(above & _LIMB_MASK), np.uint64(below & _LIMB_MASK))
    shift = max(q.bit_length() - 64, 0)
    return _distinct_limbs(*_top_bits(hi, lo, shift), 0, shift)


def _or_shifted(out: np.ndarray, words: np.ndarray, shift: int) -> None:
    """out |= words shifted up by shift bits (shift may be negative), clipped to out."""
    k, r = shift >> 6, shift & 63
    if r:
        moved = np.zeros(len(words) + 1, dtype=np.uint64)
        moved[:-1] = words << np.uint64(r)
        moved[1:] |= words >> np.uint64(64 - r)
        words = moved
    a, b = max(k, 0), min(k + len(words), len(out))
    if a < b:
        out[a:b] |= words[a - k:b - k]


def _torus_words(sums: _Bitmap, q: int) -> _Bitmap:
    """Sums in [0, 2q) folded mod q, as words over exactly [0, q).

    The words of sums below q are OR-ed in at their own place and those at
    or above q are OR-ed in q lower; a word holding both kinds goes in
    twice, and each copy's bits on the wrong side of q fall outside [0, q)
    and are clipped or masked off.
    """
    words, lo = sums.words, sums.lo
    out = np.zeros((q + 63) >> 6, dtype=np.uint64)
    if lo < q:
        _or_shifted(out, words[:(q - lo + 63) >> 6], lo)
    first = max(q - lo, 0) >> 6
    _or_shifted(out, words[first:], lo + 64 * first - q)
    if q & 63:
        out[-1] &= np.uint64((1 << (q & 63)) - 1)
    return _Bitmap(out, 0)


def difference_set(x: FiniteExactSet, y: FiniteExactSet) -> FiniteExactSet:
    """The set {a - b : a in x, b in y} (differences wrap in the torus domain)."""
    return sumset(x, negate(y))


def doubling_ratio(x: FiniteExactSet) -> Fraction:
    """|x + x| / |x| as an exact rational."""
    if not len(x):
        raise ValueError("doubling ratio of the empty set is undefined")
    return Fraction(len(sumset(x, x)), len(x))


def _pairsums_int(xs: list, ys: list):
    """Distinct pairwise sums of two sorted nonempty lists of Python ints.

    The span of the sums and the cost of each kernel pick the path, not the
    magnitude of the ints: every kernel runs on offsets from xs[0] + ys[0].
    The words of a _Bitmap from the dense path, sorted offsets (a _Sorted)
    from the outer path.
    """
    lo = xs[0] + ys[0]
    span_out = xs[-1] + ys[-1] - lo + 1
    # Of the dense (loop, segment) orders whose segment fits, run the one
    # with fewer word ORs; on a tie, the narrower segment, then xs looping.
    orders = ((xs, ys), (ys, xs))
    costs = [(len(p) * (s[-1] - s[0] + 64), s[-1] - s[0], i)
             for i, (p, s) in enumerate(orders) if s[-1] - s[0] < DENSE_SEG_LIMIT]
    if costs and span_out <= DENSE_SPAN_LIMIT and len(xs) * len(ys) >= span_out // 16:
        return _dense_pairsums(*orders[min(costs)[2]], lo, span_out)
    return _outer_pairsums(xs, ys)


def _offsets(xs: list) -> np.ndarray:
    """x - xs[0] for ascending Python ints: int64 while the span fits, object past it."""
    x0, dtype = xs[0], int_dtype(xs[-1] - xs[0])
    if dtype is np.int64 and -INT64_MAX <= x0 and xs[-1] <= INT64_MAX:
        return np.asarray(xs, dtype=np.int64) - x0
    return np.array([x - x0 for x in xs], dtype=dtype)


def _limbs(xs: list) -> tuple:
    """(high, low): x - xs[0] split into two 62-bit uint64 limbs, for spans below 2^124."""
    offs = _offsets(xs)
    return (offs >> _LIMB_BITS).astype(np.uint64), (offs & _LIMB_MASK).astype(np.uint64)


def _pair_blocks(n_a: int, n_b: int, same: bool, budget: int):
    """Chunks of at most about budget pairs: lists of blocks (r0, r1, c0),
    the pairs (i, j) with r0 <= i < r1 and j >= c0, or with r0 <= i <= j < r1
    when c0 is None.

    Together the blocks hold every pair once.  A + A (same) holds each
    unordered pair once: its rows come in blocks of max(128, n_a / 16), each
    the triangle j >= i inside the block and the rectangle right of it.
    """
    rows = max(1, budget // n_b)
    if same:
        rows = min(rows, max(128, -(-n_a // 16)))
    chunk, size = [], 0
    for r0 in range(0, n_a, rows):
        r1 = min(r0 + rows, n_a)
        pairs = (r1 - r0) * (n_b - r0 if same else n_b)
        if chunk and size + pairs > budget:
            yield chunk
            chunk, size = [], 0
        chunk += [(r0, r1, None), (r0, r1, r1)] if same else [(r0, r1, 0)]
        size += pairs
    yield chunk


def _block_sums(a: np.ndarray, b: np.ndarray, chunk: list) -> np.ndarray:
    """The sums a[i] + b[j] of one chunk of _pair_blocks, as one flat array."""
    sums = []
    for r0, r1, c0 in chunk:
        if c0 is None:
            i, j = np.triu_indices(r1 - r0)
            sums.append(a[r0 + i] + b[r0 + j])
        else:
            sums.append((a[r0:r1, None] + b[c0:]).ravel())
    return sums[0] if len(sums) == 1 else np.concatenate(sums)


def _outer_pairsums(xs: list, ys: list) -> _Sorted:
    """Distinct pair sums, sorted, for any span.

    Offsets whose sums fit int64, or whose span reaches LIMB_SPAN_LIMIT
    (Python ints in object arrays, _offsets), are summed and sorted as they
    are.  Those between are split into two 62-bit limbs, added with carry,
    and sorted on the sum's top 64 bits (_distinct_limbs).  Rows are taken
    about _CHUNK_PAIRS pairs at a time.
    """
    base = xs[0] + ys[0]
    span = xs[-1] + ys[-1] - base
    same = xs is ys
    chunks = _pair_blocks(len(xs), len(ys), same, _CHUNK_PAIRS)
    if span <= INT64_MAX or span >= LIMB_SPAN_LIMIT:
        a = _offsets(xs)
        b = a if same else _offsets(ys)
        pieces = [sorted_unique(_block_sums(a, b, chunk)) for chunk in chunks]
        return _Sorted(pieces[0] if len(pieces) == 1 else
                       sorted_unique(np.concatenate(pieces)), base)
    shift = max(span.bit_length() - 64, 0)
    a_hi, a_lo = _limbs(xs)
    b_hi, b_lo = (a_hi, a_lo) if same else _limbs(ys)
    pieces = [_distinct_limbs(*_top_bits(_block_sums(a_hi, b_hi, chunk),
                                         _block_sums(a_lo, b_lo, chunk), shift), base, shift)
              for chunk in chunks]
    if len(pieces) == 1:
        return pieces[0]
    return _distinct_limbs(np.concatenate([p.top for p in pieces]),
                           np.concatenate([p.low for p in pieces]), base, shift)


def _top_bits(hi: np.ndarray, lo: np.ndarray, shift: int) -> tuple:
    """(top, low) of the ints hi * 2^62 + lo, lo below 2^63, in place: the bits
    from shift up, (hi << 62 - shift) | (lo >> shift) after the carry, and below."""
    hi += lo >> np.uint64(_LIMB_BITS)
    lo &= np.uint64(_LIMB_MASK)
    hi <<= np.uint64(_LIMB_BITS - shift)
    hi |= lo >> np.uint64(shift)
    lo &= np.uint64((1 << shift) - 1)
    return hi, lo


def _distinct_limbs(top: np.ndarray, low: np.ndarray, base: int, shift: int) -> _Sorted:
    """The distinct (top, low) rows, as a _Sorted from base.

    One sort of the uint64 tops finds the tops that repeat; only their rows
    are ordered, to drop repeated rows.  The rows stay unordered unless
    distinct rows share a top, when all of them are ordered by (top, low).
    """
    tops = np.sort(top)
    tie = tops[1:] == tops[:-1]
    if not tie.any():
        return _Sorted(top, base, low, shift, ordered=False)
    rows = np.flatnonzero(np.isin(top, tops[1:][tie]))
    rows = rows[np.lexsort((low[rows], top[rows]))]
    same_top = top[rows[1:]] == top[rows[:-1]]
    repeat = same_top & (low[rows[1:]] == low[rows[:-1]])
    keep = np.ones(len(top), dtype=bool)
    keep[rows[1:][repeat]] = False
    top, low = top[keep], low[keep]
    if (same_top & ~repeat).any():
        order = np.lexsort((low, top))
        return _Sorted(top[order], base, low[order], shift)
    return _Sorted(top, base, low, shift, ordered=False)


def _full_run(out: np.ndarray) -> tuple:
    """(start, stop) of the longest run of all-ones words of out, (0, 0) if none.

    The last word of out lies past every sum, so no run reaches it and each
    run's start has its stop.
    """
    edges = np.diff((out == _FULL_WORD).view(np.int8), prepend=0)
    starts = np.flatnonzero(edges == 1)
    if not len(starts):
        return 0, 0
    stops = np.flatnonzero(edges == -1)
    i = int(np.argmax(stops - starts))
    return int(starts[i]), int(stops[i])


def _by_class(a_off: np.ndarray) -> tuple:
    """(loop, classes, ends): a_off grouped by bit-shift class t & 63, each
    class ascending, the classes present in ascending order and the end of
    each one's group in loop."""
    cls = (a_off & 63).astype(np.uint8)
    counts = np.bincount(cls, minlength=64)
    classes = np.flatnonzero(counts)
    return a_off[np.argsort(cls, kind="stable")], classes, np.cumsum(counts)[classes]


def _shifted_rows(base: np.ndarray, classes: np.ndarray):
    """For each shift s of classes, ascending, the segment base shifted up by
    s bits, one word longer: built a block of at most _TABLE_WORDS words (or
    one row) at a time."""
    seg = len(base) + 1
    per = max(1, _TABLE_WORDS // seg)
    for i in range(0, len(classes), per):
        shifts = classes[i:i + per].astype(np.uint64)[:, None]
        table = np.zeros((len(shifts), seg), dtype=np.uint64)
        table[:, :-1] = base << shifts
        k = int(shifts[0, 0] == 0)  # row 0 spills nothing, and C leaves >> 64 undefined
        table[k:, 1:] |= base >> (np.uint64(64) - shifts[k:])
        yield from table


def _trimmed_ors(out: np.ndarray, base: np.ndarray, a_off: np.ndarray) -> None:
    """The dense kernel's ORs for A + A, skipping the words they cannot change.

    A + A needs only the sums x + y with y >= x, so the element at offset t
    ORs the segment from its own word t >> 6 on; the y < x that share that
    word add only true sums.  Words [run_lo, run_hi) are all ones, so an OR
    there changes nothing: a window that starts or ends inside that run is
    cut at its edge.  The elements run one bit-shift class at a time, from
    that class's one shifted row (_shifted_rows); each class spans the whole
    set, so the output's interior fills early.  The longest run is found
    again each time the word ORs of the uncut windows pass 4, 8, 16, ...
    times the output's length, which keeps the search cheap where nothing
    fills.
    """
    seg = len(base) + 1
    loop, classes, ends = _by_class(a_off)
    ors = np.cumsum(seg - (loop >> 6))
    marks = len(out) << np.arange(2, int(ors[-1] // len(out)).bit_length())
    searches = np.searchsorted(ors, marks) + 1
    search_at = set(searches.tolist())
    ts, rows = loop.tolist(), zip(_shifted_rows(base, classes), ends.tolist())
    run_lo = run_hi = start = end = 0
    for stop in np.union1d(searches, ends).tolist():
        if start == end:
            row, end = next(rows)
        if start in search_at:
            run_lo, run_hi = _full_run(out)
        for t in ts[start:stop]:
            w = t >> 6
            a, b = 2 * w, w + seg
            if run_lo <= a < run_hi:
                a = run_hi
            if run_lo < b <= run_hi:
                b = run_lo
            if a < b:
                out[a:b] |= row[a - w:b - w]
        start = stop


def _dense_pairsums(xs: list, ys: list, lo: int, span_out: int) -> _Bitmap:
    # ys is the bitmap segment, OR-ed once per element of xs from its row
    # shifted by that element's bit-shift class, one class at a time;
    # _pairsums_int alone decides which operand plays which part.
    same = xs is ys
    a_off = _offsets(xs)
    b_off = a_off if same else _offsets(ys)
    words_b = (int(b_off[-1]) >> 6) + 1
    n_words = ((span_out + 63) >> 6) + 1
    if (SCATTER_PAIR_ORS * len(ys) < words_b + 1 + DENSE_LOOP_ORS
            and span_out <= SCATTER_SPAN_LIMIT):
        # Per element of xs, its pairs cost less to write into a bool map
        # than its word ORs and Python step.
        hit = np.zeros(64 * n_words, dtype=bool)
        for chunk in _pair_blocks(len(xs), len(ys), same, _SCATTER_PAIRS):
            hit[_block_sums(a_off, b_off, chunk)] = True
        words = np.packbits(hit, bitorder="little").view(np.uint64)
        return _Bitmap(words, lo, int(np.count_nonzero(hit)))
    b_off = b_off.astype(np.uint64)
    base = np.zeros(words_b, dtype=np.uint64)
    np.bitwise_or.at(base, (b_off >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (b_off & np.uint64(63)))
    out = np.zeros(n_words, dtype=np.uint64)
    if same:
        _trimmed_ors(out, base, a_off)
    else:
        seg = words_b + 1
        loop, classes, ends = _by_class(a_off)
        ts, start = loop.tolist(), 0
        for row, end in zip(_shifted_rows(base, classes), ends.tolist()):
            for t in ts[start:end]:
                w = t >> 6
                out[w:w + seg] |= row
            start = end
    # Every sum lies in [lo, lo + span_out), so no bit past them is set.
    return _Bitmap(out, lo)


@dataclass(frozen=True)
class CoverResult(LazyFields):
    """Outcome of the minimum difference cover search for a set B.

    cover             elements c_1 < ... < c_k with B - B contained in cover - B
    exact             True when the size is provably minimum, False for greedy only
    universe          the difference set B - B that was covered
    certificate       for each d in B - B, one witness pair (c, b) with d = c - b
    nodes             branch-and-bound nodes expanded, at most the node budget;
                      0 when |B| > exact_limit and only the greedy cover ran
    budget_exhausted  True when the search stopped at the node budget, which
                      leaves exact False although |B| <= exact_limit

    A result of minimal_difference_cover is held unread (LazyFields): it
    lifts only its cover and keeps as _ints B - B over a scale, B's ints
    and the rows of B of each difference's witness pair.  universe and
    certificate are lifted together on first read, so the certificate is
    keyed by the universe's own objects, and _ints is dropped then.
    """

    cover: tuple
    exact: bool
    universe: tuple
    certificate: dict
    nodes: int = 0
    budget_exhausted: bool = False

    _LAZY = ("universe", "certificate")

    def _lift(self) -> dict:
        universe, scale, dom, ints, wit_c, wit_b = self._ints
        lifted, elems = _lift(universe.tolist(), scale, dom), _lift(ints, scale, dom)
        certificate = {key: (elems[c], elems[e]) for key, c, e
                       in zip(lifted, wit_c.tolist(), wit_b.tolist())}
        del self.__dict__["_ints"]  # no read needs it once both fields are stored
        return {"universe": lifted, "certificate": certificate}


def _difference_table(ints: list, scale: int, dom: Domain):
    """(universe, pos, writers, starts): B - B from one stable sort of its |B| x |B| table.

    universe is B - B ascending and pos[i, j] the index of b_i - b_j in it.
    writers[starts[u]:starts[u + 1]] are the rows i whose b_i - B holds
    universe[u], ascending: the table's stable argsort, row-major, over |B|.
    ints are the set's ascending ints.  Differences do not change under
    translation, so integers and rationals run on offsets from the smallest
    int; the torus folds each difference of residues into [0, scale).  The
    sort's keys live in the table's own buffer, freed before pos is
    scattered, and pos and writers are int32 below 2^31 entries.
    """
    o = np.array(ints, dtype=int_dtype(scale)) if dom is Domain.TORUS else _offsets(ints)
    d = np.subtract.outer(o, o)
    if dom is Domain.TORUS:
        np.add(d, scale, out=d, where=d < 0)
    values, order = stable_sort(d)
    del d
    first = run_starts(values)
    universe = values[first]
    del values
    starts = np.append(np.flatnonzero(first), len(first))
    del first
    pos = np.empty((len(o), len(o)), dtype=order.dtype)
    pos.reshape(-1)[order] = np.repeat(np.arange(len(universe), dtype=order.dtype),
                                       np.diff(starts))
    order //= len(o)
    return universe, pos, order, starts


def _writer_rows(writers: np.ndarray, starts: np.ndarray, diffs: np.ndarray, n: int):
    """The writers of the differences diffs (indices into B - B), in blocks.

    Each difference has at most n writers, so a block holds at most about
    _WRITER_BLOCK of them.
    """
    step = max(1, _WRITER_BLOCK // n)
    for at in range(0, len(diffs), step):
        chunk = diffs[at:at + step]
        lo = starts[chunk]
        lengths = starts[chunk + 1] - lo
        ends = np.cumsum(lengths)
        # entry t of the block, in difference u's run, is writers[lo[u] + t - ends[u] + lengths[u]]
        yield writers[np.arange(ends[-1]) + np.repeat(lo - ends + lengths, lengths)]


def minimal_difference_cover(b: FiniteExactSet, exact_limit: int = EXACT_LIMIT,
                             node_budget: int = 500_000) -> CoverResult:
    """Smallest C inside B with C - B = B - B; exact up to |B| <= exact_limit.

    Each candidate c in B covers the differences c - B, so this is a set
    cover over the universe B - B.  Small instances run an exact branch and
    bound that branches on the difference with the fewest remaining writers
    (unit propagation on uniquely representable differences); larger ones, or
    budget exhaustion, fall back to the classical greedy cover, flagged
    exact=False.  C = B always covers, so a cover always exists.
    """
    if not len(b):
        return CoverResult((), True, (), {})
    # Candidates are the rows i of the set's ascending ints.
    dom, ints, scale = b.domain, b._ints.tolist(), b._scale
    n = len(ints)
    universe, pos, writers, starts = _difference_table(ints, scale, dom)

    # The greedy cover on pushed gains (Chvatal 1979; CLRS 3rd ed., ex. 35.3-3):
    # gain[i] counts the uncovered differences of row i, at first all n of
    # them.  Each pick is the first maximum, the row a full rescoring pass
    # would pick, and every difference it covers takes one from the gain of
    # each of its writers, so the whole cover touches each table entry once.
    gain = np.full(n, n, dtype=np.int64)
    covered = np.zeros(len(universe), dtype=bool)
    best, left = [], len(universe)
    while left:
        i = int(np.argmax(gain))
        best.append(i)
        row = pos[i]
        new = row[~covered[row]]
        covered[new] = True
        left -= len(new)
        if left:
            for rows in _writer_rows(writers, starts, new, n):
                gain -= np.bincount(rows, minlength=n)

    exact = budget_exhausted = False
    nodes = 0
    if n <= exact_limit:
        full = (1 << len(universe)) - 1
        # Candidate i covers the bits pos[i]; rows sharing a mask keep the first.
        cand_by_mask: Dict[int, int] = {}
        for i, row in enumerate(pos.tolist()):
            cand_by_mask.setdefault(sum(1 << u for u in row), i)
        cands = [(c, m) for m, c in cand_by_mask.items()]
        # covering[u]: the candidates writing difference u, ascending, cut from
        # one stable sort of their rows; fewest: differences by writer count
        rows = pos[[c for c, _ in cands]]
        counts = np.bincount(rows.ravel(), minlength=len(universe))
        ends = np.cumsum(counts).tolist()
        cand_writers = (stable_sort(rows)[1] // n).tolist()
        covering = [cand_writers[lo:hi] for lo, hi in zip([0] + ends, ends)]
        fewest = stable_sort(counts)[1].tolist()
        seen: Dict[int, int] = {}

        def descend(uncovered: int, chosen: list) -> bool:
            nonlocal nodes, best
            nodes += 1
            if nodes > node_budget:
                return False
            if not uncovered:
                if len(chosen) < len(best):
                    best = list(chosen)
                return True
            depth = len(chosen)
            if depth + (uncovered.bit_count() + n - 1) // n >= len(best):
                return True
            prior = seen.get(uncovered)
            if prior is not None and prior <= depth:
                return True
            seen[uncovered] = depth
            # Branch on the uncovered difference with the fewest writers, the first on a tie.
            pick = next(u for u in fewest if uncovered >> u & 1)
            ok = True
            for ci in covering[pick]:
                c, m = cands[ci]
                chosen.append(c)
                ok = descend(uncovered & ~m, chosen) and ok
                chosen.pop()
            return ok

        exact = descend(full, [])
        budget_exhausted = not exact
        nodes = min(nodes, node_budget)

    cover_rows = sorted(best)
    cover = _lift([ints[i] for i in cover_rows], scale, dom)
    # Witness each difference by its smallest covering c, then its smallest
    # b: the first occurrence of its index in the cover rows, row-major.
    # The whole table is dropped first: the cover's rows can be all of it.
    cover_pos = pos[cover_rows]
    del pos, writers
    values, first = stable_sort(cover_pos)
    wit_c, wit_b = np.divmod(first[run_starts(values)], n)
    return _unread(CoverResult, cover=cover, exact=exact, nodes=nodes,
                   budget_exhausted=budget_exhausted,
                   _ints=(universe, scale, dom, ints, np.asarray(cover_rows)[wit_c], wit_b))
