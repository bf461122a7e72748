"""Exact arithmetic on the circle R/Z and on the d-dimensional torus.

Every scalar is a fractions.Fraction and no float ever enters a
computation: gap coincidences, nearest-neighbour ties and cover
certificates are all decided by exact comparisons.  Points of R/Z are
stored by their canonical representative in [0, 1); signed differences
use the representative in [-1/2, 1/2), so the distance to the nearest
integer is a plain abs().  d-dimensional work sticks to squared norms,
which keeps everything inside Q.  Bulk work clears a common denominator
once with residues() and runs on integers; TorusPoint._from_residue lifts
the results back.

This module is the one home of that integer-residue format: residues()
clears denominators, residue_over() reads one value over a given scale,
common_scale() brings residue families to the lcm of their scales,
lowest_terms() divides out their common factor, signed_residues() maps
residues mod q to [-q/2, q/2), sorted_unique() dedupes residue arrays,
stable_sort() sorts them with their stable argsort from one sort of
composite keys, run_starts() marks where each run of a sorted array begins,
and int_dtype() with INT64_MAX is the guard that keeps numpy int64 only
while every intermediate fits.  Cleared carries a list of rationals (or of
rows of them) in that format, as the command line reads it, to the
constructors that accept it.  LazyFields is the base of the result types
that hold that format unread until a field is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

RationalLike = Union[Fraction, int, str]

HALF = Fraction(1, 2)
INT64_MAX = (1 << 63) - 1
INT32_MAX = (1 << 31) - 1


class DuplicatePointError(ValueError):
    """A collection that must be duplicate-free contains repeats."""


class DegenerateInputError(ValueError):
    """The affine embedding needs at least two distinct values."""


class LazyFields:
    """Base of the five frozen result dataclasses whose _LAZY fields may be held unread.

    An unread instance, made by _unread(), holds the other fields and an
    integer form.  The first read of a lazy field stores every field that
    the class's _lift() returns; a lift that raises stores nothing, so the
    next read lifts again.  Equality, repr, copy and pickling see the lifted
    fields, and an unread instance unpickles unread.
    """

    def _is_unread(self) -> bool:
        return self._LAZY[0] not in self.__dict__

    def _field_rows(self) -> dict:
        """The lazy fields written unread, as (rows, scale[, indices]), n/scale per int row and
        a vector per tuple row, or (record dataclass, {field: (rows, scale[, indices])})."""
        return {}

    def __getattr__(self, name: str):
        # Reached only for absent attributes: a lazy field, unread.
        if name not in self._LAZY:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        lifted = self._lift()
        self.__dict__.update(lifted)
        return lifted[name]


def _unread(cls, **held):
    """An instance of cls holding exactly the given attributes, made without __init__."""
    inst = object.__new__(cls)
    inst.__dict__.update(held)
    return inst


def as_rational(x: RationalLike) -> Fraction:
    """Coerce x to an exact Fraction.

    Accepts ints, Fractions and strings ("5/8", "0.625"); decimal strings
    convert exactly.  Floats are rejected outright so binary rounding noise
    cannot leak into exact computations.
    """
    if isinstance(x, (bool, float)):
        raise TypeError(f"{x!r} is not an exact rational; pass str, int or Fraction")
    return x if type(x) is Fraction else Fraction(x)


def signed_mod1(x: Fraction) -> Fraction:
    """Representative of x + Z in [-1/2, 1/2)."""
    return (x + HALF) % 1 - HALF


def _coerce(x) -> Fraction:
    if isinstance(x, TorusPoint):
        return x.value
    return as_rational(x)


@dataclass(frozen=True, order=True)
class TorusPoint:
    """A point of R/Z held by its canonical representative in [0, 1)."""

    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", as_rational(self.value))
        if not 0 <= self.value < 1:
            raise ValueError(f"representative {self.value} not in [0, 1)")

    @classmethod
    def _from_residue(cls, n: int, q: int) -> "TorusPoint":
        """The point n/q for a residue n already reduced into [0, q).

        Skips the range check of the public constructor, which costs two
        Fraction comparisons per point on bulk lifts of integer results.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "value", Fraction(n, q))
        return p

    def __add__(self, other) -> "TorusPoint":
        return TorusPoint((self.value + _coerce(other)) % 1)

    __radd__ = __add__

    def __sub__(self, other) -> "TorusPoint":
        return TorusPoint((self.value - _coerce(other)) % 1)

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(-self.value % 1)

    def signed(self) -> Fraction:
        """Representative in [-1/2, 1/2)."""
        return self.value - 1 if 2 * self.value >= 1 else self.value

    def norm(self) -> Fraction:
        """Distance to the nearest integer."""
        return min(self.value, 1 - self.value)

    def __str__(self) -> str:
        return str(self.value)


def residues(points: Iterable) -> Tuple[list, int]:
    """Clear a common denominator: (ints, q) with points[i] == ints[i] / q.

    q is the least common denominator of the inputs (1 when there are none).
    Torus points contribute their representatives, so their ints are
    residues in [0, q).
    """
    vals = [p.value if isinstance(p, TorusPoint) else p for p in points]
    q = lcm(*{v.denominator for v in vals})
    return [v.numerator * (q // v.denominator) for v in vals], q


def lowest_terms(ints: Sequence[int], q: int) -> Tuple[Sequence[int], int]:
    """(ints, q) divided by gcd(q, *ints): the least scale over which every ints[i] / q is whole."""
    g = gcd(q, *ints)
    return (ints, q) if g == 1 else ([n // g for n in ints], q // g)


@dataclass(frozen=True)
class Cleared:
    """Rationals, or rows of them, as ints over one positive scale, in the order given.

    Value i is ints[i] / scale, or, when ints[i] is a tuple, row i is ints[i] / scale
    coordinatewise; rows may differ in length.  The scale is any common denominator,
    not necessarily the least, and values may lie outside [0, 1): the constructors
    that accept a Cleared fold it onto the torus where they work there, and bring it
    to lowest terms, themselves.
    """

    ints: tuple
    scale: int

    def __len__(self) -> int:
        return len(self.ints)

    def values(self) -> tuple:
        """The rationals, or rows of them, as Fractions."""
        s = self.scale
        return tuple(tuple(Fraction(n, s) for n in v) if type(v) is tuple else Fraction(v, s)
                     for v in self.ints)


def residue_over(value: Fraction, q: int) -> Optional[int]:
    """value * q when that is an integer, None when value is no multiple of 1/q."""
    if q % value.denominator:
        return None
    return value.numerator * (q // value.denominator)


def common_scale(*families) -> Tuple[list, int]:
    """([ints, ...], q): residue families (ints, scale) brought to q, the lcm of their scales.

    Each ints is a list of Python ints; a family already over q comes back
    as it is, every other one multiplied by q // scale.
    """
    q = lcm(*(s for _, s in families))
    return [ints if s == q else [n * (q // s) for n in ints] for ints, s in families], q


def signed_residues(r: np.ndarray, q: int) -> np.ndarray:
    """Representatives in [-q/2, q/2) of an int64 or object array of residues in [0, q)."""
    return np.where(2 * r >= q, r - q, r)


def int_dtype(*bounds: int):
    """np.int64 when every bound an intermediate reaches is below INT64_MAX, object beyond."""
    return np.int64 if max(bounds) < INT64_MAX else object


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-d array: one sort and an adjacent-difference mask.

    Without return_index, numpy 2's np.unique hashes integer arrays, which
    took over 30x longer than this sort on a million int64 values.
    """
    s = np.sort(a)
    return s[run_starts(s)]


def run_starts(s: np.ndarray) -> np.ndarray:
    """Boolean mask of the first entry of each run of equal values in a sorted 1-d array."""
    keep = np.empty(len(s), dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return keep


def stable_sort(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(values, order): a's entries in row-major order sorted, and their stable argsort.

    order equals np.argsort(a.ravel(), kind="stable").  When
    (max - min + 1) * 2^k, with 2^k >= a.size, fits in int64, both come from
    one in-place np.sort of the distinct keys (a - min) << k | index, each
    index added by broadcasting along its axis, and order is int32 below 2^31
    entries; object arrays and wider spans fall back to the stable argsort.
    A C-contiguous int64 a is consumed: it holds the keys itself, so pass a
    table that is no longer needed, and the values returned share its
    buffer.  Any other a leaves its keys in a fresh int64 copy.
    """
    size = a.size
    k = (size - 1).bit_length() if size else 0
    wide = a.dtype == object or not size
    if not wide:
        lo, hi = int(a.min()), int(a.max())
        wide = (hi - lo + 1) << k > INT64_MAX
    if wide:
        order = np.argsort(a.ravel(), kind="stable")
        return a.ravel()[order], order
    keys = a if a.dtype == np.int64 and a.flags.c_contiguous else np.array(a, np.int64, order="C")
    keys -= lo
    keys <<= k
    stride = size
    for axis, length in enumerate(keys.shape):
        stride //= length
        keys += (np.arange(length, dtype=np.int64) * stride).reshape(
            (-1,) + (1,) * (keys.ndim - axis - 1))
    keys = keys.reshape(-1)
    keys.sort()
    order = np.empty(size, dtype=np.int32 if size <= INT32_MAX else np.intp)
    np.bitwise_and(keys, (1 << k) - 1, out=order, casting="unsafe")
    keys >>= k
    keys += lo
    return keys, order


def reduce_mod1(x: RationalLike) -> TorusPoint:
    """Canonical representative of x + Z in [0, 1)."""
    return TorusPoint(as_rational(x) % 1)


# Short constructor used pervasively in tests and the CLI.
def point(x: RationalLike) -> TorusPoint:
    return reduce_mod1(x)


def torus_norm(t: Union[TorusPoint, RationalLike]) -> Fraction:
    """||t||: distance from t to the nearest integer."""
    if not isinstance(t, TorusPoint):
        t = reduce_mod1(t)
    return t.norm()


def ccw_arc(a: TorusPoint, b: TorusPoint) -> Fraction:
    """Length of the anticlockwise arc from a to b, in [0, 1)."""
    return (b.value - a.value) % 1


@dataclass(frozen=True, order=True)
class TorusVector:
    """A point of the d-torus (R/Z)^d, componentwise canonical."""

    coords: tuple

    def __post_init__(self) -> None:
        pts = tuple(c if isinstance(c, TorusPoint) else reduce_mod1(c) for c in self.coords)
        if not pts:
            raise ValueError("torus vectors need at least one coordinate")
        object.__setattr__(self, "coords", pts)

    @classmethod
    def of(cls, *xs: RationalLike) -> "TorusVector":
        return cls(tuple(xs))

    @classmethod
    def _from_points(cls, coords: tuple) -> "TorusVector":
        """The vector of a nonempty tuple of TorusPoints, taken as they are.

        Skips the per-coordinate canonicalisation of the public constructor
        on bulk lifts of integer rows.
        """
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        return v

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __add__(self, other: "TorusVector") -> "TorusVector":
        _check_dims(self, other)
        return TorusVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "TorusVector") -> "TorusVector":
        _check_dims(self, other)
        return TorusVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "TorusVector":
        return TorusVector(tuple(-c for c in self.coords))

    def signed(self) -> tuple:
        """Componentwise representative in [-1/2, 1/2)^d."""
        return tuple(c.signed() for c in self.coords)

    def values(self) -> tuple:
        return tuple(c.value for c in self.coords)

    def norm_sq(self) -> Fraction:
        return sum((c.norm() ** 2 for c in self.coords), Fraction(0))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _check_dims(u: TorusVector, v: TorusVector) -> None:
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} vs {v.dim}")


def torus_norm_sq_d(t: TorusVector) -> Fraction:
    """Squared torus norm: sum over coordinates of torus_norm(t_i)^2."""
    return t.norm_sq()


def torus_dist_sq(u: TorusVector, v: TorusVector) -> Fraction:
    return (u - v).norm_sq()


def circular_sort(points: Iterable[TorusPoint]) -> list:
    """Points sorted anticlockwise from 0; duplicates are rejected."""
    pts = sorted(points)
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise DuplicatePointError(f"duplicate point {a}")
    return pts


def embed_reals(xs: Iterable[RationalLike]) -> tuple:
    """Embed a finite set of rationals into [0, 1/4] by x -> (x-min)/(4(max-min)).

    The scale factor keeps every pairwise difference inside (-1/2, 1/2), so
    equality patterns among differences are preserved verbatim on the torus.
    Fewer than two distinct values leave no scale to choose, hence the error.
    """
    vals = sorted({as_rational(x) for x in xs})
    if len(vals) < 2:
        raise DegenerateInputError("need at least two distinct values to embed")
    lo, hi = vals[0], vals[-1]
    span = 4 * (hi - lo)
    return tuple(TorusPoint((v - lo) / span) for v in vals)
