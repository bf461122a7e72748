"""Nearest-neighbour structure of finite sets on the d-dimensional torus.

Decisions run on residues: a cloud keeps its points as one array of
integer rows over the least common denominator of its coordinates, and
distances compare as folded squared norms over that scale, whose largest
value d*(scale//2)^2 picks the array dtype through exact_torus.int_dtype:
int64 while it fits, Python ints on object arrays beyond.  Fractions are
lifted for reports only, and only when read (a cloud's points on first
read), so every decision is reproducible bit for bit; floats only appear in
logged summary ratios.

The census of a cloud is the set of difference vectors to a nearest neighbour,
one deterministic choice per point: by all pairs, a tile of points at a time
("brute"), or by an exact circular sweep along one axis ("grid"), both on
residue rows at every scale, scoring through _sq_norms, the fold every kernel
here shares, and choosing the least (nsq, signed vector) through _least;
"auto" picks grid above 512 points and brute otherwise.
Both return arrays, per point its nsq, signed vector and neighbour index
(_census_rows), which nn_census keeps in its report: records and census are
lifted on read, and an unread report is written from the arrays, its distinct
vectors from one np.unique of _row_key, a mixed-radix key per row.  Ball depths
and core extraction read one ball table (_balls), built once per query: A's
census arrays, one table of A + B (_sum_table: its distinct rows, sorted and
indexed by one np.unique of _row_key, and the row of every pair) and each
ball's radius; each sum's depth (_depths) is counted from it only where the
default kappa needs it.
_brute_rows_exact, an all-pairs loop on the Fraction points, is the oracle the
tests check both kernels against.  On top of the census sit: the orbit census
of a rotation (numpy steps over the orbit's offsets, lifting only its census),
pairwise-dominance checks on residue rows through _sq_norms, ball depths, a
greedy extraction of a large sub-cloud with few census vectors, and the
square-block example showing the extraction bound is close to tight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .exact_torus import (Cleared, LazyFields, TorusPoint, TorusVector, _coerce, _unread,
                          as_rational, common_scale, int_dtype, residue_over, residues,
                          signed_residues, sorted_unique, torus_dist_sq)
from .gap_spectrum import CollisionError, TooFewPointsError
from .sumset_engine import torus_pairsums

# sweep offsets per round and brute-force pairs per tile: amortise numpy calls
_SWEEP_BLOCK = 16
_TILE = 1 << 14


class InvalidConfigurationError(ValueError):
    """A configuration violates a structural precondition (zero vector, dim)."""


class EpsilonRangeError(ValueError):
    """epsilon must lie strictly between 0 and 1."""


class GreedyStallError(ValueError):
    """No center makes progress; the threshold parameter is too small."""


def _norm_bound(d: int, scale: int) -> int:
    """The largest folded squared norm, over scale**2, of a d-dimensional residue difference."""
    return d * (scale // 2) ** 2


def _sq_norms(diffs, scale: int):
    """Folded squared norms over scale**2 of per-coordinate residue differences."""
    total = 0
    for m in diffs:
        m = np.abs(m)
        total = total + np.minimum(m, scale - m) ** 2
    return total


@dataclass(frozen=True)
class PointCloud(LazyFields):
    """Finite set of distinct points on the d-torus, kept sorted; _rows holds
    them as residue rows over the least common denominator, in that order:
    one n x d array (int64, object past int64), sorted as tuples sort, by
    _row_key.

    A cloud built from values (or from an exact_torus.Cleared, read with no
    Fraction built) or rows is held unread (exact_torus.LazyFields):
    it keeps only _rows, which length, dimension, membership, sums and every
    census kernel read as that array, ``points``, the tuple of TorusVectors,
    is lifted on first read, and an unread cloud is written from its rows.
    """

    points: Tuple[TorusVector, ...]

    _LAZY = ("points",)

    def __post_init__(self):
        cleared = PointCloud.from_values(p.coords for p in self.points)
        object.__setattr__(self, "points", cleared.points)
        self.__dict__["_rows"] = cleared._rows

    @classmethod
    def from_values(cls, rows: Iterable[Sequence] | Cleared) -> "PointCloud":
        if type(rows) is not Cleared:
            vals = [[c if type(c) is Fraction else _coerce(c) for c in row] for row in rows]
            ints, scale = residues(c for v in vals for c in v)
            it = iter(ints)
            rows = Cleared(tuple(tuple(itertools.islice(it, len(v))) for v in vals), scale)
        int_rows, scale = rows.ints, rows.scale
        dims = set(map(len, int_rows))
        if 0 in dims:
            raise ValueError("torus vectors need at least one coordinate")
        if not dims:
            raise TooFewPointsError("a cloud needs at least one point")
        if len(dims) != 1:
            raise InvalidConfigurationError("mixed dimensions in one cloud")
        # folded onto the torus as Python ints, then held on the cloud's dtype
        cloud = cls._from_rows(np.array(int_rows, dtype=object) % scale, scale)
        rows = cloud._rows[0]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise InvalidConfigurationError("cloud points must be distinct")
        return cloud

    @classmethod
    def _from_rows(cls, rows: np.ndarray, scale: int) -> "PointCloud":
        # Internal: an n x d array of distinct rows of residues mod scale,
        # brought to lowest terms and sorted.
        g = math.gcd(scale, int(np.gcd.reduce(rows, axis=None)))
        rows = (rows // g).astype(int_dtype(scale // g), copy=False)
        # (rows, scale) with points[i] == rows[i] / scale coordinatewise
        return _unread(cls, _rows=(rows[np.argsort(_row_key(rows, scale // g))], scale // g))

    def _lift(self) -> dict:
        return {"points": _lift_rows(*self._rows)}

    def _field_rows(self) -> dict:
        return {"points": self._rows}

    @property
    def dim(self) -> int:
        return self._rows[0].shape[1]

    def __len__(self) -> int:
        return len(self._rows[0])

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        # A sorted search of the residue rows: p must be a TorusVector of
        # TorusPoints, as every point of the cloud is, each coordinate a
        # multiple of 1/scale; a row of another length equals none.
        if type(p) is not TorusVector:
            return False
        rows, scale = self._rows
        row = [residue_over(c.value, scale) if type(c) is TorusPoint else None
               for c in p.coords]
        if None in row or len(row) != rows.shape[1]:
            return False
        return bool((rows == np.array(row, dtype=rows.dtype)).all(axis=1).any())

    def negate(self) -> "PointCloud":
        rows, scale = self._rows
        return PointCloud._from_rows(-rows % scale, scale)

    def common_scale(self) -> int:
        return self._rows[1]


def _lift_rows(rows: np.ndarray, scale: int) -> Tuple[TorusVector, ...]:
    """TorusVectors of an array of residue rows over scale, one Fraction per distinct residue."""
    rows = rows.tolist()
    lift = {x: TorusPoint._from_residue(x, scale)
            for x in set(itertools.chain.from_iterable(rows))}
    return tuple(TorusVector._from_points(tuple(map(lift.__getitem__, r))) for r in rows)


def _sum_table(a: PointCloud, b: PointCloud):
    """(sums, ra, at, scale): A + B's distinct rows ascending, a's rows and at[i, j],
    the row of a_i + b_j, over the clouds' common scale; one np.unique of _row_key
    dedupes, sorts and indexes the sums."""
    d = a.dim
    if d != b.dim:
        raise InvalidConfigurationError("dimension mismatch in cloud sum")
    rows, scale = common_scale(a._rows, b._rows)
    ra, rb = (r.astype(int_dtype(2 * scale), copy=False) for r in rows)
    pairs = ((ra[:, None] + rb[None, :]) % scale).reshape(-1, d)
    _, first, at = np.unique(_row_key(pairs, scale), return_index=True, return_inverse=True)
    return pairs[first], ra, at.reshape(len(ra), -1), scale


def _row_key(rows: np.ndarray, scale: int) -> np.ndarray:
    """Per row of residues in [0, scale), its mixed-radix value, so keys sort as the rows
    do: int64 below scale**d, Python ints beyond.  (numpy's unique along an axis refuses
    object rows, and took 6x as long as this key on 5000 int64 rows of 2 columns.)"""
    key = rows[:, 0].astype(int_dtype(scale ** rows.shape[1]))
    for col in rows.T[1:]:
        key = key * scale + col
    return key


def cloud_sumset(a: PointCloud, b: PointCloud) -> PointCloud:
    """All pairwise sums of two clouds, as a cloud."""
    sums, _, _, scale = _sum_table(a, b)
    return PointCloud._from_rows(sums, scale)


@dataclass(frozen=True)
class NNRecord:
    """One point, its chosen nearest neighbour, and the difference between them."""

    point: TorusVector
    nearest: TorusVector
    diff: Tuple[Fraction, ...]
    dist_sq: Fraction


@dataclass(frozen=True)
class CensusReport(LazyFields):
    """Per-point nearest-neighbour records and the census of difference vectors.

    A report made by nn_census is held unread (exact_torus.LazyFields): it
    keeps the cloud and the kernel's arrays (nsq, vec, j), one row per point
    of the cloud, as _rows.  ``records`` and ``census`` are lifted together
    on first read, an unread report is written from the arrays, and
    census_size counts the distinct rows of vec.
    """

    dim: int
    method: str
    records: Tuple[NNRecord, ...]
    census: Tuple[Tuple[Fraction, ...], ...]

    _LAZY = ("records", "census")

    def _lift(self) -> dict:
        cloud, (nsq, vec, j) = self._rows
        scale = cloud._rows[1]
        vectors, at = _distinct_rows(vec, scale)
        # one Fraction per distinct value
        coord = {x: Fraction(x, scale) for x in set(vectors.ravel().tolist())}
        vecs = [tuple(map(coord.__getitem__, v)) for v in vectors.tolist()]
        dists = {m: Fraction(m, scale * scale) for m in set(nsq.tolist())}
        points = cloud.points
        rows = zip(nsq.tolist(), at.tolist(), j.tolist())
        return {"records": tuple(NNRecord(points[i], points[k], vecs[v], dists[m])
                                 for i, (m, v, k) in enumerate(rows)),
                "census": tuple(vecs)}

    def _field_rows(self) -> dict:
        cloud, (nsq, vec, j) = self._rows
        rows, scale = cloud._rows
        vectors, at = _distinct_rows(vec, scale)
        return {"census": (vectors, scale),
                "records": (NNRecord, {"point": (rows, scale), "nearest": (rows, scale, j),
                                       "diff": (vectors, scale, at),
                                       "dist_sq": (nsq, scale * scale)})}

    @property
    def census_size(self) -> int:
        if self._is_unread():
            return len(_distinct_rows(self._rows[1][1], self._rows[0]._rows[1])[0])
        return len(self.census)


def _distinct_rows(vec: np.ndarray, scale: int):
    """(vectors, inverse): the distinct rows of an array of signed vectors over scale,
    ascending as tuples sort, and the index of each row among them; one np.unique of
    _row_key, the rows moved into [0, scale) by scale // 2."""
    _, first, inverse = np.unique(_row_key(vec + scale // 2, scale),
                                  return_index=True, return_inverse=True)
    return vec[first], inverse.reshape(-1)


def _least(pts, scale: int, i, j, nsq):
    """Per row r, the least (nsq, signed vector) from i[r] to one of j[r], and that partner."""
    r, k = np.nonzero(nsq == nsq.min(axis=1)[:, None])
    vec = signed_residues((pts[j[r, k]] - pts[i[r]]) % scale, scale)
    o = np.lexsort((*vec.T[::-1], r))
    o = o[np.unique(r[o], return_index=True)[1]]
    return nsq[r[o], k[o]], vec[o], j[r[o], k[o]]


def _brute_rows_numpy(rows: np.ndarray, scale: int):
    """Exact nearest neighbours by all pairs, a tile of points at a time, scored on columns."""
    bound = _norm_bound(rows.shape[1], scale)
    arr = rows.astype(int_dtype(bound), copy=False)
    cols = list(arr.T.copy())
    every, tiles = np.arange(len(rows)), []
    for i in np.split(every, range(0, len(rows), max(1, _TILE // len(rows)))[1:]):
        nsq = _sq_norms((c - c[i, None] for c in cols), scale)
        nsq[np.arange(len(i)), i] = bound + 1
        tiles.append(_least(arr, scale, i, np.broadcast_to(every, nsq.shape), nsq))
    return tuple(map(np.concatenate, zip(*tiles)))


def _brute_rows_exact(cloud: PointCloud) -> List[Tuple[Fraction, tuple, int]]:
    """The all-pairs census on Fractions: the oracle the residue kernels are tested against."""
    pts = cloud.points
    out = []
    for i, p in enumerate(pts):
        best = None
        for j, q in enumerate(pts):
            if i == j:
                continue
            d = q - p
            # the signed vector determines q, so keys never repeat across j
            key = (d.norm_sq(), d.signed())
            if best is None or key < best[0]:
                best = (key, j)
        (nsq, signed), j = best
        out.append((nsq, signed, j))
    return out


def _grid_rows(rows: np.ndarray, scale: int):
    """Exact nearest neighbours by a circular sweep; agrees with brute force.

    Sorted along the axis with the most distinct residues, all points are
    scored against their w-th successor and predecessor, w = 1, 2, ....
    The axis offset never shrinks as w grows and bounds every distance
    beyond it, so a direction stops once that offset squared strictly
    exceeds the point's best (tied minimisers are all seen), or where the
    other direction has been.
    """
    n, d = rows.shape
    bound = _norm_bound(d, scale)
    dtype, guard = int_dtype(bound), int_dtype(bound, (scale - 1) ** 2)
    axis = int(np.argmax([len(sorted_unique(c)) for c in rows.T]))
    order = np.argsort(rows[:, axis], kind="stable")
    pts = rows[order].astype(dtype, copy=False)
    cols = list(pts.T.copy())
    key = cols[axis]
    best_nsq = np.full(n, bound + 1, dtype=dtype)
    best_vec = np.zeros((n, d), dtype=dtype)
    best_j = np.zeros(n, dtype=np.int64)
    # last offset scored from i through successors (t = 0), predecessors (t = 1)
    reach = (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    for w0 in range(1, n, _SWEEP_BLOCK):
        ws = np.arange(w0, min(w0 + _SWEEP_BLOCK, n))
        for t, sign in ((0, 1), (1, -1)):
            i = np.flatnonzero(reach[t] == w0 - 1)
            gap = sign * (key[(i + sign * w0) % n] - key[i]) % scale
            gap = gap.astype(guard, copy=False)  # gap * gap may pass bound when d <= 3
            i = i[(gap * gap <= best_nsq[i]) & (reach[1 - t][i] < n - w0)]
            reach[t][i] = ws[-1]
            j = (i[:, None] + sign * ws) % n
            nsq = _sq_norms((c[j] - c[i, None] for c in cols), scale)
            # a row whose block ties or beats its best so far chooses again among both
            keep = nsq.min(axis=1) <= best_nsq[i]
            i, j, nsq = i[keep], j[keep], nsq[keep]
            best_nsq[i], best_vec[i], best_j[i] = _least(
                pts, scale, i, np.c_[j, best_j[i]], np.c_[nsq, best_nsq[i]])
        if not (reach[0] == ws[-1]).any() and not (reach[1] == ws[-1]).any():
            break
    back = np.argsort(order)  # sorted position of each input row
    return best_nsq[back], best_vec[back], order[best_j[back]]


def _census_rows(cloud: PointCloud, method: str):
    """(method, (nsq, vec, j)): the method that ran, and the arrays of, per point of
    the cloud, its nsq, signed vector and neighbour index over the cloud's scale."""
    n = len(cloud)
    if n < 2:
        raise TooFewPointsError("a census needs at least two points")
    rows, scale = cloud._rows
    if method == "auto":
        method = "grid" if n > 512 else "brute"
    if method == "grid":
        return method, _grid_rows(rows, scale)
    if method == "brute":
        return method, _brute_rows_numpy(rows, scale)
    raise InvalidConfigurationError(f"unknown method {method!r}")


def nn_census(cloud: PointCloud, method: str = "auto") -> CensusReport:
    """Nearest neighbour of every point; ties pick the smallest signed vector.

    The census is the sorted set of chosen difference vectors.  Methods:
    brute (all pairs), grid (exact circular sweep), auto (grid above 512
    points, brute otherwise, at every scale).  All methods agree exactly.
    """
    method, raw = _census_rows(cloud, method)
    return _unread(CensusReport, dim=cloud.dim, method=method, _rows=(cloud, raw))


@dataclass(frozen=True)
class KroneckerReport:
    """Census of the orbit {k*alpha : 1 <= k <= n} on the d-torus.

    The orbit's difference norms, sorted increasingly as k_1, k_2, ..., give
    the smallest index ell with 2*k_ell <= n; the census is expected inside
    {+-w_{k_1}, ..., +-w_{k_ell}}, hence of size at most 2*ell.
    """

    alphas: Tuple[Fraction, ...]
    n: int
    ell: int
    sorted_prefix: Tuple[int, ...]
    census: Tuple[Tuple[Fraction, ...], ...]
    bound: int
    contained: bool
    tie_free: bool
    ratio: float

    @property
    def census_size(self) -> int:
        return len(self.census)

    @property
    def passed(self) -> bool:
        return self.contained and self.census_size <= self.bound


def kronecker_census(alphas: Sequence, n: int) -> KroneckerReport:
    """Nearest-neighbour census of the first n multiples of a rational rotation.

    For each orbit index i the partner j != i minimizes the orbit distance,
    ties to the smallest j; both signs of every chosen difference enter the
    census.  Distinctness of the orbit is checked up front.  Every step runs
    on arrays over the offsets k = 1..n-1: running minima of their norms
    with the first and last offset reaching each, one partner choice per
    point, and the census offsets deduplicated mod the orbit's order q,
    where they give the same vector; only the census's own vectors are lifted.
    """
    avals = tuple(as_rational(a) % 1 for a in alphas)
    if not avals:
        raise InvalidConfigurationError("at least one rotation is required")
    if n < 2:
        raise TooFewPointsError("an orbit census needs n >= 2")
    steps, big_q = residues(avals)
    if big_q < n:
        raise CollisionError(
            f"orbit points 1 and {1 + big_q} coincide; denominators too small")
    # squared norms of k*alpha scaled by big_q**2, k = 1..n-1
    dtype = int_dtype(n * big_q, _norm_bound(len(steps), big_q))
    ks = np.arange(1, n, dtype=dtype)
    nsq = _sq_norms((ks * step % big_q for step in steps), big_q)
    # least norm over offsets 1..m, with the first and last offset reaching it
    least = np.minimum.accumulate(nsq)
    first = np.maximum.accumulate(np.where(np.r_[True, least[1:] < least[:-1]], ks, 0))
    last = np.maximum.accumulate(np.where(nsq == least, ks, 0))
    # point i sees offsets 1..i-1 to its left and 1..n-i to its right; the
    # nearer side wins, ties to the left, whose partner j is smaller
    right = np.r_[True, least[::-1][1:] < least[:-1], False]
    off = np.where(right, -np.r_[first[::-1], 0], np.r_[0, last])
    off = np.r_[off, -off]
    residue, at = np.unique(off % big_q, return_index=True)
    order = np.lexsort((ks, nsq))
    ell = int(np.argmax(2 * ks[order] <= n)) + 1
    prefix = ks[order[:ell]]
    contained = bool(np.isin(residue, np.r_[prefix, -prefix] % big_q).all())
    # each census vector is the signed residue of off * step, |off| < n
    signed = signed_residues(off[at, None] * np.array(steps, dtype) % big_q, big_q).tolist()
    census = [tuple(Fraction(x, big_q) for x in v) for v in sorted(map(tuple, signed))]
    tie_free = ell == n - 1 or bool(nsq[order[ell - 1]] != nsq[order[ell]])
    ratio = len(census) / ((4.0 / 3.0) ** len(avals))
    return KroneckerReport(avals, n, ell, tuple(prefix.tolist()), tuple(census),
                           2 * ell, contained, tie_free, ratio)


@dataclass(frozen=True)
class KissingReport:
    """Pairwise-dominance check for a family of nonzero torus vectors."""

    dim: int
    count: int
    pairwise_ok: bool
    violations: Tuple[Tuple[int, int], ...]
    angular_ok: Optional[bool]
    passed: bool


def kissing_check(vectors: Sequence[TorusVector]) -> KissingReport:
    """Verify every pairwise distance dominates both norms, exactly.

    Decisions run on the vectors' residue rows over one scale: norms and
    distances through _sq_norms, violations (i < j) in row-major order.  In
    one or two dimensions the closest-representative angles are also checked:
    a valid pair subtends at least pi/3, which caps valid families at 2 (one
    dimension) and 6 (two dimensions).
    """
    zs = tuple(vectors)
    if not zs:
        raise InvalidConfigurationError("empty configuration")
    d = zs[0].dim
    if any(z.dim != d for z in zs):
        raise InvalidConfigurationError("mixed dimensions")
    ints, scale = residues(c for z in zs for c in z.coords)
    rows = np.array(ints, dtype=int_dtype(_norm_bound(d, scale))).reshape(-1, d)
    norms = _sq_norms(rows.T, scale)
    if (norms == 0).any():
        raise InvalidConfigurationError("zero vector in configuration")
    dsq = _sq_norms((c[:, None] - c for c in rows.T), scale)
    bad = np.argwhere(np.triu(dsq < np.maximum.outer(norms, norms), 1))
    angular = None
    if d <= 2:
        # angle >= pi/3: dot <= 0 or 4 dot^2 <= |u|^2 |v|^2, homogeneous in the scale
        reps = signed_residues(rows, scale).astype(object)  # Python ints
        dot = reps @ reps.T
        ok = (dot <= 0) | (4 * dot * dot <= np.outer(dot.diagonal(), dot.diagonal()))
        angular = bool(ok[np.triu_indices(len(zs), 1)].all())
    return KissingReport(d, len(zs), not len(bad), tuple(map(tuple, bad[:8].tolist())),
                         angular, not len(bad))


@dataclass(frozen=True)
class GramKissingReport:
    """Abstract-configuration check through an exact Gram matrix."""

    count: int
    rank: int
    rank_bound: int
    positive_semidefinite: bool
    pairwise_ok: bool
    embeddable: bool
    passed: bool


def gram_kissing_check(gram: Sequence[Sequence], rank_bound: int = 2) -> GramKissingReport:
    """Certify a dominance configuration given only exact inner products.

    The matrix must be symmetric positive semidefinite of rank at most
    rank_bound, with squared distances G_ii + G_jj - 2 G_ij dominating both
    diagonal entries.  Diagonals at most 1/16 keep a realization inside a
    ball of radius 1/4, where torus and Euclidean distances agree, so the
    certificate transfers to the torus verbatim.
    """
    g = [[as_rational(x) for x in row] for row in gram]
    k = len(g)
    if k == 0 or any(len(row) != k for row in g):
        raise InvalidConfigurationError("Gram matrix must be square")
    if any(g[i][j] != g[j][i] for i in range(k) for j in range(k)):
        raise InvalidConfigurationError("Gram matrix must be symmetric")
    if any(g[i][i] <= 0 for i in range(k)):
        raise InvalidConfigurationError("zero vector in configuration")
    # exact symmetric elimination: pivot on the first active row that is not
    # all zero; the matrix is PSD iff every such pivot is positive
    work = [row[:] for row in g]
    active = list(range(k))
    rank = 0
    while True:
        i = next((i for i in active if any(work[i][c] for c in active)), None)
        if i is None or work[i][i] <= 0:
            psd = i is None
            break
        active.remove(i)
        rank += 1
        for r in active:
            f = work[r][i] / work[i][i]
            if f:
                for c in active:
                    work[r][c] -= f * work[i][c]
    pairwise = all(
        g[i][i] + g[j][j] - 2 * g[i][j] >= max(g[i][i], g[j][j])
        for i in range(k) for j in range(i + 1, k))
    embeddable = all(g[i][i] <= Fraction(1, 16) for i in range(k))
    passed = psd and rank <= rank_bound and pairwise and embeddable
    return GramKissingReport(k, rank, rank_bound, psd, pairwise, embeddable, passed)


def hexagon_gram() -> Tuple[Tuple[Fraction, ...], ...]:
    """Gram matrix of six radius-1/4 vectors at consecutive 60-degree turns."""
    r_sq = Fraction(1, 16)
    pattern = [Fraction(1), Fraction(1, 2), Fraction(-1, 2),
               Fraction(-1), Fraction(-1, 2), Fraction(1, 2)]
    return tuple(tuple(r_sq * pattern[(j - i) % 6] for j in range(6))
                 for i in range(6))


def pentagon_cloud() -> Tuple[TorusVector, ...]:
    """Five rational vectors on the radius-1/4 circle with pairwise angles > 60 degrees."""
    ts = (Fraction(0), Fraction(8, 11), Fraction(40, 13),
          Fraction(-40, 13), Fraction(-8, 11))
    out = []
    for t in ts:
        den = 1 + t * t
        out.append(TorusVector.of((1 - t * t) / den / 4, 2 * t / den / 4))
    return tuple(out)


def ball_depth(z: TorusVector, cloud: PointCloud,
               report: Optional[CensusReport] = None) -> int:
    """How many nearest-neighbour balls of the cloud contain z (closed balls)."""
    rep = report if report is not None else nn_census(cloud)
    return sum(1 for rec in rep.records
               if torus_dist_sq(z, rec.point) <= rec.dist_sq)


@dataclass(frozen=True)
class BallDepthReport:
    """Maximal depth of sumset points in nearest-neighbour balls."""

    dim: int
    max_depth: int
    deepest: TorusVector
    kappa_hat: Fraction


def _balls(a: PointCloud, b: PointCloud):
    """(vec, sums, ra, at, scale, radii): A's census vectors (_census_rows), the
    table of A + B (_sum_table) and each a's squared ball radius over its scale."""
    _, (nsq, vec, _) = _census_rows(a, "auto")
    sums, ra, at, scale = _sum_table(a, b)
    radii = nsq.astype(int_dtype(_norm_bound(a.dim, scale))) * (scale // a._rows[1]) ** 2
    return vec, sums, ra, at, scale, radii


def _depths(sums, ra, scale: int, radii):
    """Each sum's depth, the number of the closed balls (_balls) holding it, from one
    |A + B| x |A| table of squared distances."""
    dtype = radii.dtype
    nsq = _sq_norms((z[:, None] - x[None, :] for z, x in
                     zip(sums.astype(dtype, copy=False).T, ra.astype(dtype, copy=False).T)), scale)
    return (nsq <= radii).sum(axis=1)


def max_ball_depth(a: PointCloud, b: PointCloud) -> BallDepthReport:
    """Max depth over z in A+B (the first deepest z), and max_depth*(3/4)^d."""
    _, sums, ra, _, scale, radii = _balls(a, b)
    depth = _depths(sums, ra, scale, radii)
    d = a.dim
    best = int(depth.max())
    deepest, = _lift_rows(sums[depth == best][:1], scale)
    return BallDepthReport(d, best, deepest, Fraction(best * 3 ** d, 4 ** d))


@dataclass(frozen=True)
class CoreExtractionTrace:
    """Greedy extraction of a large sub-cloud with a certified small census.

    threshold is the ball-count cutoff, l = 1 + floor(threshold); rounds
    accumulate centers until the uncovered fraction theta drops below
    epsilon; the core's census (neighbours measured in the full cloud) is
    certified at most rounds * l.  passed is the trace's one verdict: core
    size, core census and ball depth (upsilon_ok) must all hold.
    """

    epsilon: Fraction
    kappa: Fraction
    dim: int
    a_size: int
    b_size: int
    sumset_size: int
    threshold: Fraction
    l: int
    centers: Tuple[TorusVector, ...]
    r_sizes: Tuple[int, ...]
    thetas: Tuple[Fraction, ...]
    core: PointCloud
    core_census_size: int
    census_bound: int
    upsilon_max: int
    upsilon_ok: bool
    size_ok: bool
    census_ok: bool

    @property
    def rounds(self) -> int:
        return len(self.r_sizes)

    @property
    def passed(self) -> bool:
        return self.size_ok and self.census_ok and self.upsilon_ok


def extract_core(a: PointCloud, b: PointCloud, epsilon, kappa=None) -> CoreExtractionTrace:
    """Extract A' of size > (1-eps)|A| whose census has at most rounds*l vectors.

    Points whose nearest-neighbour ball around a+b catches more than the
    threshold of sumset points are set aside per b; every other a is covered
    by the center c = a+b.  Greedy center choice (largest uncovered gain,
    ties to the smallest center) drives the uncovered fraction below eps.
    kappa defaults to the measured max_depth*(3/4)^d of max_ball_depth,
    read off the same ball table, whose depths are counted only then.  A
    kappa too small for the cloud stalls the greedy loop and is reported
    with the smallest workable value.
    """
    eps = as_rational(epsilon)
    if not 0 < eps < 1:
        raise EpsilonRangeError("epsilon must lie strictly between 0 and 1")
    kap = None if kappa is None else as_rational(kappa)
    if a.dim != b.dim:
        raise InvalidConfigurationError("dimension mismatch")
    vec, sums, ra, at, scale, radii = _balls(a, b)
    n_sums, d = sums.shape
    if kap is None:
        kap = Fraction(int(_depths(sums, ra, scale, radii).max()) * 3 ** d, 4 ** d)
    threshold = (2 * kap / eps) * Fraction(4 ** d, 3 ** d) * Fraction(n_sums, len(a))
    l = 1 + int(threshold)
    bound = _norm_bound(d, scale)
    dtype = int_dtype(n_sums * (bound + 1))
    # per center c, ascending squared distances to A + B offset by c * (bound + 1): one sorted run
    dist = _sq_norms((c[:, None] - c[None, :] for c in sums.astype(dtype).T), scale)
    dist.sort(axis=1)
    dist += np.arange(n_sums, dtype=dtype)[:, None] * (bound + 1)
    # ball counts of every (a, b) pair, exact: a_j - a_i = (a_j + b) - (a_i + b) over scale
    counts = np.searchsorted(dist.ravel(), at.astype(dtype) * (bound + 1)
                             + radii.astype(dtype, copy=False)[:, None],
                             side="right") - at * n_sums
    over = counts > math.floor(threshold)
    upsilon_sizes = over.sum(axis=0).tolist()
    upsilon_ok = all(2 * v < eps * len(a) for v in upsilon_sizes)
    # member[c, i]: center c covers a.points[i]
    member = np.zeros((n_sums, len(a)), dtype=bool)
    member[at[~over], np.nonzero(~over)[0]] = True
    covered = np.zeros(len(a), dtype=bool)
    chosen, r_sizes, thetas = [], [0], [Fraction(1)]
    while thetas[-1] >= eps:
        gains = (member & ~covered).sum(axis=1)
        best_c = int(np.argmax(gains))
        if gains[best_c] <= 0:
            worst = int(counts.max())
            kappa_min = eps * len(a) * worst * Fraction(3 ** d, 4 ** d) / (2 * n_sums)
            raise GreedyStallError(
                f"no center adds coverage; retry with kappa >= {kappa_min}")
        chosen.append(best_c)
        covered |= member[best_c]
        r_sizes.append(int(covered.sum()))
        thetas.append(Fraction(len(a) - r_sizes[-1], len(a)))
    core = PointCloud._from_rows(a._rows[0][covered], a._rows[1])
    core_census, _ = _distinct_rows(vec[covered], a._rows[1])
    rounds = len(r_sizes)
    size_ok = len(core) >= (1 - eps) * len(a)
    census_ok = len(core_census) <= rounds * l
    return CoreExtractionTrace(eps, kap, d, len(a), len(b), n_sums, threshold, l,
                               _lift_rows(sums[chosen], scale), tuple(r_sizes),
                               tuple(thetas), core, len(core_census), rounds * l,
                               max(upsilon_sizes), upsilon_ok, size_ok, census_ok)


@dataclass(frozen=True)
class TightnessReport:
    """The square-block cloud whose census stays large in every big sub-cloud."""

    m: int
    cloud: PointCloud
    size: int
    sumset_size: int
    doubling_bound: int
    census_size: int
    epsilon: Fraction
    census_floor: Fraction
    upper_estimate: float

    @property
    def passed(self) -> bool:
        return (self.size == self.m * self.m
                and self.sumset_size < self.doubling_bound
                and self.census_size >= self.m
                and 2 * self.census_floor >= self.m)


def _square_block(m: int) -> PointCloud:
    """The square-block cloud: 1, 4, ..., m^2, then m^2+1, ..., 2m^2-m, over 4m^2."""
    if m < 2:
        raise InvalidConfigurationError("m must be at least 2")
    ints = sorted({i * i for i in range(1, m + 1)}
                  | set(range(m * m + 1, 2 * m * m - m + 1)))
    return PointCloud._from_rows(np.array(ints, dtype=int_dtype(4 * m * m))[:, None], 4 * m * m)


def tightness_example(m: int) -> TightnessReport:
    """Squares then a block, scaled into the circle: small doubling, census >= m.

    With eps = 1/(2m), any sub-cloud keeping more than (1-eps) of the points
    drops at most eps*m^2 census vectors, so its census stays at least
    m - eps*m^2 = m/2: the extraction bound cannot be improved much.
    """
    cloud = _square_block(m)
    census, _ = _distinct_rows(_census_rows(cloud, "auto")[1][1], cloud._rows[1])
    # the block lies on the circle: A + A of its ascending 1-d residues
    ints = cloud._rows[0][:, 0]
    n_sums = len(torus_pairsums(ints, ints, cloud._rows[1]))
    eps = Fraction(1, 2 * m)
    floor = m - eps * m * m
    ratio = Fraction(n_sums ** 2, len(cloud) ** 2)
    upper = (4.0 / 3.0) * float(ratio) * 2 * m * math.log(2 * m)
    return TightnessReport(m, cloud, len(cloud), n_sums, 4 * m * m,
                           len(census), eps, floor, upper)
