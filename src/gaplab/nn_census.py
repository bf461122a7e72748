"""Nearest-neighbour structure of finite sets on the d-dimensional torus.

Everything runs on exact rationals: distances are compared through squared
torus norms over a common denominator, so censuses, depth counts, and the
core-extraction rounds are reproducible bit for bit.  Floating point only
appears in logged summary ratios, never in a decision.

The census of a cloud is the set of difference vectors to a nearest
neighbour, one deterministic choice per point.  On top of it sit: the
orbit census of a multi-dimensional rotation, checks for configurations
whose pairwise distances dominate their norms, depth counts of points in
nearest-neighbour balls, a greedy extraction of a large sub-cloud with few
census vectors, and the square-block example showing the extraction bound
is close to tight.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .exact_torus import (TorusVector, as_rational, signed_mod1,
                          torus_dist_sq)
from .gap_spectrum import CollisionError, TooFewPointsError

INT_GRID_LIMIT = 1 << 30


class InvalidConfigurationError(ValueError):
    """A configuration violates a structural precondition (zero vector, dim)."""


class EpsilonRangeError(ValueError):
    """epsilon must lie strictly between 0 and 1."""


class GreedyStallError(ValueError):
    """No center makes progress; the threshold parameter is too small."""


@dataclass(frozen=True)
class PointCloud:
    """Finite set of distinct points on the d-torus."""

    points: Tuple[TorusVector, ...]

    def __post_init__(self):
        if not self.points:
            raise TooFewPointsError("a cloud needs at least one point")
        dims = {p.dim for p in self.points}
        if len(dims) != 1:
            raise InvalidConfigurationError("mixed dimensions in one cloud")
        if len(set(self.points)) != len(self.points):
            raise InvalidConfigurationError("cloud points must be distinct")
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    @classmethod
    def from_values(cls, rows: Iterable[Sequence]) -> "PointCloud":
        return cls(tuple(TorusVector.of(*row) for row in rows))

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return p in set(self.points)

    def negate(self) -> "PointCloud":
        return PointCloud(tuple(-p for p in self.points))

    def common_scale(self) -> int:
        scale = 1
        for p in self.points:
            for c in p.coords:
                scale = lcm(scale, c.value.denominator)
        return scale

    def scaled_rows(self, scale: int) -> List[Tuple[int, ...]]:
        return [tuple(int(c.value * scale) for c in p.coords) for p in self.points]


def cloud_sumset(a: PointCloud, b: PointCloud) -> PointCloud:
    """All pairwise sums of two clouds, as a cloud."""
    if a.dim != b.dim:
        raise InvalidConfigurationError("dimension mismatch in cloud sum")
    return PointCloud(tuple({p + q for p in a for q in b}))


@dataclass(frozen=True)
class NNRecord:
    """One point, its chosen nearest neighbour, and the difference between them."""

    point: TorusVector
    nearest: TorusVector
    diff: Tuple[Fraction, ...]
    dist_sq: Fraction


@dataclass(frozen=True)
class CensusReport:
    """Per-point nearest-neighbour records and the census of difference vectors."""

    dim: int
    method: str
    records: Tuple[NNRecord, ...]
    census: Tuple[Tuple[Fraction, ...], ...]

    @property
    def census_size(self) -> int:
        return len(self.census)


def _signed_int(m: int, scale: int) -> int:
    return m - scale if 2 * m >= scale else m


def _brute_rows_numpy(rows: List[Tuple[int, ...]], scale: int) -> List[Tuple[int, tuple, int]]:
    arr = np.asarray(rows, dtype=np.int64)
    n = len(rows)
    out = []
    for i in range(n):
        diff = (arr - arr[i]) % scale
        folded = np.minimum(diff, scale - diff)
        nsq = (folded * folded).sum(axis=1)
        nsq[i] = np.iinfo(np.int64).max
        best = int(nsq.min())
        cands = np.flatnonzero(nsq == best)
        signed = np.where(2 * diff[cands] >= scale, diff[cands] - scale, diff[cands])
        order = np.lexsort(signed.T[::-1])
        j = int(cands[order[0]])
        out.append((best, tuple(int(v) for v in signed[order[0]]), j))
    return out


def _brute_rows_exact(cloud: PointCloud) -> List[Tuple[Fraction, tuple, int]]:
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


def _candidate_update(best, rows, scale, i, j):
    """Fold candidate j into the running (nsq, signed, j) minimum for point i."""
    nsq = 0
    signed = []
    for xi, xj in zip(rows[i], rows[j]):
        m = (xj - xi) % scale
        nsq += min(m, scale - m) ** 2
        signed.append(_signed_int(m, scale))
    cand = (nsq, tuple(signed), j)
    if best is None or cand[:2] < best[:2]:
        return cand
    return best


def _iroot(n: int, k: int) -> int:
    """Integer k-th root: largest r with r**k <= n."""
    if n < 1:
        return 0
    r = int(round(n ** (1.0 / k)))
    while r > 1 and r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _grid_rows(rows: List[Tuple[int, ...]], scale: int,
               cells: Optional[int]) -> List[Tuple[int, tuple, int]]:
    """Bucketed nearest-neighbour search; agrees with brute force exactly.

    A point outside the explored Chebyshev ring r of cells differs in some
    coordinate by at least r full cells minus one unit, so the search stops
    only when even that floor distance strictly beats the current best; no
    minimizer can hide outside, and tie-breaks see every minimizer.
    """
    n = len(rows)
    d = len(rows[0])
    g = cells if cells is not None else max(2, _iroot(n, d))
    g = min(g, scale)
    width = scale // g
    buckets: Dict[tuple, List[int]] = {}
    cell_of = [tuple((x * g) // scale for x in row) for row in rows]
    for i, cell in enumerate(cell_of):
        buckets.setdefault(cell, []).append(i)
    out = []
    for i in range(n):
        home = cell_of[i]
        best = None
        seen_cells = set()
        r = 0
        while True:
            if r * 2 + 1 > g and len(seen_cells) >= len(buckets):
                break
            for off in itertools.product(range(-r, r + 1), repeat=d):
                if max(abs(o) for o in off) != r and r > 0:
                    continue
                cell = tuple((h + o) % g for h, o in zip(home, off))
                if cell in seen_cells:
                    continue
                seen_cells.add(cell)
                for j in buckets.get(cell, ()):
                    if j != i:
                        best = _candidate_update(best, rows, scale, i, j)
            r += 1
            if best is not None:
                # unexplored cells sit >= r rings out: >= (r-1) whole cell
                # widths of separation in some coordinate
                floor_dist = (r - 1) * width
                if floor_dist > 0 and floor_dist * floor_dist > best[0]:
                    break
        out.append(best)
    return out


def nn_census(cloud: PointCloud, method: str = "auto",
              cells: Optional[int] = None) -> CensusReport:
    """Nearest neighbour of every point; ties pick the smallest signed vector.

    The census is the sorted set of chosen difference vectors.  Methods:
    brute (all pairs), grid (bucket accelerator), auto (grid for large
    integer-scalable clouds, brute otherwise).  All methods agree exactly.
    """
    if cells is not None and cells < 1:
        raise InvalidConfigurationError(f"cells must be at least 1, got {cells}")
    n = len(cloud)
    if n < 2:
        raise TooFewPointsError("a census needs at least two points")
    scale = cloud.common_scale()
    use_int = scale <= INT_GRID_LIMIT
    if method == "auto":
        method = "grid" if (use_int and n > 512) else "brute"
    if method == "grid" and not use_int:
        raise InvalidConfigurationError(
            "grid method needs a common denominator within the integer limit")
    if method == "grid":
        rows = cloud.scaled_rows(scale)
        raw = _grid_rows(rows, scale, cells)
    elif method == "brute":
        # int64 squared norms: each coordinate folds to at most scale // 2
        if use_int and cloud.dim * (scale // 2) ** 2 < np.iinfo(np.int64).max:
            raw = _brute_rows_numpy(cloud.scaled_rows(scale), scale)
        else:
            raw = _brute_rows_exact(cloud)
    else:
        raise InvalidConfigurationError(f"unknown method {method!r}")
    records = []
    for i, (nsq, signed, j) in enumerate(raw):
        if isinstance(nsq, Fraction):
            dist_sq, diff = nsq, signed
        else:
            dist_sq = Fraction(nsq, scale * scale)
            diff = tuple(Fraction(s, scale) for s in signed)
        records.append(NNRecord(cloud.points[i], cloud.points[j], diff, dist_sq))
    census = tuple(sorted({rec.diff for rec in records}))
    return CensusReport(cloud.dim, method, tuple(records), census)


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


def _signed_multiple(k: int, alphas: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    return tuple(signed_mod1(k * a) for a in alphas)


def kronecker_census(alphas: Sequence, n: int) -> KroneckerReport:
    """Nearest-neighbour census of the first n multiples of a rational rotation.

    For each orbit index i the partner j != i minimizes the orbit distance,
    ties to the smallest j; both signs of every chosen difference enter the
    census.  Distinctness of the orbit is checked up front.
    """
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
    big_q = order
    steps = [int(a * big_q) for a in avals]
    # squared norms of k*alpha scaled by big_q**2, k = 1..n-1
    nsq = [0] * n
    residues = [0] * len(steps)
    for k in range(1, n):
        total = 0
        for t, step in enumerate(steps):
            residues[t] = (residues[t] + step) % big_q
            m = residues[t]
            total += min(m, big_q - m) ** 2
        nsq[k] = total
    # prefix minima with first and last achieving index
    premin = [None] * n
    first_at = [0] * n
    last_at = [0] * n
    best = None
    for k in range(1, n):
        if best is None or nsq[k] < best:
            best = nsq[k]
            first_at[k] = k
            last_at[k] = k
        else:
            first_at[k] = first_at[k - 1]
            last_at[k] = last_at[k - 1] if nsq[k] != best else k
        premin[k] = best
    census = set()
    for i in range(1, n + 1):
        left = premin[i - 1] if i > 1 else None
        right = premin[n - i] if i < n else None
        target = min(v for v in (left, right) if v is not None)
        if left == target:
            j = i - last_at[i - 1]
        else:
            j = i + first_at[n - i]
        vec = _signed_multiple(i - j, avals)
        census.add(vec)
        census.add(tuple(signed_mod1(-v) for v in vec))
    ordered = sorted(range(1, n), key=lambda k: (nsq[k], k))
    ell = next(pos + 1 for pos, k in enumerate(ordered) if 2 * k <= n)
    allowed = set()
    for k in ordered[:ell]:
        vec = _signed_multiple(k, avals)
        allowed.add(vec)
        allowed.add(tuple(signed_mod1(-v) for v in vec))
    contained = census <= allowed
    tie_free = ell >= len(ordered) or nsq[ordered[ell - 1]] != nsq[ordered[ell]]
    ratio = len(census) / ((4.0 / 3.0) ** len(avals))
    return KroneckerReport(avals, n, ell, tuple(ordered[:ell]),
                           tuple(sorted(census)), 2 * ell, contained,
                           tie_free, ratio)


@dataclass(frozen=True)
class KissingReport:
    """Pairwise-dominance check for a family of nonzero torus vectors."""

    dim: int
    count: int
    pairwise_ok: bool
    violations: Tuple[Tuple[int, int], ...]
    angular_ok: Optional[bool]
    passed: bool


def _angle_at_least_third_pi(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """Exact predicate for angle(u, v) >= pi/3 between nonzero real vectors."""
    dot = sum((a * b for a, b in zip(u, v)), Fraction(0))
    if dot <= 0:
        return True
    uu = sum((a * a for a in u), Fraction(0))
    vv = sum((b * b for b in v), Fraction(0))
    return 4 * dot * dot <= uu * vv


def kissing_check(vectors: Sequence[TorusVector]) -> KissingReport:
    """Verify every pairwise distance dominates both norms, exactly.

    In one or two dimensions the closest-representative angles are also
    checked: a valid pair subtends at least pi/3, which caps valid families
    at 2 (one dimension) and 6 (two dimensions).
    """
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


def max_ball_depth(a: PointCloud, b: PointCloud) -> BallDepthReport:
    """Max depth over z in A+B, and the implied constant max_depth*(3/4)^d."""
    rep = nn_census(a)
    zs = cloud_sumset(a, b)
    best = -1
    arg = None
    for z in zs:
        depth = ball_depth(z, a, rep)
        if depth > best:
            best = depth
            arg = z
    d = a.dim
    kappa_hat = Fraction(best * 3 ** d, 4 ** d)
    return BallDepthReport(d, best, arg, kappa_hat)


@dataclass(frozen=True)
class CoreExtractionTrace:
    """Greedy extraction of a large sub-cloud with a certified small census.

    threshold is the ball-count cutoff, l = 1 + floor(threshold); rounds
    accumulate centers until the uncovered fraction theta drops below
    epsilon; the core's census (neighbours measured in the full cloud) is
    certified at most rounds * l.
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
        return self.size_ok and self.census_ok


def extract_core(a: PointCloud, b: PointCloud, epsilon,
                 kappa=Fraction(1)) -> CoreExtractionTrace:
    """Extract A' of size > (1-eps)|A| whose census has at most rounds*l vectors.

    Points whose nearest-neighbour ball around a+b catches more than the
    threshold of sumset points are set aside per b; every other a is covered
    by the center c = a+b.  Greedy center choice (largest uncovered gain,
    ties to the smallest center) drives the uncovered fraction below eps.
    A kappa too small for the cloud stalls the greedy loop and is reported
    with the smallest workable value.
    """
    eps = as_rational(epsilon)
    if not 0 < eps < 1:
        raise EpsilonRangeError("epsilon must lie strictly between 0 and 1")
    kap = as_rational(kappa)
    if a.dim != b.dim:
        raise InvalidConfigurationError("dimension mismatch")
    rep = nn_census(a)
    radii = {rec.point: rec.dist_sq for rec in rep.records}
    s_cloud = cloud_sumset(a, b)
    s_points = s_cloud.points
    d = a.dim
    threshold = (2 * kap / eps) * Fraction(4 ** d, 3 ** d) * Fraction(len(s_points), len(a))
    l = 1 + int(threshold)
    b_set = set(b.points)
    # per center: sorted squared distances to all sumset points
    dist_lists = {c: sorted(torus_dist_sq(c, s) for s in s_points) for c in s_points}

    def count_ball(center: TorusVector, radius_sq: Fraction) -> int:
        return bisect_right(dist_lists[center], radius_sq)

    a_sets: Dict[TorusVector, set] = {c: set() for c in s_points}
    upsilon_sizes: Dict[TorusVector, int] = {bv: 0 for bv in b.points}
    for pa in a.points:
        r_sq = radii[pa]
        for bv in b.points:
            c = pa + bv
            if count_ball(c, r_sq) > threshold:
                upsilon_sizes[bv] += 1
            else:
                a_sets[c].add(pa)
    upsilon_max = max(upsilon_sizes.values())
    upsilon_ok = all(2 * v < eps * len(a) for v in upsilon_sizes.values())
    covered: set = set()
    centers: List[TorusVector] = []
    r_sizes: List[int] = [0]
    thetas: List[Fraction] = [Fraction(1)]
    while thetas[-1] >= eps:
        best_gain = -1
        best_c = None
        for c in s_points:
            gain = len(a_sets[c] - covered)
            if gain > best_gain:
                best_gain = gain
                best_c = c
        if best_gain <= 0:
            worst = upsilon_needed_count(a, b, radii, dist_lists)
            kappa_min = eps * len(a) * worst * Fraction(3 ** d, 4 ** d) / (2 * len(s_points))
            raise GreedyStallError(
                f"no center adds coverage; retry with kappa >= {kappa_min}")
        centers.append(best_c)
        covered |= a_sets[best_c]
        r_sizes.append(len(covered))
        thetas.append(Fraction(len(a) - len(covered), len(a)))
    core = PointCloud(tuple(covered))
    core_census = {rec.diff for rec in rep.records if rec.point in covered}
    rounds = len(r_sizes)
    size_ok = len(core) >= (1 - eps) * len(a)
    census_ok = len(core_census) <= rounds * l
    return CoreExtractionTrace(eps, kap, d, len(a), len(b), len(s_points),
                               threshold, l, tuple(centers), tuple(r_sizes),
                               tuple(thetas), core, len(core_census),
                               rounds * l, upsilon_max, upsilon_ok,
                               size_ok, census_ok)


def upsilon_needed_count(a, b, radii, dist_lists) -> int:
    """Largest ball count over all (a, b) pairs; sizes the stall suggestion."""
    worst = 0
    for pa in a.points:
        r_sq = radii[pa]
        for bv in b.points:
            c = pa + bv
            worst = max(worst, bisect_right(dist_lists[c], r_sq))
    return worst


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


def tightness_example(m: int) -> TightnessReport:
    """Squares then a block, scaled into the circle: small doubling, census >= m.

    With eps = 1/(2m), any sub-cloud keeping more than (1-eps) of the points
    drops at most eps*m^2 census vectors, so its census stays at least
    m - eps*m^2 = m/2: the extraction bound cannot be improved much.
    """
    if m < 2:
        raise InvalidConfigurationError("m must be at least 2")
    scale = 4 * m * m
    ints = sorted({i * i for i in range(1, m + 1)}
                  | set(range(m * m + 1, 2 * m * m - m + 1)))
    cloud = PointCloud.from_values([(Fraction(v, scale),) for v in ints])
    rep = nn_census(cloud)
    double = cloud_sumset(cloud, cloud)
    eps = Fraction(1, 2 * m)
    floor = m - eps * m * m
    ratio = Fraction(len(double) ** 2, len(cloud) ** 2)
    upper = (4.0 / 3.0) * float(ratio) * 2 * m * math.log(2 * m)
    return TightnessReport(m, cloud, len(cloud), len(double), 4 * m * m,
                           rep.census_size, eps, floor, upper)
