"""Seeded end-to-end verification suite over the whole library.

Each check replays a pinned family of random instances through one part of
the library and reports a verdict with supporting numbers.  Randomness is
derived per trial from string keys, so every run of the same seed sees the
same instances.

A check is declared once, by ``@_check(name)`` on a body that returns
(passed, summary, details).  The registered check times the whole call and
files the seconds under its result's ``timings``, never in the summary or
details, so everything else in a result is the same on every run.  Two
verdicts are time-gated, each on one stage whose seconds its body returns
with the rest: three-gap's orbit spectra (under 60 s) and
sumset-performance's 10^5 x 10^5 sumset (under 10 s).
"""

from __future__ import annotations

import functools
import random
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, log
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .exact_torus import TorusVector, common_scale, int_dtype
from .extremal_constructions import build_cover_forcing_set, exact_ap_free
from .gap_spectrum import (APUnionSpec, CircularSet, CollisionError,
                           _distinct_gap_count, _residue_sumset_size, ap_union_gap_check,
                           arc_counting_diagnostic, fractional_orbit,
                           gap_bound_check, greedy_max_distinct, greedy_target,
                           sumset_size, three_gap_check)
from .generator_decomposition import verify_generation
from .nn_census import (PointCloud, _census_rows, extract_core,
                        gram_kissing_check, hexagon_gram, kissing_check,
                        kronecker_census, pentagon_cloud, tightness_example)
from .sumset_engine import EXACT_LIMIT, FiniteExactSet, minimal_difference_cover, sumset


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    summary: str
    details: Dict[str, object]
    timings: Dict[str, float]

    @property
    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} [{self.name}] {self.summary} ({self.timings['total_s']:.1f}s)"


# name -> check, in declaration order
CHECKS: Dict[str, Callable[..., CheckResult]] = {}


def _check(name: str) -> Callable:
    """Register the check body under name; a time-gated body also returns
    its stage's seconds, which join the whole call's total_s in timings."""
    def register(body: Callable[..., tuple]) -> Callable[..., CheckResult]:
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            passed, summary, details, *stage = body(*args, **kwargs)
            timings = {"total_s": time.perf_counter() - t0, **(stage[0] if stage else {})}
            return CheckResult(name, passed, summary, details, timings)
        CHECKS[name] = check
        return check
    return register


def _rng(seed: int, check: str, trial) -> random.Random:
    return random.Random(f"{seed}:{check}:{trial}")


def _coprime_from(rng: random.Random, q: int) -> int:
    p = rng.randrange(1, q)
    while gcd(p, q) != 1:
        p += 1
    return p


@_check("three-gap")
def check_three_gap(seed: int = 0, trials: int = 500) -> tuple:
    """Orbit spectra stay within three gaps drawn from the reference distances."""
    t0 = time.perf_counter()
    failures = 0
    max_n = 0
    for t in range(trials):
        rng = _rng(seed, "three-gap", t)
        n = rng.randrange(1, 5001)
        q = rng.randrange(n + 1, 10 * n + 2)
        p = _coprime_from(rng, q)
        rep = three_gap_check(Fraction(p, q), n)
        if not rep.passed:
            failures += 1
        max_n = max(max_n, n)
    spectra_s = time.perf_counter() - t0
    return (failures == 0 and spectra_s < 60.0,
            f"{trials} orbit spectra within reference distances, n up to {max_n} "
            "(budget 60s)",
            {"trials": trials, "failures": failures, "budget_s": 60.0},
            {"spectra_s": spectra_s})


@_check("ap-union")
def check_ap_union(seed: int = 0, trials: int = 200) -> tuple:
    """Unions of up to five shifted progressions never exceed 3k gaps."""
    failures = 0
    retries = 0
    for t in range(trials):
        rng = _rng(seed, "ap-union", t)
        for attempt in range(50):
            k = rng.randrange(1, 6)
            q = rng.randrange(500, 5000)
            alpha = Fraction(_coprime_from(rng, q), q)
            arms = tuple((Fraction(rng.randrange(q), q), rng.randrange(1, 30))
                         for _ in range(k))
            try:
                rep = ap_union_gap_check(APUnionSpec(alpha, arms))
                break
            except CollisionError:
                retries += 1
        else:
            failures += 1
            continue
        if not rep.passed:
            failures += 1
    return (failures == 0,
            f"{trials} progression unions within 3k gaps ({retries} colliding draws "
            "resampled)",
            {"trials": trials, "failures": failures, "retries": retries})


@_check("greedy-gaps")
def check_greedy_gaps(seed: int = 0, trials_per_n: int = 5) -> tuple:
    """Greedy subsets of seeded orbits hit the distinct-gap target and bound,
    and their sums counted on labels equal the counts on residues."""
    failures = []
    achieved: Dict[int, List[int]] = {}
    for n in (100, 1000, 2000):
        target = greedy_target(n)
        achieved[n] = []
        for trial in range(trials_per_n):
            rng = _rng(seed, "greedy-gaps", f"{n}:{trial}")
            q = rng.randrange(4 * n + 1, 50 * n)
            b = fractional_orbit(Fraction(_coprime_from(rng, q), q), n)
            a = greedy_max_distinct(b)
            bound = gap_bound_check(a, b)
            m_a, m_b = bound.distinct_gaps, _distinct_gap_count(b)
            achieved[n].append(m_a)
            double = sumset_size(b, b)
            ok = (m_a >= target
                  and (m_a - 1) ** 2 <= 8 * n
                  and (m_b - 1) ** 2 <= 8 * n
                  and bound.passed
                  and double == 2 * n - 1)
            if not ok:
                failures.append((n, trial, m_a, target, double))
            on_labels = {"b_plus_b": double, "a_plus_b": bound.sumset_size}
            on_residues = {"b_plus_b": _residue_sumset_size(b, b),
                           "a_plus_b": _residue_sumset_size(a, b)}
            if on_labels != on_residues:
                failures.append({"n": n, "trial": trial, "on_labels": on_labels,
                                 "on_residues": on_residues})
    summary = "; ".join(
        f"n={n}: greedy gaps {min(v)}..{max(v)} vs target {greedy_target(n)}"
        for n, v in achieved.items())
    return (not failures, f"{summary}; doubling exact at 2n-1",
            {"achieved": achieved, "failures": failures})


@_check("arc-count")
def check_arc_count(seed: int = 0, trials: int = 100) -> tuple:
    """Arc-partition pair counts stay between their lower and upper bounds."""
    failures = 0
    for t in range(trials):
        rng = _rng(seed, "arc-count", t)
        q = rng.randrange(50, 2000)
        n_b = rng.randrange(4, 40)
        vals = sorted(rng.sample(range(q), n_b))
        b = CircularSet.from_values([Fraction(v, q) for v in vals])
        n_a = rng.randrange(3, n_b + 1)
        a_vals = sorted(rng.sample(vals, n_a))
        a = CircularSet.from_values([Fraction(v, q) for v in a_vals])
        k = rng.randrange(1, 9)
        rep = arc_counting_diagnostic(a, b, k)
        # independent pair recount on ints: each sum's arc is the first whose
        # cumulative size passes the sum's rank
        (xs, ys), q = common_scale(a._residues, b._residues)
        xs, ys = xs.tolist(), ys.tolist()  # the recount runs on Python ints
        sums = sorted({(x + y) % q for x in xs for y in ys})
        floor, oversized = divmod(len(sums), k)
        ends = list(accumulate(floor + (i < oversized) for i in range(k)))
        arc = {v: bisect_right(ends, i) for i, v in enumerate(sums)}
        pairs = sum(arc[(xs[j] + y) % q] == arc[(xs[(j + 1) % len(xs)] + y) % q]
                    for j in rep.witness_indices for y in ys)
        ok = (rep.passed and pairs == rep.pair_count
              and rep.lower <= rep.pair_count <= rep.upper)
        if not ok:
            failures += 1
    return (failures == 0,
            f"{trials} arc partitions: recounted pairs match and sit in [lower, upper]",
            {"trials": trials, "failures": failures})


@_check("generators")
def check_generators(seed: int = 0, trials: int = 50) -> tuple:
    """Every difference decomposes over both neighbour-gap families."""
    failures = 0
    sizes = []
    for t in range(trials):
        rng = _rng(seed, "generators", t)
        q = rng.randrange(100, 50001)
        n = rng.randrange(4, 201)
        if n >= q:
            n = q // 2
        vals = sorted(rng.sample(range(q), n))
        b = CircularSet.from_values([Fraction(v, q) for v in vals])
        cover = minimal_difference_cover(b.to_exact_set())
        c = CircularSet.from_points(cover.cover)
        rep = verify_generation(b, c)
        sizes.append((len(b), len(c)))
        if not rep.passed:
            failures += 1
    return (failures == 0,
            f"{trials} covers decompose all differences both ways with the span "
            f"oracle agreeing, largest |B|={max(sizes)[0]}",
            {"trials": trials, "failures": failures, "sizes": sizes[:10]})


@_check("forced-cover")
def check_forced_cover(seed: int = 0) -> tuple:
    """The mirrored seed block is forced into every difference cover."""
    failures = []
    rows = {}
    for n in (10, 16, 20, 40):
        rep = build_cover_forcing_set(n, exact_ap_free(n))
        # rep.passed holds the size, doubling < 10n, unique representations and
        # the forced block; an exactly searched cover is no smaller than the seed
        ok = rep.passed and (n > EXACT_LIMIT or
                             (rep.cover_exact and len(rep.cover) >= len(rep.seed)))
        rows[n] = {"size": len(rep.points), "doubling": rep.sumset_size,
                   "cover": len(rep.cover), "exact": rep.cover_exact}
        if not ok:
            failures.append(n)
    return (not failures,
            "mirror block forced, unique representations, doubling below 10n "
            "for n in (10, 16, 20, 40)",
            {"rows": rows, "failures": failures})


@_check("kronecker")
def check_kronecker(seed: int = 0, trials_per_d: int = 20, n: int = 10 ** 4) -> tuple:
    """Orbit censuses stay inside the sorted-norm prefix, size at most 2*ell."""
    failures = []
    ratios: Dict[int, List[float]] = {}
    ties = 0
    for d in (1, 2, 3, 4):
        ratios[d] = []
        for trial in range(trials_per_d):
            rng = _rng(seed, "kronecker", f"{d}:{trial}")
            alphas = []
            for _ in range(d):
                q = rng.randrange(n + 1, 20 * n) | 1
                alphas.append(Fraction(_coprime_from(rng, q), q))
            rep = kronecker_census(alphas, n)
            if not rep.passed:
                failures.append((d, trial))
            if not rep.tie_free:
                ties += 1
            ratios[d].append(rep.ratio)
    ratio_txt = ", ".join(
        f"d={d}: {min(v):.2f}..{max(v):.2f}" for d, v in ratios.items())
    return (not failures,
            f"{4 * trials_per_d} orbit censuses contained with |D| <= 2*ell; "
            f"|D|/(4/3)^d {ratio_txt}; {ties} norm ties observed",
            {"failures": failures, "ratios": ratios, "ties": ties})


@_check("kissing")
def check_kissing(seed: int = 0, trials: int = 200) -> tuple:
    """Dominance families cap at 2 on the circle and 6 on the 2-torus."""
    problems = []
    for t in range(trials // 2):
        rng = _rng(seed, "kissing-1d", t)
        q = rng.randrange(8, 4000)
        # opposite half-lines within radius 1/4, where the pair bound holds
        u = Fraction(rng.randrange(1, q // 4 + 1), q)
        v = Fraction(rng.randrange(1, q // 4 + 1), q)
        pair = kissing_check([TorusVector.of(u), TorusVector.of(-v % 1)])
        if not pair.passed:
            problems.append(("pair", t))
        w = Fraction(rng.randrange(1, q), q)
        x = Fraction(rng.randrange(1, q), q)
        y = Fraction(rng.randrange(1, q), q)
        vecs = [TorusVector.of(val) for val in (w, x, y)]
        if len(set(vecs)) == 3:
            triple = kissing_check(vecs)
            if triple.passed:
                problems.append(("triple", t))
    pent = kissing_check(pentagon_cloud())
    hexa = gram_kissing_check(hexagon_gram())
    if not (pent.passed and pent.count == 5 and pent.angular_ok):
        problems.append(("pentagon", -1))
    if not (hexa.passed and hexa.count == 6 and hexa.rank <= 2):
        problems.append(("hexagon", -1))
    for t in range(trials):
        rng = _rng(seed, "kissing-7", t)
        q = rng.randrange(16, 4000)
        pts = set()
        while len(pts) < 7:
            pts.add((Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q)))
        vecs = [TorusVector.of(*p) for p in pts
                if not (p[0] == 0 and p[1] == 0)]
        if len(vecs) < 7:
            continue
        rep = kissing_check(vecs)
        if rep.passed:
            problems.append(("seven", t))
    return (not problems,
            "circle families cap at 2, torus families reach 6 (five rational "
            "points plus the Gram certificate) and every 7-point family fails",
            {"problems": problems})


@_check("extract-core")
def check_extract_core(seed: int = 0) -> tuple:
    """Square-block clouds pass tightness (census >= m, read from its report)
    and every verdict of core extraction (size, census and ball depth)."""
    failures = []
    rows = {}
    for m in (3, 5, 8):
        tight = tightness_example(m)
        trace = extract_core(tight.cloud, tight.cloud, tight.epsilon)
        rows[m] = {
            "cloud": tight.size, "doubling": tight.sumset_size,
            "census": tight.census_size, "core": len(trace.core),
            "core_census": trace.core_census_size, "bound": trace.census_bound,
            "rounds": trace.rounds, "upper_estimate": tight.upper_estimate,
            "m_log_2m": m * log(2 * m),
        }
        if not (tight.passed and trace.passed):
            failures.append(m)
    return (not failures,
            "square-block clouds: census >= m, doubling < 4m^2, extracted core "
            "large with census within rounds*l",
            {"rows": rows, "failures": failures})


def _census_cloud(seed: int, t: int) -> PointCloud:
    """Cloud t of the sumset-performance check: 2 to 2000 random points of
    dimension 1 to 3 over q, built straight from their residue rows."""
    rng = _rng(seed, "sumset-performance", t)
    d = rng.randrange(1, 4)
    q = rng.choice((997, 4096, 65536, 10 ** 6 + 3))
    n = rng.randrange(2, 2001)
    if d == 1:
        # rejection cannot exceed the q distinct 1-d points
        rows = {(v,) for v in rng.sample(range(q), min(n, q))}
    else:
        rows = set()
        while len(rows) < n:
            rows.add(tuple(rng.randrange(q) for _ in range(d)))
    return PointCloud._from_rows(np.array(list(rows), dtype=int_dtype(q)), q)


@_check("sumset-performance")
def check_sumset_performance(seed: int = 0, clouds: int = 200) -> tuple:
    """Hundred-thousand-point sumsets finish fast; grid census rows equal brute's."""
    rng = _rng(seed, "sumset-performance", "big")
    span = 1 << 20
    size = 10 ** 5
    lo_a = rng.randrange(1 << 61)
    lo_b = rng.randrange(1 << 61)
    a_vals = sorted(rng.sample(range(lo_a, lo_a + span), size))
    b_vals = sorted(rng.sample(range(lo_b, lo_b + span), size))
    a = FiniteExactSet.integers(a_vals)
    b = FiniteExactSet.integers(b_vals)
    t0 = time.perf_counter()
    s = sumset(a, b)
    sumset_s = time.perf_counter() - t0
    mismatches = 0
    for t in range(clouds):
        cloud = _census_cloud(seed, t)
        # a report is one function of its rows and cloud: equal rows, equal reports
        brute, grid = (_census_rows(cloud, method)[1] for method in ("brute", "grid"))
        if not all(map(np.array_equal, brute, grid)):
            mismatches += 1
    return (sumset_s < 10.0 and mismatches == 0,
            f"10^5 x 10^5 integer sumset of size {len(s)} (budget 10s); grid "
            f"census bit-identical to brute on {clouds} clouds",
            {"sumset_size": len(s), "mismatches": mismatches},
            {"sumset_s": sumset_s})


def run_checks(seed: int = 0, names: Optional[Sequence[str]] = None,
               overrides: Optional[Dict[str, dict]] = None) -> List[CheckResult]:
    """Run the named checks (all by default) with per-check keyword overrides."""
    chosen = list(CHECKS) if names is None else list(names)
    results = []
    for name in chosen:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; "
                             f"known: {', '.join(CHECKS)}")
        kwargs = dict(overrides.get(name, ())) if overrides else {}
        results.append(CHECKS[name](seed=seed, **kwargs))
    return results
