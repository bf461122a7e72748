"""Seeded end-to-end verification suite over the whole library.

Each check replays a pinned family of random instances through one part of
the library and reports a verdict with supporting numbers.  Randomness is
derived per trial from string keys, so every run of the same seed sees the
same instances.  Wall-clock seconds are reported but only the sumset
throughput check makes time part of its verdict.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd, log
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exact_torus import TorusVector
from .extremal_constructions import build_cover_forcing_set, exact_ap_free
from .gap_spectrum import (APUnionSpec, CircularSet, CollisionError,
                           _distinct_gap_count, ap_union_gap_check,
                           arc_counting_diagnostic, fractional_orbit,
                           gap_bound_check, greedy_max_distinct, greedy_target,
                           sumset_size, three_gap_check)
from .generator_decomposition import verify_generation
from .nn_census import (PointCloud, _census_rows, extract_core,
                        gram_kissing_check, hexagon_gram, kissing_check,
                        kronecker_census, max_ball_depth, pentagon_cloud,
                        tightness_example)
from .sumset_engine import EXACT_LIMIT, FiniteExactSet, minimal_difference_cover, sumset


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    summary: str
    details: Dict[str, object]
    elapsed: float

    @property
    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} [{self.name}] {self.summary}"


def _rng(seed: int, check: str, trial) -> random.Random:
    return random.Random(f"{seed}:{check}:{trial}")


def _coprime_from(rng: random.Random, q: int) -> int:
    p = rng.randrange(1, q)
    while gcd(p, q) != 1:
        p += 1
    return p


def check_three_gap(seed: int = 0, trials: int = 500) -> CheckResult:
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
    elapsed = time.perf_counter() - t0
    passed = failures == 0 and elapsed < 60.0
    return CheckResult(
        "three-gap", passed,
        f"{trials} orbit spectra within reference distances, n up to {max_n}, "
        f"{elapsed:.1f}s (budget 60s)",
        {"trials": trials, "failures": failures, "budget_s": 60.0}, elapsed)


def check_ap_union(seed: int = 0, trials: int = 200) -> CheckResult:
    """Unions of up to five shifted progressions never exceed 3k gaps."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "ap-union", failures == 0,
        f"{trials} progression unions within 3k gaps ({retries} colliding draws "
        f"resampled), {elapsed:.1f}s",
        {"trials": trials, "failures": failures, "retries": retries}, elapsed)


def check_greedy_gaps(seed: int = 0, trials_per_n: int = 5) -> CheckResult:
    """Greedy subsets of seeded orbits hit the distinct-gap target and bound."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    summary = "; ".join(
        f"n={n}: greedy gaps {min(v)}..{max(v)} vs target {greedy_target(n)}"
        for n, v in achieved.items())
    return CheckResult(
        "greedy-gaps", not failures,
        f"{summary}; doubling exact at 2n-1; {elapsed:.1f}s",
        {"achieved": achieved, "failures": failures}, elapsed)


def _arc_index(pos: int, total: int, k: int) -> int:
    floor = total // k
    oversized = total % k
    head = oversized * (floor + 1)
    if pos < head:
        return pos // (floor + 1)
    return oversized + (pos - head) // floor


def check_arc_count(seed: int = 0, trials: int = 100) -> CheckResult:
    """Arc-partition pair counts stay between their lower and upper bounds."""
    t0 = time.perf_counter()
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
        # independent pair recount from sorted sums and witness gap indices
        sums = sorted(p.value for p in
                      sumset(a.to_exact_set(), b.to_exact_set()).elements)
        pos = {v: i for i, v in enumerate(sums)}
        total = len(sums)
        pairs = 0
        avals = [p.value for p in a.points]
        for j in rep.witness_indices:
            u = avals[j]
            v = avals[(j + 1) % len(avals)]
            for bp in b.points:
                pu = pos[(u + bp.value) % 1]
                pv = pos[(v + bp.value) % 1]
                if _arc_index(pu, total, k) == _arc_index(pv, total, k):
                    pairs += 1
        ok = (rep.passed and pairs == rep.pair_count
              and rep.lower <= rep.pair_count <= rep.upper)
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "arc-count", failures == 0,
        f"{trials} arc partitions: recounted pairs match and sit in "
        f"[lower, upper], {elapsed:.1f}s",
        {"trials": trials, "failures": failures}, elapsed)


def check_generators(seed: int = 0, trials: int = 50) -> CheckResult:
    """Every difference decomposes over both neighbour-gap families."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    biggest = max(sizes)
    return CheckResult(
        "generators", failures == 0,
        f"{trials} covers decompose all differences both ways with the span "
        f"oracle agreeing, largest |B|={biggest[0]}, {elapsed:.1f}s",
        {"trials": trials, "failures": failures, "sizes": sizes[:10]}, elapsed)


def check_forced_cover(seed: int = 0) -> CheckResult:
    """The mirrored seed block is forced into every difference cover."""
    t0 = time.perf_counter()
    failures = []
    rows = {}
    for n in (10, 16, 20, 40):
        s = exact_ap_free(n)
        rep = build_cover_forcing_set(n, s)
        exact_expected = n <= EXACT_LIMIT
        ok = (rep.passed
              and len(rep.points) == n
              and rep.sumset_size <= 10 * n
              and all(c == 1 for c in rep.representation_counts.values())
              and rep.forced_block_in_cover
              and (not exact_expected or
                   (rep.cover_exact and len(rep.cover) >= len(rep.seed))))
        rows[n] = {"size": len(rep.points), "doubling": rep.sumset_size,
                   "cover": len(rep.cover), "exact": rep.cover_exact}
        if not ok:
            failures.append(n)
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "forced-cover", not failures,
        "mirror block forced, unique representations, doubling below 10n "
        f"for n in (10, 16, 20, 40), {elapsed:.1f}s",
        {"rows": rows, "failures": failures}, elapsed)


def check_kronecker(seed: int = 0, trials_per_d: int = 20,
                    n: int = 10 ** 4) -> CheckResult:
    """Orbit censuses stay inside the sorted-norm prefix, size at most 2*ell."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    ratio_txt = ", ".join(
        f"d={d}: {min(v):.2f}..{max(v):.2f}" for d, v in ratios.items())
    return CheckResult(
        "kronecker", not failures,
        f"{4 * trials_per_d} orbit censuses contained with |D| <= 2*ell; |D|/(4/3)^d {ratio_txt}; "
        f"{ties} norm ties observed; {elapsed:.1f}s",
        {"failures": failures, "ratios": ratios, "ties": ties}, elapsed)


def check_kissing(seed: int = 0, trials: int = 200) -> CheckResult:
    """Dominance families cap at 2 on the circle and 6 on the 2-torus."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "kissing", not problems,
        "circle families cap at 2, torus families reach 6 (five rational "
        "points plus the Gram certificate) and every 7-point family fails, "
        f"{elapsed:.1f}s",
        {"problems": problems}, elapsed)


def check_extract_core(seed: int = 0) -> CheckResult:
    """Square-block clouds pass tightness (census >= m, read from its report)
    and every verdict of core extraction (size, census and ball depth)."""
    t0 = time.perf_counter()
    failures = []
    rows = {}
    for m in (3, 5, 8):
        tight = tightness_example(m)
        kappa = max_ball_depth(tight.cloud, tight.cloud).kappa_hat
        trace = extract_core(tight.cloud, tight.cloud, tight.epsilon, kappa=kappa)
        rows[m] = {
            "cloud": tight.size, "doubling": tight.sumset_size,
            "census": tight.census_size, "core": len(trace.core),
            "core_census": trace.core_census_size, "bound": trace.census_bound,
            "rounds": trace.rounds, "upper_estimate": tight.upper_estimate,
            "m_log_2m": m * log(2 * m),
        }
        if not (tight.passed and trace.passed):
            failures.append(m)
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "extract-core", not failures,
        "square-block clouds: census >= m, doubling < 4m^2, extracted core "
        f"large with census within rounds*l, {elapsed:.1f}s",
        {"rows": rows, "failures": failures}, elapsed)


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
    return PointCloud._from_rows(list(rows), q)


def check_sumset_performance(seed: int = 0, clouds: int = 200) -> CheckResult:
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
    big_elapsed = time.perf_counter() - t0
    t1 = time.perf_counter()
    mismatches = 0
    for t in range(clouds):
        cloud = _census_cloud(seed, t)
        # a report is one function of its rows and cloud: equal rows, equal reports
        if _census_rows(cloud, "brute")[1] != _census_rows(cloud, "grid")[1]:
            mismatches += 1
    cloud_elapsed = time.perf_counter() - t1
    passed = big_elapsed < 10.0 and mismatches == 0
    return CheckResult(
        "sumset-performance", passed,
        f"10^5 x 10^5 integer sumset of size {len(s)} in {big_elapsed:.2f}s "
        f"(budget 10s); grid census bit-identical to brute on {clouds} clouds "
        f"in {cloud_elapsed:.1f}s",
        {"sumset_size": len(s), "big_elapsed_s": big_elapsed,
         "mismatches": mismatches}, big_elapsed + cloud_elapsed)


CHECKS: Dict[str, Callable[..., CheckResult]] = {
    "three-gap": check_three_gap,
    "ap-union": check_ap_union,
    "greedy-gaps": check_greedy_gaps,
    "arc-count": check_arc_count,
    "generators": check_generators,
    "forced-cover": check_forced_cover,
    "kronecker": check_kronecker,
    "kissing": check_kissing,
    "extract-core": check_extract_core,
    "sumset-performance": check_sumset_performance,
}


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
