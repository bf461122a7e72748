"""Seeded query passes for the four benchmark workloads.

A workload is a fixed list of queries (one "pass") built from the seed.
Query sizes sit on fixed log-spaced grids, and the parameters that set the
amount of work (denominator ranges, arm counts) are fixed per position, so
every seed asks for about the same work; the seed picks the rotations,
denominators and random points.  That keeps per-seed timings comparable
while the inputs change.

Each query is either a gaplab CLI argv, run in process, or one library call
(``decompose``).  ``check`` returns a problem string or None; it looks only at
the report, verdicts and config, never at ``metrics`` or ``timings``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Query:
    """One benchmark query: a CLI argv, or a library call with its arguments."""

    kind: str
    size: int
    argv: Tuple[str, ...] = ()
    call: Optional[Tuple[Any, ...]] = None
    check: Optional[Callable[[Any], Optional[str]]] = field(default=None, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[int, bool], List[Query]]
    warmups: Callable[[], List[Query]]

    def build(self, seed: int, toy: bool = False) -> List[Query]:
        """The pass for this seed, in a seeded order, so that a partly
        repeated pass repeats queries of every size."""
        queries = self.make(seed, toy)
        random.Random(f"{seed}:{self.name}:order").shuffle(queries)
        return queries


def _log_grid(lo: float, hi: float, count: int) -> List[int]:
    """Stratum midpoints of a log-uniform range: count sizes from lo to hi."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]


def _coprime(rng: random.Random, q: int) -> int:
    p = rng.randrange(1, q)
    while gcd(p, q) != 1:
        p += 1
    return p


def _alpha(rng: random.Random, lo: int, hi: int) -> str:
    """p/q with q drawn from [lo, hi) and p coprime to q."""
    q = rng.randrange(lo, hi)
    return f"{_coprime(rng, q)}/{q}"


def _primes(limit: int) -> List[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\0\0"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i, ok in enumerate(sieve) if ok]


_SMALL_PRIMES = [p for p in _primes(1000) if p > 100]


def _rationals(values: Sequence[int], q: int, sep: str = ",") -> str:
    return sep.join(f"{v}/{q}" for v in values)


def _points_arg(points: Sequence[Sequence[int]], q: int) -> str:
    return ";".join(",".join(f"{v}/{q}" for v in p) for p in points)


def _expect(test: Callable[[Dict[str, Any]], bool], what: str):
    def check(payload: Dict[str, Any]) -> Optional[str]:
        return None if test(payload) else what
    return check


# ---------------------------------------------------------------- orbits

def _orbit_queries(seed: int, toy: bool) -> List[Query]:
    rng = random.Random(f"{seed}:orbits")
    commands = ("gaps", "orbit", "greedy", "ap-union")
    sizes = _log_grid(20, 200, 8) if toy else _log_grid(1000, 20_000, 32)
    out = []
    for i, n in enumerate(sizes):
        cmd = commands[i % len(commands)]
        if cmd == "greedy":
            alpha = _alpha(rng, 4 * n + 1, 50 * n)
        else:
            alpha = _alpha(rng, n + 1, 10 * n + 1)
        if cmd == "ap-union":
            # Offsets b/Q over distinct primes Q coprime to q keep the arms
            # disjoint: each arm's points carry their own prime denominator.
            q = int(alpha.split("/")[1])
            k = 1 + (i // len(commands)) % 5
            primes = rng.sample([p for p in _SMALL_PRIMES if q % p], k - 1)
            betas = ["0"] + [f"{rng.randrange(1, p)}/{p}" for p in primes]
            cuts = sorted(rng.sample(range(1, n), k - 1))
            lengths = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            argv = ("ap-union", "--alpha", alpha, "--betas", ",".join(betas),
                    "--lengths", ",".join(map(str, lengths)))
            check = _expect(lambda p, n=n: p["report"]["total_points"] == n,
                            "ap-union point count")
        else:
            argv = (cmd, "--alpha", alpha, "--n", str(n))
            if cmd == "orbit":
                check = _expect(lambda p, n=n: len(p["report"]["points"]["points"]) == n,
                                "orbit size")
            elif cmd == "gaps":
                check = _expect(lambda p: len(p["report"]["distinct_gaps"]) <= 3,
                                "more than three gaps")
            else:
                check = _expect(lambda p: len(p["verdicts"]) == 3, "greedy verdicts")
        out.append(Query(cmd, n, argv, check=check))
    return out


def _orbit_warmups() -> List[Query]:
    return [Query("gaps", 5, ("gaps", "--alpha", "5/8", "--n", "4")),
            Query("orbit", 5, ("orbit", "--alpha", "89/144", "--n", "21")),
            Query("greedy", 5, ("greedy", "--alpha", "89/144", "--n", "21")),
            Query("ap-union", 5, ("ap-union", "--alpha", "7/1003", "--betas", "0,1/3",
                                  "--lengths", "5,4"))]


# ---------------------------------------------------------------- census

_CENSUS_Q = (997, 4096, 65536, 10 ** 6 + 3)


def _cloud(rng: random.Random, n: int, d: int, q: int) -> List[Tuple[int, ...]]:
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randrange(q) for _ in range(d)))
    return sorted(pts)


def _census_queries(seed: int, toy: bool) -> List[Query]:
    rng = random.Random(f"{seed}:census")
    out = []
    sizes = (20, 40) if toy else (300, 500, 2000, 5000)
    # n = 5000 stays at d <= 2: d = 3 and 4 cost 2 s and 4 s a query, which
    # would leave a run too few repeats of each query to be steady
    cells = [(n, d) for n in sizes for d in (1, 2, 3, 4) if n < 5000 or d <= 2]
    for i, (n, d) in enumerate(cells):
        # Every seed uses the same q for an (n, d) cell, so only the points
        # change; q**d >= 2n leaves room for n distinct points.
        allowed = [q for q in _CENSUS_Q if q ** d >= 2 * n]
        q = allowed[(i + d) % len(allowed)]
        argv = ("nn-census", "--points", _points_arg(_cloud(rng, n, d, q), q),
                "--method", "auto")
        check = _expect(lambda p, n=n: len(p["report"]["records"]) == n,
                        "one record per point")
        out.append(Query("nn-census", n, argv, check=check))
    kron_n = 200 if toy else 10 ** 4
    for d in (1, 2, 3, 4):
        alphas = []
        for _ in range(d):
            q = rng.randrange(kron_n + 1, 20 * kron_n) | 1
            alphas.append(f"{_coprime(rng, q)}/{q}")
        argv = ("kronecker", "--alphas", ",".join(alphas), "--n", str(kron_n))
        check = _expect(lambda p, n=kron_n: p["report"]["n"] == n, "orbit length")
        out.append(Query("kronecker", kron_n, argv, check=check))
    for m in ((3, 4) if toy else range(3, 8)):
        out.append(Query("tightness", m, ("tightness", "--m", str(m)),
                         check=_expect(lambda p, m=m: p["report"]["m"] == m, "m echo")))
        out.append(Query("extract-core", m, ("extract-core", "--m", str(m)),
                         check=_expect(lambda p: len(p["verdicts"]) == 3, "core verdicts")))
    for _ in range(4):
        # opposite points within 1/4 of zero dominate each other's norms
        q = rng.randrange(8, 4000)
        u = rng.randrange(1, q // 4 + 1)
        v = q - rng.randrange(1, q // 4 + 1)
        argv = ("kissing", "--vectors", f"{u}/{q};{v}/{q}")
        out.append(Query("kissing", 2, argv,
                         check=_expect(lambda p: p["report"]["count"] == 2, "pair count")))
    return out


def _census_warmups() -> List[Query]:
    return [Query("nn-census", 3, ("nn-census", "--points", "0,0;1/7,0;3/7,1/2")),
            Query("kronecker", 4, ("kronecker", "--alphas", "5/8", "--n", "4")),
            Query("tightness", 3, ("tightness", "--m", "3")),
            Query("extract-core", 3, ("extract-core", "--m", "3")),
            Query("kissing", 2, ("kissing", "--vectors", "1/8;7/8"))]


# ---------------------------------------------------------------- covers

def _random_circle_set(rng: random.Random, size: int) -> Tuple[List[int], int]:
    # B - B has up to q elements, so a narrow range of q keeps the work per
    # query alike across seeds
    q = rng.randrange(45_000, 50_001)
    return sorted(rng.sample(range(q), size)), q


def _decompose_batch(rng: random.Random, size: int, targets: int) -> List[Query]:
    from gaplab.gap_spectrum import CircularSet
    from gaplab.sumset_engine import difference_set, minimal_difference_cover

    vals, q = _random_circle_set(rng, size)
    b = CircularSet.from_values([Fraction(v, q) for v in vals])
    cover = minimal_difference_cover(b.to_exact_set())
    c = CircularSet.from_values([p.value for p in cover.cover])
    universe = difference_set(b.to_exact_set(), b.to_exact_set()).elements
    out = []
    for t in rng.sample(universe, targets):
        # the certificate's parts must add up to the target, exactly
        check = _expect(lambda cert, t=t.value: sum(
            (Fraction(x) for x in cert["parts"]), Fraction(0)) == t,
            "parts do not sum to the target")
        out.append(Query("decompose", size, call=(t.value, b, c), check=check))
    return out


def _cover_queries(seed: int, toy: bool) -> List[Query]:
    rng = random.Random(f"{seed}:covers")
    out = []
    ranges = ((8, 12, 4), (30, 40, 2)) if toy else ((8, 24, 8), (60, 400, 8))
    for lo, hi, count in ranges:
        for i, size in enumerate(_log_grid(lo, hi, count)):
            cmd = ("cover", "generators")[i % 2]
            vals, q = _random_circle_set(rng, size)
            argv = (cmd, "--points", _rationals(vals, q, sep=";"))
            if cmd == "cover":
                check = _expect(lambda p: p["verdicts"][0]["passed"], "cover invalid")
            else:
                check = _expect(lambda p: p["report"]["passed"], "generation failed")
            out.append(Query(cmd, size, argv, check=check))
    for n in ((10, 16) if toy else (10, 16, 20, 40)):
        out.append(Query("forced-cover", n, ("forced-cover", "--n", str(n)),
                         check=_expect(lambda p, n=n: len(p["report"]["points"]) == n,
                                       "forced-cover size")))
    primes = [p for p in _SMALL_PRIMES if p > 30]
    for side in _log_grid(5, 30, 2 if toy else 4):
        # distinct prime denominators above the box side cannot collide
        q1, q2 = rng.sample(primes, 2)
        box = (side, rng.randrange(5, side + 1))
        argv = ("lattice", "--alphas", f"{_coprime(rng, q1)}/{q1},{_coprime(rng, q2)}/{q2}",
                "--box", f"{box[0]},{box[1]}")
        out.append(Query("lattice", box[0] * box[1], argv,
                         check=_expect(lambda p, k=box[0] * box[1]:
                                       len(p["report"]["points"]["points"]) == k,
                                       "lattice size")))
    for n in _log_grid(1000, 20_000, 2 if toy else 4):
        out.append(Query("behrend", n, ("behrend", "--n", str(n)),
                         check=_expect(lambda p, n=n: max(p["report"]["points"]) <= n,
                                       "behrend range")))
    out.extend(_decompose_batch(rng, 12 if toy else 100, 2 if toy else 8))
    return out


def _cover_warmups() -> List[Query]:
    # forced-cover at the largest n fills the exact AP-free table once
    return [Query("cover", 8, ("cover", "--alpha", "7/41", "--n", "8")),
            Query("generators", 8, ("generators", "--alpha", "7/41", "--n", "8")),
            Query("forced-cover", 40, ("forced-cover", "--n", "40")),
            Query("lattice", 16, ("lattice", "--alphas", "5/101,23/101", "--box", "4,4")),
            Query("behrend", 300, ("behrend", "--n", "300"))]


# ---------------------------------------------------------------- sumsets

def _sumset_queries(seed: int, toy: bool) -> List[Query]:
    rng = random.Random(f"{seed}:sumsets")
    count = 2 if toy else 6
    scale = 20 if toy else 1
    span = 1 << (14 if toy else 20)
    # (kind, domain, size range): each integer kind lands on one
    # _pairsums_int path; rationals and torus clear a common denominator.
    plan = (("dense", "integers", 2000, 20_000),
            ("outer", "integers", 300, 1200),
            ("hash", "integers", 200, 1000),
            ("rationals", "rationals", 200, 1000),
            ("torus", "torus", 200, 800))
    out = []
    for kind, domain, lo, hi in plan:
        for size in _log_grid(lo // scale, hi // scale, count):
            if kind == "dense":
                base = rng.randrange(1 << 40)
                vals = sorted(rng.sample(range(base, base + span), size))
                text = ",".join(map(str, vals))
            elif kind == "outer":
                text = ",".join(map(str, sorted(rng.sample(range(1 << 40), size))))
            elif kind == "hash":
                vals = set()
                while len(vals) < size:
                    vals.add(rng.randrange(1 << 70, 1 << 71))
                text = ",".join(map(str, sorted(vals)))
            else:
                q = rng.randrange(900_000, 1_000_000)
                text = _rationals(sorted(rng.sample(range(q), size)), q)
            argv = ("sumset", "--a", text, "--domain", domain)
            out.append(Query(f"sumset-{kind}", size, argv,
                             check=_expect(lambda p: p["verdicts"] == [], "sumset verdicts")))
    return out


def _sumset_warmups() -> List[Query]:
    return [Query("sumset-torus", 3, ("sumset", "--a", "0,1/8,1/2", "--b", "1/4,3/8")),
            Query("sumset-integers", 3, ("sumset", "--a", "1,2,5", "--domain", "integers")),
            Query("sumset-rationals", 3, ("sumset", "--a", "1/2,1/3", "--domain",
                                          "rationals"))]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("orbits",
             "Fraction orbits and gap spectra dominate, with orbit payloads near 1 MB; "
             "nn_census never runs, so it is the no-change control for the census kernel",
             _orbit_queries, _orbit_warmups),
    Workload("census",
             "nn_census brute and grid kernels on both sides of auto's n=512 switch, "
             "Kronecker orbits and core extraction, with MB point lists and records",
             _census_queries, _census_warmups),
    Workload("covers",
             "cover branch and bound, greedy covers and generator decomposition with KB "
             "payloads; decompose rebuilds its instance for every target",
             _cover_queries, _cover_warmups),
    Workload("sumsets",
             "bulk pair sums on the dense, outer and hash paths plus rational and torus "
             "lifts, with no census and no cover search",
             _sumset_queries, _sumset_warmups),
)}
