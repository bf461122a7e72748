"""Writing every difference of a circular set as a sum of neighbour gaps.

Given B on the circle and C inside B with C - B = B - B, each c in C has a
predecessor gap (c - b_c^-) and a successor gap (b_c^+ - c).  Every element
of B - B, read as an anticlockwise arc length, is a finite sum of predecessor
gaps, and also a finite sum of successor gaps.  The construction mirrors the
arc-subdivision argument: realize the target as an arc from some b to some c
via the cover premise, split it at the B-points it contains into single
B-gaps, and keep re-realizing those gaps until each is a neighbour gap of C.

The successor-gap side is the predecessor-gap side on the reflected circle
x -> -x, so one engine serves both orientations.  An independent span
oracle confirms every membership, so the constructive certificates never
check themselves; it works on ints over its coins' common denominator, by
a dynamic program or, past its size limit, a budgeted breadth-first search.

The engines run on integer residues mod q, the common denominator of B:
witness tables, gap tilings, both gap families, coin sets, the oracles'
coins and every check are numpy arrays, with dtype from
exact_torus.int_dtype (values below 2q), or Python ints.  Each witness
table comes from one exact_torus.stable_sort of its c-major difference
table.  Fractions appear only in reports: the gap families, mismatches,
certificate parts, subdivision trees and error messages.  Of B's points,
only the two neighbours of each c are lifted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, Optional, Tuple

import numpy as np

from .exact_torus import (Cleared, TorusPoint, as_rational, common_scale, int_dtype,
                          lowest_terms, residue_over, residues, run_starts, sorted_unique,
                          stable_sort)
from .gap_spectrum import CircularSet, SubsetViolationError, TooFewPointsError


class PremiseViolationError(ValueError):
    """C - B = B - B fails; a missing difference is named."""


class NonMemberTargetError(ValueError):
    """The requested target is not an element of B - B."""


class OracleScaleError(ValueError):
    """The membership oracle cannot run within its budget on this instance."""


class Side(str, Enum):
    MINUS = "minus"
    PLUS = "plus"


@dataclass(frozen=True)
class GeneratorReport:
    """The neighbour gaps of C in B, with the neighbour map itself."""

    c_points: tuple
    r_minus: tuple
    r_plus: tuple
    neighbours: dict


@dataclass(frozen=True)
class DecompositionCertificate:
    """One target of B - B written as an exact sum of neighbour gaps.

    parts is the multiset of gap values (descending); tree is the nested
    subdivision record behind it, with witnesses in original coordinates.
    """

    target: Fraction
    side: Side
    parts: tuple
    tree: dict

    def total(self) -> Fraction:
        return sum(self.parts, Fraction(0))


class _OrientedEngine:
    """Predecessor-gap decomposition machinery for one orientation of B, C.

    B is held as its residues mod q in canonical order and C as positions
    into them; witnesses, gaps and decompositions are residues and
    positions too.  reflect marks the orientation x -> -x, whose points
    the subdivision tree reports back in original coordinates.
    """

    def __init__(self, res: np.ndarray, c_pos: np.ndarray, q: int, reflect: bool):
        self.q = q
        self.n = n = len(res)
        self.points = res.tolist()
        self.reflect = reflect
        gaps = (np.roll(res, -1) - res) % q
        self.gap_after = gaps.tolist()
        self._gaps_twice = self.gap_after * 2
        self.prefix = np.concatenate((np.zeros(1, dtype=res.dtype), np.cumsum(gaps)))
        # Smallest c in canonical order witnessing each difference as c - b:
        # the table is c-major, so a stable sort puts first occurrences first.
        values, order = stable_sort((res[c_pos][:, None] - res[None, :]) % q)
        first = run_starts(values)
        self.keys = values[first]
        first = order[first]
        self.wit_c = c_pos[first // n]
        self.wit_b = first % n
        self._gap_witness: Dict[int, Tuple[int, int]] = {}
        self._gap_parts: Optional[Dict[int, Counter]] = None

    def witness(self, value: int) -> Tuple[int, int]:
        """Positions (i_c, i_b) of the witness of a difference that has one."""
        w = self._gap_witness.get(value)
        if w is None:
            k = int(np.searchsorted(self.keys, value))
            w = int(self.wit_c[k]), int(self.wit_b[k])
        return w

    def arc_length(self, i_from, i_to):
        """Anticlockwise arc between positions (scalars or arrays), from prefix sums."""
        return (self.prefix[i_to] - self.prefix[i_from]) % self.q

    def pieces(self, i_b: int, i_c: int) -> list:
        """Single B-gaps tiling the anticlockwise arc from position i_b to i_c."""
        return self._gaps_twice[i_b:i_b + (i_c - i_b) % self.n]

    def _tile(self, table: Dict[int, Counter], i_b: int, i_c: int) -> Counter:
        acc: Counter = Counter()
        for piece, mult in Counter(self.pieces(i_b, i_c)).items():
            for part, m in table[piece].items():
                acc[part] += mult * m
        return acc

    def gap_parts(self) -> Dict[int, Counter]:
        """Decomposition of every single B-gap value into predecessor gaps.

        Gaps are processed in increasing order: a non-terminal gap splits
        into at least two strictly smaller gaps, so every piece is already
        decomposed when needed.
        """
        if self._gap_parts is not None:
            return self._gap_parts
        distinct = sorted(set(self.gap_after))
        k = np.searchsorted(self.keys, distinct)
        self._gap_witness = dict(zip(distinct, zip(self.wit_c[k].tolist(),
                                                   self.wit_b[k].tolist())))
        table: Dict[int, Counter] = {}
        for g in distinct:
            i_c, i_b = self._gap_witness[g]
            if (i_c - i_b) % self.n == 1:
                table[g] = Counter({g: 1})
            else:
                table[g] = self._tile(table, i_b, i_c)
        self._gap_parts = table
        return table

    def decompose_value(self, target: int) -> Counter:
        if target == 0:
            return Counter()
        table = self.gap_parts()
        i_c, i_b = self.witness(target)
        return self._tile(table, i_b, i_c)

    def subdivision_tree(self, target: int) -> dict:
        """Nested arc-subdivision record; points reported in original coordinates.

        Built with an explicit stack, since the nesting depth can reach the
        number of distinct gaps.
        """
        if target == 0:
            return {"arc": "0", "pieces": []}
        self.gap_parts()
        q, n, points = self.q, self.n, self.points
        shown: Dict[int, str] = {}

        def show(v: int) -> str:
            text = shown.get(v)
            if text is None:
                text = shown[v] = str(Fraction(v, q))
            return text

        root: dict = {}
        stack = [(target, root)]
        while stack:
            value, entry = stack.pop()
            i_c, i_b = self.witness(value)
            c, b = points[i_c], points[i_b]
            if self.reflect:
                c, b = -c % q, -b % q
            entry.update(arc=show(value), c=show(c), b=show(b))
            if (i_c - i_b) % n == 1:
                entry["generator"] = True
                continue
            pieces = self.pieces(i_b, i_c)
            entry["pieces"] = [{} for _ in pieces]
            stack.extend(zip(pieces, entry["pieces"]))
        return root


class _Instance:
    """Both orientations of one (B, C) pair, premise-checked, on residues mod q."""

    def __init__(self, b: CircularSet, c: CircularSet):
        if len(b) < 2:
            raise TooFewPointsError("B needs at least two points")
        if not c.issubset(b):
            raise SubsetViolationError("C must be a subset of B")
        (res_b, res_c), q = common_scale(b._residues, c._residues)
        # lowest terms: q becomes the lcm of B's denominators, C lying in B
        g = gcd(q, int(np.gcd.reduce(res_b)))
        q //= g
        # differences and prefix sums of residues stay below 2q in absolute value
        res, res_c = ((r // g).astype(int_dtype(2 * q)) for r in (res_b, res_c))
        c_pos = np.searchsorted(res, res_c)
        self.q = q
        self.c_pos = c_pos
        self.minus = _OrientedEngine(res, c_pos, q, reflect=False)
        self.universe = sorted_unique(((res[:, None] - res[None, :]) % q).ravel())
        # C lies in B, so the witnessed differences C - B lie in B - B
        if len(self.minus.keys) != len(self.universe):
            missing = Fraction(int(np.setdiff1d(self.universe, self.minus.keys)[0]), q)
            raise PremiseViolationError(
                f"C - B misses the difference {missing}; C - B = B - B is required")
        reflect = np.sort(-res % q)
        reflect_c = np.sort(np.searchsorted(reflect, -res[c_pos] % q))
        self.plus = _OrientedEngine(reflect, reflect_c, q, reflect=True)

    def engine(self, side: Side) -> _OrientedEngine:
        return self.minus if Side(side) is Side.MINUS else self.plus

    def gap_families(self) -> Tuple[list, list]:
        """R- and R+ over q, each ascending and distinct: the gap before and after each c."""
        gap_after, c_pos = self.minus.gap_after, self.c_pos.tolist()
        # position 0's gap before is the closing gap, gap_after[-1]
        return (sorted({gap_after[i - 1] for i in c_pos}),
                sorted({gap_after[i] for i in c_pos}))

    def member_residue(self, value: Fraction) -> Optional[int]:
        """value * q when value lies in B - B, None otherwise."""
        r = residue_over(value, self.q)
        if r is None:
            return None
        k = int(np.searchsorted(self.universe, r))
        return r if k < len(self.universe) and self.universe[k] == r else None


def neighbour_gaps(b: CircularSet, c: CircularSet) -> GeneratorReport:
    """Predecessor and successor gaps of each c in C, premise-checked.

    R- collects the anticlockwise arc from each c's predecessor to c; R+ the
    arc from c to its successor.  Both are positive arc lengths below 1.
    Each distinct gap is lifted once, and of B only c's two neighbours.
    """
    inst = _Instance(b, c)
    q, res = inst.q, inst.minus.points
    r_minus, r_plus = (tuple(Fraction(g, q) for g in family) for family in inst.gap_families())
    neighbours = {cp: (TorusPoint._from_residue(res[i - 1], q),
                       TorusPoint._from_residue(res[(i + 1) % len(res)], q))
                  for cp, i in zip(c.points, inst.c_pos.tolist())}
    return GeneratorReport(c.points, r_minus, r_plus, neighbours)


def decompose(target, b: CircularSet, c: CircularSet,
              side: Side = Side.MINUS) -> DecompositionCertificate:
    """Write target (an arc length in B - B) as an exact sum of neighbour gaps."""
    side = Side(side)
    inst = _Instance(b, c)
    value = target.value if isinstance(target, TorusPoint) else as_rational(target) % 1
    r = inst.member_residue(value)
    if r is None:
        raise NonMemberTargetError(f"{value} is not an element of B - B")
    engine = inst.engine(side)
    counts = engine.decompose_value(r)
    lifted = {p: Fraction(p, inst.q) for p in counts}
    parts = tuple(lifted[p] for p in sorted(counts.elements(), reverse=True))
    return DecompositionCertificate(value, side, parts, engine.subdivision_tree(r))


def _span_table(coin_ints: tuple, scale: int) -> np.ndarray:
    """Boolean table of the N0-span of the coins over 0..scale (inclusive)."""
    dp = np.zeros(scale + 1, dtype=bool)
    dp[0] = True
    for coin in sorted(set(coin_ints)):
        if coin <= scale and dp[coin]:
            continue  # already in the span, so it adds nothing to it
        # one row per multiple of the coin: accumulating down the columns
        # saturates every residue class in a single pass
        rows = -(-(scale + 1) // coin)
        grid = np.zeros(rows * coin, dtype=bool)
        grid[:scale + 1] = dp
        grid = grid.reshape(rows, coin)
        np.logical_or.accumulate(grid, axis=0, out=grid)
        dp = grid.ravel()[:scale + 1]
    return dp


def _span_members(coins: tuple, cap: int, scale: int) -> np.ndarray:
    """Exact N0-span of positive int coins in 0..scale, ascending; breadth-first, budgeted.

    The smallest coin's multiples alone are floor(scale / coin) + 1 members,
    so a span past the budget on that count fails before any work.
    """
    budget = OracleScaleError(
        f"the exact span over denominator {scale} has more than {cap} members, "
        "past its enumeration budget")
    if coins and scale // min(coins) + 1 > cap:
        raise budget
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in coins:
            y = x + g
            if y <= scale and y not in seen:
                if len(seen) >= cap:
                    raise budget
                seen.add(y)
                frontier.append(y)
    return np.array(sorted(seen), dtype=int_dtype(scale))


class SpanOracle:
    """Membership in the N0-span of a set of positive rational coins.

    The coins come as rationals or as an exact_torus.Cleared of ints over a
    scale, which never builds a Fraction.  The span inside [0, 1] is held as
    ints over the coins' common denominator, scale: a dynamic program's table
    when that is affordable (members, its ascending ints, read off on first
    use), otherwise members from an exact breadth-first enumeration.
    """

    def __init__(self, coins: tuple | Cleared, dp_limit: int = 1 << 24,
                 set_cap: int = 2_000_000):
        if isinstance(coins, Cleared):
            ints, scale = lowest_terms(sorted(set(coins.ints)), coins.scale)
        else:
            ints, scale = residues(sorted(set(coins)))
        if ints and ints[0] <= 0:
            raise ValueError(f"span coins must be positive, got {Fraction(ints[0], scale)}")
        self._ints = tuple(ints)
        self.scale = scale
        if scale <= dp_limit:
            self.table = _span_table(self._ints, scale)
        else:
            self.table = None
            self.members = _span_members(self._ints, set_cap, scale)

    @cached_property
    def coins(self) -> tuple:
        """The distinct coins, ascending, as Fractions."""
        return tuple(Fraction(n, self.scale) for n in self._ints)

    @cached_property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self.table)

    def __contains__(self, x: Fraction) -> bool:
        x = as_rational(x)
        return bool(self.contains_scaled(
            np.array([x.numerator], dtype=int_dtype(abs(x.numerator), x.denominator)),
            x.denominator)[0])

    def contains_scaled(self, ints: np.ndarray, q: int) -> np.ndarray:
        """Membership of each value ints[i] / q, as a boolean array.

        ints is an int64 or object array.  n / q is a multiple of 1 / scale
        exactly when q / gcd(q, scale) divides n; its index over scale is
        then read from the DP table, or searched for in members.
        """
        g = gcd(q, self.scale)
        step = q // g
        on_grid = (ints % step == 0) & (ints >= 0) & (ints <= q)
        index = (np.where(on_grid, ints, 0) // step).astype(int_dtype(self.scale))
        index *= self.scale // g
        if self.table is not None:
            return on_grid & self.table[index.astype(np.intp)]
        k = np.minimum(np.searchsorted(self.members, index), len(self.members) - 1)
        return on_grid & (self.members[k] == index)


def _same_span(a: SpanOracle, b: SpanOracle, q: int) -> bool:
    """Whether two oracles whose scales divide q hold the same span, compared over q.

    Two tables are compared in place: the spans agree when neither has a
    member off the grid of 1/gcd(scale_a, scale_b), read as strided views,
    and the two agree on it.  A breadth-first oracle's members are compared
    over q.
    """
    if a.table is not None and b.table is not None:
        g = gcd(a.scale, b.scale)
        grids = [o.table[::o.scale // g] for o in (a, b)]
        counts = [np.count_nonzero(o.table) for o in (a, b)]
        return counts == [np.count_nonzero(t) for t in grids] and np.array_equal(*grids)
    return np.array_equal(*(o.members.astype(int_dtype(q)) * (q // o.scale) for o in (a, b)))


@dataclass(frozen=True)
class GenerationReport:
    """Outcome of decomposing all of B - B over both neighbour-gap families."""

    b_size: int
    c_size: int
    universe_size: int
    r_minus: tuple
    r_plus: tuple
    decomposed_minus: int
    decomposed_plus: int
    oracle_confirmed: bool
    cross_closure: bool
    spans_agree: bool
    mismatches: tuple
    passed: bool


def verify_generation(b: CircularSet, c: CircularSet) -> GenerationReport:
    """Decompose every element of B - B on both sides and cross-check the oracle.

    For each target: the subdivision pieces must sum to it exactly (checked
    through prefix sums), and the independent span oracle must confirm
    membership over R- and over R+.  The oracle also confirms R- inside
    span(R+) and vice versa, and that the two spans agree below 1.  The gap
    families, coin sets and the oracles' coins are ints over q; only the
    reported families are Fractions.
    """
    inst = _Instance(b, c)
    q, universe = inst.q, inst.universe
    ints_minus, ints_plus = inst.gap_families()
    r_minus, r_plus = (tuple(Fraction(g, q) for g in family)
                       for family in (ints_minus, ints_plus))
    oracle_minus, oracle_plus = (SpanOracle(Cleared(tuple(family), q))
                                 for family in (ints_minus, ints_plus))
    mismatches = []
    done = []
    for side, engine, oracle, coins in ((Side.MINUS, inst.minus, oracle_minus, set(ints_minus)),
                                        (Side.PLUS, inst.plus, oracle_plus, set(ints_plus))):
        for g, counts in engine.gap_parts().items():
            total = sum(part * mult for part, mult in counts.items())
            if total != g or not counts.keys() <= coins:
                mismatches.append((side.value, Fraction(g, q), "gap table"))
        # under the premise every engine's witness table is keyed by B - B
        arc = engine.arc_length(engine.wit_b, engine.wit_c)
        # the first failing check names each rejected target
        failure = np.select([arc != universe, ~oracle.contains_scaled(universe, q)], [1, 2], 0)
        for i in np.flatnonzero(failure).tolist():
            reason = ("arc length", "oracle rejects")[failure[i] - 1]
            mismatches.append((side.value, Fraction(int(universe[i]), q), reason))
        done.append(int(np.count_nonzero(failure == 0)))
    cross = all(oracle.contains_scaled(np.array(family, dtype=universe.dtype), q).all()
                for oracle, family in ((oracle_plus, ints_minus), (oracle_minus, ints_plus)))
    spans_agree = _same_span(oracle_minus, oracle_plus, q)
    done_minus, done_plus = done
    passed = not mismatches and cross and spans_agree and \
        done_minus == len(universe) and done_plus == len(universe)
    return GenerationReport(len(b), len(c), len(universe),
                            r_minus, r_plus,
                            done_minus, done_plus,
                            not mismatches, cross, spans_agree,
                            tuple(mismatches), passed)
