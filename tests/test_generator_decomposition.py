"""Decomposition of differences over neighbour gaps, with the span oracle."""

import random
import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import generator_decomposition as gd
from gaplab.exact_torus import Cleared, as_rational, residues
from gaplab.gap_spectrum import CircularSet, SubsetViolationError, fractional_orbit
from gaplab.generator_decomposition import (NonMemberTargetError,
                                            OracleScaleError,
                                            PremiseViolationError, Side,
                                            SpanOracle, _Instance, _same_span,
                                            _span_members, _span_table,
                                            decompose, neighbour_gaps,
                                            verify_generation)
from gaplab.sumset_engine import difference_set, minimal_difference_cover

from conftest import int_array


def tenths(*nums):
    return CircularSet.from_values([Fraction(n, 10) for n in nums])


def test_neighbour_gaps_of_worked_pair():
    b = tenths(0, 1, 2, 3)
    c = tenths(0, 3)
    rep = neighbour_gaps(b, c)
    assert rep.r_minus == (Fraction(1, 10), Fraction(7, 10))
    assert rep.r_plus == (Fraction(1, 10), Fraction(7, 10))


def test_decompose_both_sides():
    b = tenths(0, 1, 2, 3)
    c = tenths(0, 3)
    for side in (Side.MINUS, Side.PLUS):
        cert = decompose(Fraction(9, 10), b, c, side)
        assert cert.parts == (Fraction(7, 10), Fraction(1, 10), Fraction(1, 10))
        assert cert.total() == Fraction(9, 10)


def test_certificate_tree_arcs_are_consistent():
    b = tenths(0, 1, 2, 3)
    c = tenths(0, 3)
    cert = decompose(Fraction(9, 10), b, c, Side.MINUS)

    def walk(node):
        arc = Fraction(node["arc"])
        if node.get("generator"):
            return arc
        pieces = [walk(child) for child in node["pieces"]]
        assert sum(pieces, Fraction(0)) == arc
        return arc

    assert walk(cert.tree) == Fraction(9, 10)


def test_zero_decomposes_empty():
    b = tenths(0, 1, 2, 3)
    c = tenths(0, 3)
    cert = decompose(Fraction(0), b, c, Side.MINUS)
    assert cert.parts == ()
    assert cert.total() == 0


def test_non_member_target_rejected():
    b = tenths(0, 1, 2, 3)
    c = tenths(0, 3)
    with pytest.raises(NonMemberTargetError):
        decompose(Fraction(1, 2), b, c, Side.MINUS)


def test_premise_violation_names_a_missing_difference():
    b = tenths(0, 1, 2, 3)
    c = tenths(0)
    with pytest.raises(PremiseViolationError):
        neighbour_gaps(b, c)


def test_cover_must_be_subset():
    b = tenths(0, 1, 2, 3)
    c = CircularSet.from_values([Fraction(1, 2)])
    with pytest.raises(SubsetViolationError):
        neighbour_gaps(b, c)


def test_span_oracle_membership():
    oracle = SpanOracle((Fraction(3, 10),))
    members = {Fraction(0), Fraction(3, 10), Fraction(3, 5), Fraction(9, 10)}
    for k in range(10):
        v = Fraction(k, 10)
        assert (v in oracle) == (v in members)


def test_span_oracle_members_match_fractions():
    oracle = SpanOracle((Fraction(1, 6), Fraction(1, 4)))
    fr = {Fraction(a, 6) + Fraction(b, 4) for a in range(7) for b in range(5)}
    assert oracle.scale == 12
    assert {Fraction(int(n), 12) for n in oracle.members} == {x for x in fr if x <= 1}
    assert Fraction(1, 6) + Fraction(1, 4) in oracle


def test_span_oracle_scale_cap():
    huge = Fraction(1, (1 << 25) + 1)
    with pytest.raises(OracleScaleError):
        SpanOracle((huge,), dp_limit=1 << 20, set_cap=1000)


@pytest.mark.parametrize("coins", [(Fraction(0), Fraction(1, 3)), (Fraction(-1, 3),),
                                   (Fraction(1, 2), Fraction(-1, 5))],
                         ids=["zero", "negative", "one-negative"])
@pytest.mark.parametrize("dp_limit", [None, 1], ids=["dp", "bfs"])
def test_span_oracle_rejects_a_coin_that_is_not_positive_on_both_paths(coins, dp_limit):
    # before either path runs: one plain ValueError naming the smallest coin
    kwargs = {} if dp_limit is None else {"dp_limit": dp_limit}
    with pytest.raises(ValueError) as err:
        SpanOracle(coins, **kwargs)
    assert type(err.value) is ValueError
    assert str(err.value) == f"span coins must be positive, got {min(coins)}"


def test_full_verification_of_worked_pair():
    b = tenths(0, 1, 2, 3)
    c = tenths(0, 3)
    rep = verify_generation(b, c)
    assert rep.passed
    assert rep.decomposed_minus == rep.universe_size
    assert rep.decomposed_plus == rep.universe_size
    assert rep.spans_agree
    assert rep.mismatches == ()


def test_identity_cover_always_works():
    b = fractional_orbit(Fraction(7, 41), 8)
    rep = verify_generation(b, b)
    assert rep.passed


def test_randomized_instances_with_minimal_covers():
    rng = random.Random(13)
    for _ in range(8):
        q = rng.randrange(12, 60)
        n = rng.randrange(4, min(12, q))
        vals = sorted(rng.sample(range(q), n))
        b = CircularSet.from_values([Fraction(v, q) for v in vals])
        cov = minimal_difference_cover(b.to_exact_set())
        c = CircularSet.from_values([p.value for p in cov.cover])
        rep = verify_generation(b, c)
        assert rep.passed, (q, vals)
        assert rep.cross_closure and rep.spans_agree


def test_plus_side_mirrors_minus_side_of_reflection():
    rng = random.Random(21)
    q = 37
    vals = sorted(rng.sample(range(q), 7))
    b = CircularSet.from_values([Fraction(v, q) for v in vals])
    cov = minimal_difference_cover(b.to_exact_set())
    c = CircularSet.from_values([p.value for p in cov.cover])
    rep = neighbour_gaps(b, c)
    refl_b = CircularSet.from_values([(-p.value) % 1 for p in b.points])
    refl_c = CircularSet.from_values([(-p.value) % 1 for p in c.points])
    mirror = neighbour_gaps(refl_b, refl_c)
    assert rep.r_plus == mirror.r_minus
    assert rep.r_minus == mirror.r_plus


def test_premise_violation_message_names_the_smallest_missing_difference():
    b = tenths(0, 1, 2, 3)
    for c, missing in ((tenths(0), "1/10"), (tenths(3), "7/10"), (tenths(), "0")):
        for entry in (neighbour_gaps, verify_generation, lambda b, c: decompose(0, b, c)):
            with pytest.raises(PremiseViolationError) as err:
                entry(b, c)
            assert str(err.value) == \
                f"C - B misses the difference {missing}; C - B = B - B is required"


@contextmanager
def recursion_allowance(frames):
    """Cap the recursion limit at the current frame depth plus frames."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def tree_depth(node):
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.get("pieces", ()))
    return deepest


def test_deep_subdivision_tree_needs_no_recursion():
    # Block k holds x, x + g(k-1), x + g(k) with g(k) = k + 2.  The smallest
    # witness of g(k) is block k's outer pair, whose arc splits into g(k-1)
    # and 1, so the tree of g(K) nests K + 1 levels deep.
    levels, spacing = 120, 1000
    q = spacing * (levels + 2)
    vals = []
    for k in range(1, levels + 1):
        x = k * spacing
        vals += [x, x + k + 1, x + k + 2]
    b = CircularSet.from_values([Fraction(v, q) for v in vals])
    target = Fraction(levels + 2, q)
    with recursion_allowance(100):
        cert = decompose(target, b, b, Side.MINUS)
    assert tree_depth(cert.tree) == levels + 1
    assert cert.parts == (Fraction(2, q),) + (Fraction(1, q),) * levels
    assert cert.total() == target


def circle_sets(max_q=120, max_size=12):
    return st.integers(6, max_q).flatmap(lambda q: st.lists(
        st.integers(0, q - 1), min_size=2, max_size=min(max_size, q), unique=True
    ).map(lambda vs: CircularSet.from_values([Fraction(v, q) for v in vs])))


def min_cover(b):
    cov = minimal_difference_cover(b.to_exact_set())
    return CircularSet.from_values([p.value for p in cov.cover])


@given(circle_sets())
@settings(max_examples=40, deadline=None)
def test_certificates_are_exact_sums_of_neighbour_gaps(b):
    c = min_cover(b)
    rep = neighbour_gaps(b, c)
    gaps = {Side.MINUS: set(rep.r_minus), Side.PLUS: set(rep.r_plus)}
    universe = difference_set(b.to_exact_set(), b.to_exact_set()).elements
    for target in universe:
        for side in Side:
            cert = decompose(target, b, c, side)
            assert sum(cert.parts, Fraction(0)) == target.value
            assert set(cert.parts) <= gaps[side]
            stack = [cert.tree]
            while stack:
                node = stack.pop()
                if node.get("generator"):
                    assert Fraction(node["arc"]) in gaps[side]
                    continue
                pieces = node["pieces"]
                assert sum((Fraction(p["arc"]) for p in pieces), Fraction(0)) == \
                    Fraction(node["arc"])
                stack.extend(pieces)


# Prime pairs whose products sit just below and just above 2^62, where the
# residue arrays switch from int64 to Python ints.
BELOW_2_62 = (2147483629, 2147483647)
ABOVE_2_62 = (2147483659, 2147483693)


@pytest.mark.parametrize("primes, dtype", [(BELOW_2_62, np.int64), (ABOVE_2_62, object)])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_generation_on_both_sides_of_the_int64_switch(primes, dtype, data):
    size = data.draw(st.integers(2, 5))
    # point i sits in the first half of the i-th of size equal arcs, over
    # alternating prime denominators, so every gap is at least 1/(2 size)
    vals = []
    for i in range(size):
        p = primes[i % 2]
        lo = p * 2 * i // (2 * size) + 1
        vals.append(Fraction(data.draw(st.integers(lo, lo + p // (2 * size) - 2)), p))
    b = CircularSet.from_values(vals)
    c = min_cover(b)
    inst = _Instance(b, c)
    assert inst.q == primes[0] * primes[1]
    assert inst.universe.dtype == dtype
    rep = verify_generation(b, c)
    assert rep.passed and rep.mismatches == ()
    assert rep.decomposed_minus == rep.decomposed_plus == rep.universe_size


@given(st.lists(st.integers(-3, 40), max_size=6), st.integers(1, 30), st.integers(1, 4),
       st.sampled_from([None, 1]))
@settings(max_examples=100, deadline=None)
def test_span_oracle_reads_a_cleared_as_its_fractions(nums, den, factor, dp_limit):
    # the Cleared is unreduced, unsorted and may repeat a coin, as the Fractions may
    kwargs = {} if dp_limit is None else {"dp_limit": dp_limit}
    fractions = tuple(Fraction(n, den) for n in nums)
    cleared = Cleared(tuple(n * factor for n in nums), den * factor)
    if fractions and min(fractions) <= 0:
        for coins in (fractions, cleared):
            with pytest.raises(ValueError) as err:
                SpanOracle(coins, **kwargs)
            assert str(err.value) == f"span coins must be positive, got {min(fractions)}"
        return
    want, got = SpanOracle(fractions, **kwargs), SpanOracle(cleared, **kwargs)
    assert (got.coins, got.scale) == (want.coins, want.scale) == (tuple(sorted(set(fractions))),
                                                                  want.scale)
    assert (got.table is None) is (want.table is None) is (dp_limit is not None and want.scale > 1)
    assert got.members.tolist() == want.members.tolist()


def test_verify_generation_hands_its_oracles_ints(monkeypatch):
    coins = []
    init = SpanOracle.__init__

    def spy(self, given, *args, **kwargs):
        coins.append(given)
        init(self, given, *args, **kwargs)

    monkeypatch.setattr(SpanOracle, "__init__", spy)
    b = fractional_orbit(Fraction(5, 37), 12)
    c = CircularSet.from_points(minimal_difference_cover(b.to_exact_set()).cover)
    rep = verify_generation(b, c)
    assert rep.passed
    assert [type(x) for x in coins] == [Cleared, Cleared]
    assert [x.values() for x in coins] == [rep.r_minus, rep.r_plus]


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(1, 12),
       st.integers(1, 90), st.data())
@settings(max_examples=60, deadline=None)
def test_vectorised_oracle_lookup_matches_membership(nums, den, q, data):
    coins = tuple(Fraction(n, den + n) for n in nums)
    dp = SpanOracle(coins)
    bfs = SpanOracle(coins, dp_limit=1)
    assert dp.table is not None and bfs.table is None
    assert dp.members.tolist() == bfs.members.tolist()
    # q a multiple of the DP scale puts every value on the grid; any other
    # q puts some off it
    q = data.draw(st.sampled_from([q, q * dp.scale]))
    ints = [-1, 0, q, q + 1] + data.draw(st.lists(st.integers(-2, q + 2), max_size=40))
    expected = [Fraction(n, q) in dp for n in ints]
    assert expected == [Fraction(n, q) in bfs for n in ints]
    for oracle in (dp, bfs):
        for dtype in (np.int64, object):
            got = oracle.contains_scaled(np.array(ints, dtype=dtype), q)
            assert got.dtype == bool and got.tolist() == expected


@given(st.integers(2, 90), st.data())
@settings(max_examples=60, deadline=None)
def test_span_oracle_dp_and_bfs_agree_at_the_dp_limit(den, data):
    nums = data.draw(st.lists(st.integers(1, den - 1), min_size=0, max_size=4))
    coins = tuple(Fraction(n, den) for n in nums)
    scale = SpanOracle(coins).scale
    dp = SpanOracle(coins, dp_limit=scale)          # scale == dp_limit: the table
    bfs = SpanOracle(coins, dp_limit=scale - 1)     # scale == dp_limit + 1: the set
    assert dp.table is not None and bfs.table is None
    assert dp.members.tolist() == bfs.members.tolist()
    for q in (scale, 2 * scale, scale + 1):
        values = [Fraction(n, q) for n in range(-1, q + 2)]
        assert [v in dp for v in values] == [v in bfs for v in values]
        ints = np.arange(-1, q + 2)
        assert dp.contains_scaled(ints, q).tolist() == bfs.contains_scaled(ints, q).tolist()


@pytest.mark.parametrize("p, dtype", [((1 << 62) - 57, np.int64), ((1 << 62) + 135, object)])
def test_instance_scale_is_the_least_common_denominator(p, dtype):
    # Sets built from residues (greedy and Sidon subsets, progression
    # unions) may keep a scale above their least common denominator: here
    # 2p, though every point lies on 1/p.  The instance still works over p,
    # so the int64 switch sits where the points' own denominators put it.
    b = CircularSet._from_residues(int_array([0, 2 * (p // 3), 2 * (2 * p // 3)], 2 * p), 2 * p)
    c = CircularSet.from_values([pt.value for pt in b.points])
    inst = _Instance(b, c)
    assert inst.q == p and inst.universe.dtype == dtype
    assert verify_generation(b, c).passed


def parent_neighbour_gaps(b, c):
    """The Fraction loop neighbour_gaps ran before it read the instance's residues."""
    _Instance(b, c)
    pts = b.points
    n = len(pts)
    idx = {p: i for i, p in enumerate(pts)}
    neighbours = {}
    r_minus = set()
    r_plus = set()
    for cp in c.points:
        i = idx[cp]
        pred = pts[(i - 1) % n]
        succ = pts[(i + 1) % n]
        neighbours[cp] = (pred, succ)
        r_minus.add((cp.value - pred.value) % 1)
        r_plus.add((succ.value - cp.value) % 1)
    return tuple(sorted(r_minus)), tuple(sorted(r_plus)), neighbours


def assert_matches_parent(b, c):
    rep = neighbour_gaps(b, c)
    r_minus, r_plus, neighbours = parent_neighbour_gaps(b, c)
    assert rep.c_points == c.points
    assert rep.r_minus == r_minus and rep.r_plus == r_plus
    assert rep.neighbours == neighbours
    assert list(rep.neighbours.items()) == list(neighbours.items())


@given(circle_sets(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_neighbour_gaps_match_the_fraction_loop(b, identity):
    assert_matches_parent(b, b if identity else min_cover(b))


@st.composite
def int64_switch_sets(draw, primes):
    """Points over two alternating primes, every gap at least 1/(2 size)."""
    size = draw(st.integers(2, 5))
    vals = []
    for i in range(size):
        p = primes[i % 2]
        lo = p * 2 * i // (2 * size) + 1
        vals.append(Fraction(draw(st.integers(lo, lo + p // (2 * size) - 2)), p))
    return CircularSet.from_values(vals)


@pytest.mark.parametrize("primes", [BELOW_2_62, ABOVE_2_62])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_neighbour_gaps_match_the_fraction_loop_at_the_int64_switch(primes, data):
    b = data.draw(int64_switch_sets(primes))
    assert_matches_parent(b, b if data.draw(st.booleans()) else min_cover(b))


def lazy_pair(lifts):
    """B, eight points over 41, and a two-point minimal cover C, both unlifted."""
    b = CircularSet.from_values([Fraction(v, 41) for v in range(8)])
    c = CircularSet.from_points(minimal_difference_cover(b.to_exact_set()).cover)
    assert "points" not in b.__dict__ and "points" not in c.__dict__
    assert len(c) == 2
    del lifts[:]  # the cover's own lifts
    return b, c


def test_verify_generation_lifts_no_point(lifts):
    b, c = lazy_pair(lifts)
    assert verify_generation(b, c).passed
    assert lifts == [] and "points" not in b.__dict__
    b.points, c.points
    del lifts[:]
    assert verify_generation(b, c).passed
    assert lifts == []


def test_neighbour_gaps_lifts_only_the_neighbours_of_c(lifts):
    b, c = lazy_pair(lifts)
    c.points
    del lifts[:]
    rep = neighbour_gaps(b, c)
    assert len(lifts) == 2 * len(c) < 2 * len(b)
    assert "points" not in b.__dict__
    assert rep.neighbours == parent_neighbour_gaps(b, c)[2]


def parent_span_table(coin_ints, scale):
    """The span DP before it skipped coins already in the span: one pass per coin."""
    dp = np.zeros(scale + 1, dtype=bool)
    dp[0] = True
    for coin in sorted(set(coin_ints)):
        # one row per multiple of the coin: accumulating down the columns
        # saturates every residue class in a single pass
        rows = -(-(scale + 1) // coin)
        grid = np.zeros(rows * coin, dtype=bool)
        grid[:scale + 1] = dp
        grid = grid.reshape(rows, coin)
        np.logical_or.accumulate(grid, axis=0, out=grid)
        dp = grid.ravel()[:scale + 1]
    return dp


@given(st.integers(1, 150), st.data())
@settings(max_examples=150, deadline=None)
def test_span_table_skipping_spanned_coins_matches_one_pass_per_coin(scale, data):
    coins = data.draw(st.lists(st.integers(1, scale + 5), min_size=1, max_size=5))
    # duplicates, multiples of drawn coins, the scale itself
    coins += data.draw(st.lists(st.sampled_from(coins), max_size=3))
    coins += [k * g for g in data.draw(st.lists(st.sampled_from(coins), max_size=3))
              for k in data.draw(st.lists(st.integers(2, 5), max_size=2))]
    if data.draw(st.booleans()):
        coins.append(scale)
    coins = tuple(coins)
    assert np.array_equal(_span_table(coins, scale), parent_span_table(coins, scale))


@pytest.mark.parametrize("coins, scale", [((3, 3, 5), 20), ((2, 4, 6, 8), 17),
                                          ((4, 12), 12), ((12,), 12), ((7, 30), 12)])
def test_span_table_edge_coins(coins, scale):
    assert np.array_equal(_span_table(coins, scale), parent_span_table(coins, scale))


def test_span_oracle_accepts_coins_above_one():
    oracle = SpanOracle((Fraction(3, 2), Fraction(1, 4), Fraction(1, 2)))
    assert oracle.scale == 4 and oracle.table.tolist() == [True] * 5
    ints, _ = residues(oracle.coins)
    assert np.array_equal(oracle.table, parent_span_table(tuple(ints), oracle.scale))


class UnaddableCoin(Fraction):
    """A coin that fails the test if the enumeration ever adds it."""

    def __radd__(self, other):
        raise AssertionError("the span was enumerated")


class UnaddableInt(int):
    """An integer coin that fails the test if the enumeration ever adds it."""

    def __radd__(self, other):
        raise AssertionError("the span was enumerated")


def test_span_past_its_budget_fails_before_enumerating(monkeypatch):
    # the enumeration sees its coins as UnaddableInts
    scales = []
    members = gd._span_members

    def spy(coins, cap, scale):
        scales.append(scale)
        return members(tuple(UnaddableInt(g) for g in coins), cap, scale)

    monkeypatch.setattr(gd, "_span_members", spy)
    with pytest.raises(OracleScaleError) as err:
        SpanOracle((Fraction(1, 2**25 + 1),))
    assert str(err.value) == ("the exact span over denominator 33554433 has more than "
                              "2000000 members, past its enumeration budget")
    assert scales == [2**25 + 1]


def test_span_past_its_budget_fails_during_enumeration():
    # the smallest coin's 12 multiples fit the budget of 13; the span does not
    coins = (Fraction(1, 7), Fraction(1, 11))
    assert len(SpanOracle(coins, dp_limit=1, set_cap=50).members) > 13
    with pytest.raises(OracleScaleError) as err:
        SpanOracle(coins, dp_limit=1, set_cap=13)
    assert "denominator 77" in str(err.value) and "13 members" in str(err.value)


# ---------------------------------------------------------------------------
# The span oracle on ints.  The parent's oracle, whose breadth-first mode ran
# on Fractions, is kept verbatim as the reference.

def parent_span_set(coins, cap, scale):
    budget = OracleScaleError(
        f"the exact span over denominator {scale} has more than {cap} members, "
        "past its enumeration budget")
    if 1 // coins[0] + 1 > cap:
        raise budget
    seen = {Fraction(0)}
    frontier = [Fraction(0)]
    while frontier:
        x = frontier.pop()
        for g in coins:
            y = x + g
            if y <= 1 and y not in seen:
                if len(seen) >= cap:
                    raise budget
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


class ParentSpanOracle:
    def __init__(self, coins, dp_limit=1 << 24, set_cap=2_000_000):
        self.coins = tuple(sorted(set(coins)))
        ints, scale = residues(self.coins)
        self.scale = scale
        if scale <= dp_limit:
            self.table = _span_table(tuple(ints), scale)
            self.values = None
        else:
            self.table = None
            self.values = parent_span_set(self.coins, set_cap, scale)

    def __contains__(self, x):
        x = as_rational(x)
        if not 0 <= x <= 1:
            return False
        if self.table is not None:
            n = x * self.scale
            return n.denominator == 1 and bool(self.table[int(n)])
        return x in self.values

    def reachable_scaled(self, scale):
        if self.table is not None and scale % self.scale == 0:
            step = scale // self.scale
            return frozenset((np.flatnonzero(self.table) * step).tolist())
        return frozenset(int(x * scale) for x in self.as_fractions()
                         if (x * scale).denominator == 1)

    def as_fractions(self):
        if self.table is not None:
            return frozenset(Fraction(int(i), self.scale) for i in np.flatnonzero(self.table))
        return self.values


def coin_sets(max_den=60):
    return st.lists(st.fractions(min_value=Fraction(1, max_den), max_value=Fraction(3, 2),
                                 max_denominator=max_den), min_size=1, max_size=4)


@given(coin_sets(max_den=24), st.integers(1, 80), st.booleans())
@settings(max_examples=100, deadline=None)
def test_integer_enumeration_matches_the_fraction_search(coins, cap, dp):
    coins = tuple(coins)
    limit = 1 << 24 if dp else 0  # every scale is at least 1
    try:
        want = ParentSpanOracle(coins, dp_limit=limit, set_cap=cap)
    except OracleScaleError as exc:
        with pytest.raises(OracleScaleError) as err:
            SpanOracle(coins, dp_limit=limit, set_cap=cap)
        assert str(err.value) == str(exc)
        return
    got = SpanOracle(coins, dp_limit=limit, set_cap=cap)
    assert (got.table is None) == (want.table is None) == (not dp)
    assert got.scale == want.scale
    assert {Fraction(int(n), got.scale) for n in got.members} == want.as_fractions()
    assert got.members.tolist() == sorted(got.members.tolist())
    # each member, its neighbours over twice the scale, and both ends' outsides
    near = {2 * int(m) + e for m in got.members[:100] for e in (-1, 0, 1)}
    for n in near | {-1, 2 * got.scale, 2 * got.scale + 1}:
        x = Fraction(n, 2 * got.scale)
        assert (x in got) == (x in want)


@given(st.integers(2, 40), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_budget_checks_match_the_fraction_search(den, cap):
    coins = (Fraction(1, den), Fraction(2, den + 1))
    ints, scale = residues(coins)
    try:
        want = sorted(int(x * scale) for x in parent_span_set(coins, cap, scale))
    except OracleScaleError as exc:
        with pytest.raises(OracleScaleError) as err:
            _span_members(tuple(ints), cap, scale)
        assert str(err.value) == str(exc)
    else:
        assert _span_members(tuple(ints), cap, scale).tolist() == want
    # both searches fail fast, before adding any coin, exactly when the
    # smallest coin's multiples alone exceed the budget
    for search in (lambda: parent_span_set((UnaddableCoin(1, den),), cap, den),
                   lambda: _span_members((UnaddableInt(1),), cap, den)):
        with pytest.raises(OracleScaleError if den + 1 > cap else AssertionError):
            search()


def test_members_past_int64_are_python_ints():
    big = (1 << 70) + 1
    coins = (Fraction(big // 3, big), Fraction(big // 2, big))
    got, want = SpanOracle(coins), ParentSpanOracle(coins)
    assert got.table is None and got.members.dtype == object
    assert {Fraction(int(n), got.scale) for n in got.members} == want.as_fractions()
    ints = np.array([0, big // 3, big // 2, big // 3 * 2, big // 3 + big // 2, big, 1],
                    dtype=object)
    assert got.contains_scaled(ints, big).tolist() == \
        [Fraction(n, big) in want for n in ints.tolist()]


@given(coin_sets(max_den=24), coin_sets(max_den=24), st.integers(1, 4), st.booleans(),
       st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_same_span_matches_the_frozenset_comparison(a, b, k, dp_a, dp_b, same):
    if same:
        b = a + [2 * a[0]]  # a coin already in the span of a changes nothing
    oracles = []
    for coins, dp in ((a, dp_a), (b, dp_b)):
        limit = 1 << 24 if dp else 0
        oracles.append((SpanOracle(tuple(coins), dp_limit=limit),
                        ParentSpanOracle(tuple(coins), dp_limit=limit)))
    (got_a, want_a), (got_b, want_b) = oracles
    q = (got_a.scale * got_b.scale) * k  # both scales divide q
    agree = _same_span(got_a, got_b, q)
    assert agree == (want_a.reachable_scaled(q) == want_b.reachable_scaled(q))
    assert agree or not same


def test_same_span_both_ways():
    one = (Fraction(1, 4),)
    two = (Fraction(1, 4), Fraction(1, 2))
    three = (Fraction(1, 6),)
    q = 24
    for a, b, agree in ((one, two, True), (one, three, False), (two, three, False)):
        for dp in (1 << 24, 0):
            got = _same_span(SpanOracle(a, dp_limit=dp), SpanOracle(b), q)
            want = ParentSpanOracle(a, dp_limit=dp).reachable_scaled(q) == \
                ParentSpanOracle(b).reachable_scaled(q)
            assert got == want == agree


def test_same_span_compares_two_tables_in_place():
    # spans over 3 * 2^20 and 2^21 of about 3 * 2^20 members each: their int64
    # members, and the copies scaled to q, would take 24 MiB or more, while the
    # tables, read through strided views on the grid of their gcd, take none
    s = 3 << 20
    a, b, c = (SpanOracle(Cleared(coins, scale))
               for coins, scale in (((2, 3), s), ((3, 2, 7), s), ((3,), 2 * s)))
    assert (a.scale, b.scale, c.scale) == (s, s, 2 << 20)
    tracemalloc.start()
    try:
        got = [_same_span(x, y, 6 << 20) for x, y in ((a, b), (b, a), (a, c), (c, a))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [True, True, False, False]
    assert peak < 2 * s, peak
