"""Exact sumsets across domains, and the minimum difference cover solver."""

import functools
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from typing import Dict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaplab import sumset_engine as se
from gaplab.exact_torus import TorusPoint, as_rational, int_dtype, reduce_mod1, residues
from gaplab.gap_spectrum import fractional_orbit, sumset_size
from gaplab.sumset_engine import (Domain, DomainMismatchError, FiniteExactSet,
                                  difference_set, doubling_ratio,
                                  minimal_difference_cover, negate, sumset)


def brute_sum(xs, ys):
    return sorted({a + b for a in xs for b in ys})


def test_integer_sumset_matches_brute():
    a = FiniteExactSet.integers([0, 1, 5, 11])
    b = FiniteExactSet.integers([-3, 0, 7])
    assert list(sumset(a, b).elements) == brute_sum(a.elements, b.elements)


def test_rational_sumset_matches_brute():
    a = FiniteExactSet.rationals([Fraction(1, 3), Fraction(1, 2), Fraction(-2, 7)])
    b = FiniteExactSet.rationals([Fraction(0), Fraction(5, 6)])
    assert list(sumset(a, b).elements) == brute_sum(a.elements, b.elements)


def test_torus_sumset_wraps():
    a = FiniteExactSet.torus([Fraction(3, 4), Fraction(1, 2)])
    b = FiniteExactSet.torus([Fraction(1, 2)])
    got = [p.value for p in sumset(a, b).elements]
    assert got == [Fraction(0), Fraction(1, 4)]


def test_domain_mismatch_rejected():
    a = FiniteExactSet.integers([1])
    b = FiniteExactSet.rationals([Fraction(1)])
    with pytest.raises(DomainMismatchError):
        sumset(a, b)


def test_integer_domain_rejects_nonints():
    with pytest.raises(TypeError):
        FiniteExactSet.integers([1, Fraction(1, 2)])
    with pytest.raises(TypeError):
        FiniteExactSet.integers([True])


def test_huge_integers_take_the_outer_path_on_python_ints(monkeypatch):
    # sums spanning more than the two limbs hold are summed as Python ints
    base = 1 << 130
    a = FiniteExactSet.integers([base, base + 3, base + 10, 2 * base])
    b = FiniteExactSet.integers([-base, -base + 1])
    seen = _spy_paths(monkeypatch)
    s = sumset(a, b)
    assert list(s.elements) == brute_sum(a.elements, b.elements)
    assert seen == ["outer"] and s._ints.top.dtype == object


def test_huge_integers_in_a_narrow_span_run_dense(monkeypatch):
    base = 1 << 70
    a = FiniteExactSet.integers([base, base + 3, base + 10])
    b = FiniteExactSet.integers([-base, -base + 1])
    seen = _spy_paths(monkeypatch)
    assert list(sumset(a, b).elements) == brute_sum(a.elements, b.elements)
    assert seen == ["dense"]


def test_mixed_scale_rationals():
    a = FiniteExactSet.rationals([Fraction(1, 997), Fraction(2, 13)])
    b = FiniteExactSet.rationals([Fraction(1, 3), Fraction(1, 4096)])
    assert list(sumset(a, b).elements) == brute_sum(a.elements, b.elements)


@given(st.lists(st.integers(-2000, 2000), min_size=1, max_size=40),
       st.lists(st.integers(-2000, 2000), min_size=1, max_size=40))
@settings(deadline=None, max_examples=60)
def test_sumset_size_floor(xs, ys):
    a = FiniteExactSet.integers(set(xs))
    b = FiniteExactSet.integers(set(ys))
    s = sumset(a, b)
    assert len(s) >= len(a) + len(b) - 1
    assert list(s.elements) == brute_sum(a.elements, b.elements)


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60),
                min_size=1, max_size=25))
@settings(deadline=None, max_examples=60)
def test_torus_negate_is_involution(vals):
    a = FiniteExactSet.torus(vals)
    assert negate(negate(a)) == a
    got = {p.value for p in negate(a).elements}
    assert got == {(-p.value) % 1 for p in a.elements}


def test_difference_set_contains_zero_and_negates():
    a = FiniteExactSet.torus([Fraction(0), Fraction(1, 5), Fraction(2, 5)])
    d = difference_set(a, a)
    vals = {p.value for p in d.elements}
    assert Fraction(0) in vals
    assert vals == {(-v) % 1 for v in vals}


def test_doubling_ratio_exact():
    a = FiniteExactSet.integers([1, 2, 3, 4])
    assert doubling_ratio(a) == Fraction(7, 4)
    with pytest.raises(ValueError):
        doubling_ratio(FiniteExactSet.integers([]))


def test_cover_of_arithmetic_progression_is_small():
    # For {0, d, 2d, ..., (n-1)d} the two endpoints already cover B - B.
    a = FiniteExactSet.integers(list(range(0, 50, 5)))
    cov = minimal_difference_cover(a)
    assert cov.exact
    assert len(cov.cover) == 2


def test_cover_universe_matches_difference_set():
    rng = random.Random(5)
    for _ in range(20):
        q = rng.randrange(6, 50)
        vals = rng.sample(range(q), rng.randrange(2, min(10, q)))
        a = FiniteExactSet.torus([Fraction(v, q) for v in vals])
        cov = minimal_difference_cover(a)
        assert tuple(cov.universe) == difference_set(a, a).elements
        assert set(cov.cover) <= set(a.elements)
        covered = {(c.value - e.value) % 1 for c in cov.cover for e in a.elements}
        assert covered == {p.value for p in cov.universe}


def test_cover_certificate_witnesses_every_difference():
    a = FiniteExactSet.integers([1, 2, 14, 15])
    cov = minimal_difference_cover(a)
    assert set(cov.certificate) == set(cov.universe)
    for d, (c, e) in cov.certificate.items():
        assert c - e == d
        assert c in set(cov.cover) and e in set(a.elements)


def test_exact_cover_is_minimum():
    rng = random.Random(9)
    for _ in range(25):
        q = rng.randrange(5, 30)
        vals = rng.sample(range(q), rng.randrange(2, min(8, q + 1)))
        a = FiniteExactSet.torus([Fraction(v, q) for v in vals])
        cov = minimal_difference_cover(a)
        assert cov.exact
        universe = {(p.value - r.value) % 1 for p in a.elements for r in a.elements}
        best = next(k for k in range(1, len(a) + 1)
                    for cand in combinations(a.elements, k)
                    if {(c.value - e.value) % 1
                        for c in cand for e in a.elements} == universe)
        assert len(cov.cover) == best


def test_greedy_cover_flagged_not_exact():
    rng = random.Random(3)
    vals = rng.sample(range(10 ** 6), 40)
    a = FiniteExactSet.integers(vals)
    cov = minimal_difference_cover(a, exact_limit=24)
    assert not cov.exact
    covered = {c - e for c in cov.cover for e in a.elements}
    assert covered == {p - r for p in a.elements for r in a.elements}


def test_sorted_output_across_domains():
    rng = random.Random(1)
    vals = [Fraction(rng.randrange(1000), 997) for _ in range(50)]
    a = FiniteExactSet.rationals(vals)
    assert list(a.elements) == sorted(set(vals))
    t = FiniteExactSet.torus(vals)
    got = [p.value for p in t.elements]
    assert got == sorted(set(v % 1 for v in vals))


def test_torus_lifts_keep_their_values():
    tenths = [Fraction(n, 10) for n in (0, 1, 2, 3)]
    b = FiniteExactSet.torus(tenths)
    s = sumset(b, FiniteExactSet.torus([Fraction(1, 2), Fraction(3, 4)]))
    assert [str(p) for p in s.elements] == ["1/20", "1/2", "3/5", "7/10", "3/4",
                                            "4/5", "17/20", "19/20"]
    cov = minimal_difference_cover(b)
    assert [str(p) for p in cov.cover] == ["0", "3/10"]
    assert [str(p) for p in cov.universe] == ["0", "1/10", "1/5", "3/10", "7/10",
                                              "4/5", "9/10"]
    assert {str(d): (str(c), str(e)) for d, (c, e) in cov.certificate.items()} == {
        "0": ("0", "0"), "1/10": ("3/10", "1/5"), "1/5": ("3/10", "1/10"),
        "3/10": ("3/10", "0"), "7/10": ("0", "3/10"), "4/5": ("0", "1/5"),
        "9/10": ("0", "1/10")}
    # the certificate is keyed by the universe's own point objects
    assert all(k is u for k, u in zip(cov.certificate, cov.universe))
    rat = minimal_difference_cover(FiniteExactSet.rationals(tenths))
    assert [str(d) for d in rat.universe] == ["-3/10", "-1/5", "-1/10", "0", "1/10",
                                              "1/5", "3/10"]
    assert rat.certificate[Fraction(-1, 5)] == (Fraction(0), Fraction(1, 5))


# ---------------------------------------------------------------------------
# Path thresholds of the pair-sum kernel, in all three domains.  Each case
# gives numerators xs, ys (ascending) and the path that must run; the
# rational operands are n / RAT_DEN and the torus operands n / q, so every
# domain clears to exactly these ints and reaches the same switch.

I64_MAX = (1 << 63) - 1
LIMB_LIMIT = se.LIMB_SPAN_LIMIT
RAT_DEN = 3


def _run(n):
    return list(range(n))


def _threshold_cases():
    cases = []
    for delta in (-1, 0, 1):
        side = {-1: "below", 0: "at", 1: "above"}[delta]
        # output span hi - lo + 1 == DENSE_SPAN_LIMIT + delta, 2^22 pairs
        far = se.DENSE_SPAN_LIMIT + delta - 2048
        cases.append((f"dense-span-{side}", _run(2047) + [far], _run(2048),
                      far + 1, "dense" if delta <= 0 else "outer"))
        # the narrower operand spans DENSE_SEG_LIMIT + delta bits
        far = se.DENSE_SEG_LIMIT - 1 + delta
        cases.append((f"dense-seg-{side}", _run(724) + [far], _run(724) + [far],
                      far + 1, "dense" if delta <= 0 else "outer"))
        # sums reach I64_MAX + delta at the top, -I64_MAX + delta at the
        # bottom; the span decides, not the magnitude, so all run dense
        top = I64_MAX + delta - 6 - (1 << 62)
        cases.append((f"int64-hi-{side}", [(1 << 62) + i for i in range(4)],
                      [top + i for i in range(4)], None, "dense"))
        cases.append((f"int64-lo-{side}", [-(1 << 62) - 3 + i for i in range(4)],
                      [-I64_MAX + delta + (1 << 62) + 3 + i for i in range(4)], None, "dense"))
        # one operand element itself at I64_MAX + delta or -I64_MAX - delta
        cases.append((f"int64-element-hi-{side}", [-10, -5, -1], [I64_MAX + delta],
                      None, "dense"))
        cases.append((f"int64-element-lo-{side}", [-I64_MAX - delta], [1, 5, 10],
                      None, "dense"))
        # the smallest sum at +-2^62 + delta, on the dense path
        for sign in (1, -1):
            lo = sign * (1 << 62) + delta
            cases.append((f"lo-{'plus' if sign > 0 else 'minus'}-2^62-{side}",
                          [lo + i for i in range(0, 12, 3)], _run(5), None, "dense"))
    # A + A: one list as both operands (ys is xs).  The set is its own
    # segment, so the segment limit binds before the span limit.
    for delta in (-1, 0, 1):
        side = {-1: "below", 0: "at", 1: "above"}[delta]
        far = se.DENSE_SEG_LIMIT - 1 + delta
        xs = _run(724) + [far]
        cases.append((f"aa-dense-seg-{side}", xs, xs, far + 1,
                      "dense" if delta <= 0 else "outer"))
        # 64 * 64 pairs against an output span // 16 of 4096 + delta
        far = 8 * (4096 + delta)
        xs = _run(63) + [far]
        cases.append((f"aa-dense-pairs-{side}", xs, xs, far + 1,
                      "dense" if delta <= 0 else "outer"))
    # The sums 2x are even and I64_MAX is odd, so they meet the edge at +-1.
    for delta in (-1, 1):
        side = {-1: "below", 1: "above"}[delta]
        top = (I64_MAX + delta) // 2
        xs = [top - 3 + i for i in range(4)]
        cases.append((f"aa-int64-hi-{side}", xs, xs, None, "dense"))
        bottom = (-I64_MAX + delta) // 2
        xs = [bottom + i for i in range(4)]
        cases.append((f"aa-int64-lo-{side}", xs, xs, None, "dense"))
    return cases


THRESHOLD_CASES = {c[0]: c[1:] for c in _threshold_cases()}


@functools.cache
def _brute(case):
    # one pass over every pair per case, shared by the three domains
    xs, ys = THRESHOLD_CASES[case][:2]
    return tuple(brute_sum(xs, ys))


def _spy_paths(monkeypatch):
    seen = []
    for name, path in (("_dense_pairsums", "dense"), ("_outer_pairsums", "outer")):
        kernel = getattr(se, name)

        def spy(*args, _kernel=kernel, _path=path):
            seen.append(_path)
            return _kernel(*args)
        monkeypatch.setattr(se, name, spy)
    return seen


def _check_domain(monkeypatch, xs, ys, q, domain, expected_path, brute):
    # ys is xs: one set object as both operands, A + A
    seen = _spy_paths(monkeypatch)
    if domain == "integers":
        build = FiniteExactSet.integers
        want = tuple(brute)
    elif domain == "rationals":
        def build(ns):
            return FiniteExactSet.rationals([Fraction(n, RAT_DEN) for n in ns])
        # a/s + b/s == (a + b)/s: the brute sums of numerators, over s
        want = tuple(Fraction(m, RAT_DEN) for m in brute)
    else:
        def build(ns):
            return FiniteExactSet.torus([Fraction(n, q) for n in ns])
        want = tuple(TorusPoint(Fraction(m, q)) for m in sorted({m % q for m in brute}))
    a = build(xs)
    got = sumset(a, a if ys is xs else build(ys))
    assert seen == [expected_path]
    assert len(got) == len(want)
    assert got.elements == want


# Negative and int64-edge numerators are no torus residues; the torus int64
# edge is the fold guard below.
@pytest.mark.parametrize("case, domain", [
    (case, domain) for case in sorted(THRESHOLD_CASES)
    for domain in ("integers", "rationals", "torus")
    if domain != "torus" or THRESHOLD_CASES[case][2] is not None])
def test_sumset_on_both_sides_of_each_path_threshold(monkeypatch, case, domain):
    xs, ys, q, expected_path = THRESHOLD_CASES[case]
    _check_domain(monkeypatch, xs, ys, q, domain, expected_path, _brute(case))
    if ys is xs:
        # A + copy(A) takes the same path as A + A
        _check_domain(monkeypatch, xs, list(xs), q, domain, expected_path, _brute(case))


def _outer_limit_case(n_pairs, rows):
    # n_pairs == rows * cols; the far element keeps the dense path out
    cols = n_pairs // rows
    assert rows * cols == n_pairs
    return _run(rows - 1) + [1 << 27], _run(cols)


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_integer_sumset_at_the_outer_pair_limit(monkeypatch, delta):
    # 2^25 - 1 = 1801 * 18631, 2^25 = 4096 * 8192, 2^25 + 1 = 4051 * 8283
    # pairs, four or five chunks of _CHUNK_PAIRS: the outer path takes any count
    rows = {-1: 1801, 0: 4096, 1: 4051}[delta]
    xs, ys = _outer_limit_case((1 << 25) + delta, rows)
    _check_domain(monkeypatch, xs, ys, None, "integers", "outer", brute_sum(xs, ys))


@pytest.mark.parametrize("domain", ["rationals", "torus"])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_rational_and_torus_sumsets_at_a_lowered_outer_pair_limit(monkeypatch, domain,
                                                                  delta):
    # 2^25 pairs cost seconds per domain, so these two domains take 2^12
    # pairs in many chunks: 4095 = 63 * 65, 4096 = 64 * 64, 4097 = 17 * 241
    monkeypatch.setattr(se, "_CHUNK_PAIRS", 1 << 8)
    rows = {-1: 63, 0: 64, 1: 17}[delta]
    xs, ys = _outer_limit_case((1 << 12) + delta, rows)
    _check_domain(monkeypatch, xs, ys, (1 << 27) + 1, domain, "outer", brute_sum(xs, ys))


@pytest.mark.parametrize("domain", ["integers", "rationals", "torus"])
@pytest.mark.parametrize("n", [63, 64, 65])
def test_identical_operands_at_a_lowered_outer_pair_limit(monkeypatch, domain, n):
    # n * n = 3969, 4096, 4225 pairs in many chunks, for A + A and A + copy(A)
    monkeypatch.setattr(se, "_CHUNK_PAIRS", 1 << 8)
    xs = _run(n - 1) + [1 << 27]
    brute = brute_sum(xs, xs)
    _check_domain(monkeypatch, xs, xs, (1 << 27) + 1, domain, "outer", brute)
    _check_domain(monkeypatch, xs, list(xs), (1 << 27) + 1, domain, "outer", brute)


@pytest.mark.parametrize("q, expected_path", [
    ((1 << 62) - 1, "outer"), (1 << 62, "outer"), ((1 << 62) + 1, "outer"),
    (I64_MAX, "outer"), (1 << 63, "outer"), (1 << 70, "dense"), ((1 << 130) + 3, "outer")])
def test_torus_fold_on_both_sides_of_its_int64_guard(monkeypatch, q, expected_path):
    # the largest sum 2q - 2 passes I64_MAX first at q = 2^62 + 1, where the
    # outer path turns to two limbs; a modulus past int64 with small
    # residues keeps sums that never wrap, and past the limbs sums on both
    # sides of q (one of them q itself) fold as Python ints
    wraps = q < (1 << 64) or q > LIMB_LIMIT
    xs = [0, 1, 2, q - 2, q - 1] if wraps else [0, 1, 2, 3]
    ys = [0, 1, q - 1] if wraps else [0, 5]
    brute = brute_sum(xs, ys)
    _check_domain(monkeypatch, xs, ys, q, "torus", expected_path, brute)
    s = sumset(FiniteExactSet.torus([Fraction(n, q) for n in xs]),
               FiniteExactSet.torus([Fraction(n, q) for n in ys]))
    assert negate(s).elements == tuple(
        TorusPoint(Fraction(m, q)) for m in sorted({-m % q for m in brute}))


# ---------------------------------------------------------------------------
# Paths by span: every kernel runs on offsets from xs[0] + ys[0], the outer
# path takes spans past int64 on two 62-bit limbs and spans from
# LIMB_SPAN_LIMIT on as Python ints, and a Python set (brute_sum) is the
# oracle at each switch.

def _spanning(base, span, k, rng):
    """k ascending ints from base to base + span, both ends included."""
    inner = {base + rng.randrange(span + 1) for _ in range(k)}
    return sorted(inner | {base, base + span})


def _path_of(xs, ys):
    """(ascending sums, the path that ran, the result object)."""
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_paths(mp)
        got = se._pairsums_int(xs, ys)
    return got.tolist(), seen[0], got


@pytest.mark.parametrize("base", [0, -(1 << 63) - 17, -(1 << 200), (1 << 63) + 5, 1 << 90])
@pytest.mark.parametrize("span, form", [
    (I64_MAX, "int64"), (I64_MAX + 1, "limbs"), (I64_MAX + 2, "limbs"),
    (LIMB_LIMIT - 1, "limbs"), (LIMB_LIMIT, "object"), (LIMB_LIMIT + 1, "object")])
def test_outer_sums_on_both_sides_of_the_int64_and_limb_spans(base, span, form):
    # the sums span exactly `span`: int64 offsets up to I64_MAX, two limbs
    # from I64_MAX + 1 to LIMB_LIMIT - 1, Python ints from LIMB_LIMIT on
    # (A + A of a set spanning span // 2 spans I64_MAX - 1 at I64_MAX)
    rng = random.Random(span ^ base)
    xs = _spanning(base, span - 7, 30, rng)
    ys = _spanning(-base // 3, 7, 5, rng)
    zs = _spanning(base, span // 2, 30, rng)
    for a, b in ((xs, ys), (ys, xs), (zs, zs)):
        got, ran, res = _path_of(a, b)
        held = "limbs" if res.low is not None else str(res.top.dtype)
        assert (ran, held, got) == ("outer", form, brute_sum(a, b))
        assert len(res) == len(got)


@pytest.mark.parametrize("base", [0, -(1 << 63) - 17, (1 << 63) + 5])
@pytest.mark.parametrize("span", [I64_MAX - 1, I64_MAX, I64_MAX + 1, I64_MAX + 2,
                                  LIMB_LIMIT - 1, LIMB_LIMIT, LIMB_LIMIT + 1])
def test_a_constructed_set_holds_sorted_offsets_at_each_span(base, span):
    # int64 offsets below I64_MAX, Python ints in an object array from there
    # (exact_torus.int_dtype); its sums, negation and differences against
    # the Python-set brute force, with the sums spanning `span` too
    rng = random.Random(span ^ base)
    xs = _spanning(base, span, 30, rng)
    a = FiniteExactSet.integers(xs[::-1] + xs[:3])
    held = a._ints
    assert type(held) is se._Sorted and held.base == xs[0] and held.low is None
    assert held.top.dtype == int_dtype(span) and held.tolist() == xs and len(a) == len(xs)
    b = FiniteExactSet.integers(_spanning(-base // 3, 7, 5, rng))
    c = FiniteExactSet.integers(_spanning(base, span - 7, 30, rng))
    for x, y in ((a, b), (b, a), (c, b), (a, a)):
        assert list(sumset(x, y).elements) == brute_sum(x.elements, y.elements)
        neg = [-n for n in y.elements]
        assert list(negate(y).elements) == sorted(neg)
        assert list(difference_set(x, y).elements) == brute_sum(x.elements, neg)


@st.composite
def _narrow_spans(draw):
    """(xs, ys) of any magnitude whose sums span at most I64_MAX."""
    base = draw(st.sampled_from([0, -(1 << 63), -(1 << 63) - 1, -(1 << 64) - 5, 1 << 63,
                                 (1 << 64) + 3, -(1 << 200), 1 << 200]))
    base += draw(st.integers(-100, 100))
    width = draw(st.sampled_from([0, 63, 64, 5000, 1 << 20, 1 << 40, I64_MAX // 2]))

    def operand(lo):
        return sorted(lo + v for v in draw(st.sets(st.integers(0, width), min_size=1,
                                                   max_size=60)))
    xs = operand(base)
    ys = xs if draw(st.booleans()) else operand(draw(st.integers(-(1 << 70), 1 << 70)))
    return xs, ys


@given(_narrow_spans())
@settings(deadline=None, max_examples=300)
def test_a_span_that_fits_int64_never_takes_python_ints(operands):
    xs, ys = operands
    assert xs[-1] + ys[-1] - xs[0] - ys[0] <= I64_MAX
    got, ran, res = _path_of(xs, ys)
    assert got == brute_sum(xs, ys)
    assert type(res) is se._Bitmap if ran == "dense" else res.top.dtype == np.int64


@pytest.mark.parametrize("same", [True, False])
@pytest.mark.parametrize("chunk", [se._CHUNK_PAIRS, 64, 1])
def test_two_limb_sums_whose_tops_tie_match_brute(monkeypatch, same, chunk):
    # a block of consecutive ints and a few far ones: the sum's top 64 bits
    # drop its low 5 bits, so runs of 32 sums share a top, and A + B repeats
    # sums; small chunks merge their pieces
    monkeypatch.setattr(se, "_CHUNK_PAIRS", chunk)
    base = 1 << 70
    xs = [base + i for i in range(80)] + [base + (1 << 67) + i for i in (0, 1, 33)]
    ys = xs if same else [-base + 3 * i for i in range(40)] + [-base + (1 << 67)]
    got, ran, res = _path_of(xs, ys)
    assert ran == "outer" and res.shift == 5 and got == brute_sum(xs, ys)
    assert len(res) == len(got)
    if same:
        assert _identical_and_copy(xs)[0] == got


@given(st.sampled_from([1 << 64, (1 << 70) + 1, (1 << 123) - 1]),
       st.lists(st.integers(0, (1 << 123) - 1), min_size=1, max_size=40),
       st.booleans())
@settings(deadline=None, max_examples=150)
def test_wide_sums_read_and_count_like_the_set(lo, raw, same):
    # a count read before the ints, and ints read unsorted-first, from two limbs
    xs = sorted({lo + r for r in raw} | {lo})
    ys = xs if same else sorted({lo // 2 + r // 3 for r in raw})
    got = se._pairsums_int(xs, ys)
    want = brute_sum(xs, ys)
    assert len(got) == len(want)
    assert got.tolist() == want


@pytest.mark.parametrize("q", [(1 << 63) + 1, (1 << 64) + 13, (1 << 70) + 1, (1 << 100) + 7,
                               (1 << 130) + 3])
@pytest.mark.parametrize("where", ["low", "middle", "high", "ends", "circle"])
@pytest.mark.parametrize("same", [True, False])
def test_narrow_torus_sets_over_a_modulus_past_int64(q, where, same):
    # residues in a window of 2^20: sums below q, across q, all past q, and
    # a window across 0 that spans the whole circle; and random residues
    # over the whole circle
    rng = random.Random(f"{q}:{where}")
    start = {"low": 5, "middle": q // 2 - (1 << 19), "high": q - (1 << 20) - 3,
             "ends": q - (1 << 19), "circle": 0}[where]
    width = q if where == "circle" else 1 << 20

    def window(k):
        return sorted({(start + rng.randrange(width)) % q for _ in range(k)})
    xs = window(300)
    ys = xs if same else window(150)
    want = sorted({(a + b) % q for a in xs for b in ys})
    # the sums of residues near both ends of the circle span past int64: two
    # limbs, or Python ints past the limbs
    wide = where in ("ends", "circle")
    assert (se._pairsums_int(xs, ys).low is not None) == (wide and 2 * q < LIMB_LIMIT)
    got = se.torus_pairsums(xs, ys, q)
    assert len(got) == len(want) and got.tolist() == want
    a = FiniteExactSet.torus([Fraction(n, q) for n in xs])
    b = a if same else FiniteExactSet.torus([Fraction(n, q) for n in ys])
    assert sumset(a, b).elements == tuple(TorusPoint(Fraction(n, q)) for n in want)


@pytest.mark.parametrize("q, form", [
    (1000, "words"), (10 ** 6 + 3, "int64"), (I64_MAX, "limbs"), (I64_MAX + 2, "limbs"),
    ((1 << 64) + 13, "limbs")])
def test_torus_negation_keeps_zero_first_in_every_form(q, form):
    # A - A holds 0 in every form the fold leaves: words, int64 offsets, and
    # two limbs; negation reads each backwards and leaves 0 first
    rng = random.Random(q)
    xs = sorted({0} | {rng.randrange(q) for _ in range(150)})
    a = FiniteExactSet.torus([Fraction(n, q) for n in xs])
    d = difference_set(a, a)
    held = d._ints
    assert {"words": type(held) is se._Bitmap,
            "int64": type(held) is se._Sorted and held.top.dtype == np.int64,
            "limbs": type(held) is se._Sorted and held.low is not None}[form]
    assert held.tolist() == sorted({(x - y) % q for x in xs for y in xs})
    for s in (a, d, negate(a)):
        ints = s._ints.tolist()
        got = negate(s)._ints.tolist()
        assert got[0] == 0 and got == sorted({-n % q for n in ints})
        assert negate(negate(s)) == s and hash(negate(negate(s))) == hash(s)


def _gate_operands(delta, same):
    """(xs, ys): a segment ys whose SCATTER_PAIR_ORS * |ys| is delta or delta - 1
    past the dense kernel's word ORs and Python step per element of xs.

    A + B loops over 40 elements of xs, fewer word ORs than ys looping.
    """
    words = 64 * se.SCATTER_PAIR_ORS  # ys spans words - 1 words
    k = (words + se.DENSE_LOOP_ORS + delta) // se.SCATTER_PAIR_ORS
    assert se.SCATTER_PAIR_ORS * k - words - se.DENSE_LOOP_ORS in (delta, delta - 1)
    rng = random.Random(delta)
    top = 64 * (words - 1) - 1
    ys = sorted({0, top} | set(rng.sample(range(1, top), k - 2)))
    xs = ys if same else sorted(rng.sample(range(top), 40))
    return xs, ys


@pytest.mark.parametrize("delta", [-12, 0, 12])
@pytest.mark.parametrize("same", [True, False])
def test_dense_sums_on_both_sides_of_the_scatter_gate(delta, same):
    xs, ys = _gate_operands(delta, same)
    ran_all = []
    for a, b in ((xs, ys), (ys, xs)) if not same else ((xs, ys),):
        got, ran = _kernels(lambda: _pairsums_sorted(a, b))
        words, ran_words = _words_only(lambda: _pairsums_sorted(a, b))
        assert got == words == brute_sum(a, b)
        assert "scatter" not in ran_words
        ran_all.append(ran)
    scatters = ["dense", "scatter"]
    assert all((ran == scatters) == (delta < 0) for ran in ran_all), ran_all
    if same:
        assert _identical_and_copy(xs)[1] == (scatters if delta < 0 else ["dense", "trimmed"])


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_scatter_map_at_its_size_limit(monkeypatch, delta):
    # a sparse A + B whose output span is SCATTER_SPAN_LIMIT + delta, lowered
    monkeypatch.setattr(se, "SCATTER_SPAN_LIMIT", 1 << 14)
    rng = random.Random(delta)
    top = (1 << 14) - (1 << 12) - 1 + delta
    xs = sorted({0, 1 << 12} | set(rng.sample(range(1, 1 << 12), 38)))
    ys = sorted({0, top} | set(rng.sample(range(1, top), 38)))
    got, ran = _kernels(lambda: _pairsums_sorted(xs, ys))
    assert got == brute_sum(xs, ys)
    assert ran == (["dense", "scatter"] if delta <= 0 else ["dense"])


@pytest.mark.parametrize("chunk", [1 << 20, 1])
def test_scatter_in_blocks_matches_one_block(monkeypatch, chunk):
    # a torus A + A that scatters, from one block or from one row per block
    rng = random.Random(11)
    q = 999_983
    xs = sorted(rng.sample(range(q), 500))
    real = se._pair_blocks
    monkeypatch.setattr(se, "_pair_blocks", lambda n_a, n_b, same, budget:
                        real(n_a, n_b, same, min(budget, chunk)))
    same, ran = _kernels(lambda: se.torus_pairsums(xs, xs, q))
    assert ran == ["dense", "scatter"] and type(same) is se._Bitmap
    assert same.tolist() == sorted({(a + b) % q for a in xs for b in xs})


# ---------------------------------------------------------------------------
# Operand order of the dense kernel: _pairsums_int passes it (loop, segment),
# and of the orders whose segment fits it runs the one with fewer word ORs.

def _word_ors(loop, seg):
    return len(loop) * (seg[-1] - seg[0] + 64)


def _spy_dense(monkeypatch):
    calls = []
    kernel = se._dense_pairsums

    def spy(xs, ys, lo, span_out):
        calls.append((list(xs), list(ys)))
        return kernel(xs, ys, lo, span_out)
    monkeypatch.setattr(se, "_dense_pairsums", spy)
    return calls


def _pairsums_sorted(xs, ys):
    got = se._pairsums_int(xs, ys)
    if hasattr(got, "tolist"):
        # an int64 array or dense words: ascending and distinct, as many as counted
        ints = got.tolist()
        assert ints == sorted(set(ints)) and len(ints) == len(got)
        got = ints
    return sorted(got)


@st.composite
def _unequal_operands(draw):
    def operand():
        width = draw(st.sampled_from([1, 7, 64, 300, 2000, 1 << 14, 1 << 41]))
        lo = draw(st.integers(-(1 << 20), 1 << 20))
        return sorted(lo + v for v in draw(st.sets(st.integers(0, width), min_size=1,
                                                   max_size=120)))
    xs, ys = operand(), operand()
    assume(len(xs) != len(ys) and xs[-1] - xs[0] != ys[-1] - ys[0])
    return xs, ys


# a short operand against a long one, once wider and once a little narrower
_SHORT_WIDE = [0, 900, 1999, 3000, 4095]
_SHORT_NARROWER = [100, 150, 300, 390]
_LONG_NARROW = list(range(100, 400, 2))


@given(_unequal_operands())
@example((_SHORT_WIDE, _LONG_NARROW))
@example((_LONG_NARROW, _SHORT_WIDE))
@example((_SHORT_NARROWER, _LONG_NARROW))
@example((_LONG_NARROW, _SHORT_NARROWER))
@settings(deadline=None, max_examples=300)
def test_pairsums_in_either_operand_order_match_brute(operands):
    xs, ys = operands
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_dense(mp)
        assert _pairsums_sorted(xs, ys) == brute_sum(xs, ys)
    for loop, seg in calls:
        # the kernel got both operands, and no fitting order costs fewer ORs
        assert sorted((loop, seg)) == sorted((xs, ys))
        if loop[-1] - loop[0] < se.DENSE_SEG_LIMIT:
            assert _word_ors(loop, seg) <= _word_ors(seg, loop)


@pytest.mark.parametrize("kind", ["wide", "narrower"])
@pytest.mark.parametrize("first", ["short", "long"])
def test_dense_kernel_loops_over_the_short_operand(monkeypatch, kind, first):
    # 5 * (298 + 64) word ORs against 150 * (4095 + 64), and 4 * (298 + 64)
    # against 150 * (290 + 64): the short operand loops even when it is the
    # narrower one, which a rule by span alone would make the segment
    short = _SHORT_WIDE if kind == "wide" else _SHORT_NARROWER
    xs, ys = (short, _LONG_NARROW) if first == "short" else (_LONG_NARROW, short)
    calls = _spy_dense(monkeypatch)
    assert _pairsums_sorted(xs, ys) == brute_sum(xs, ys)
    assert calls == [(short, _LONG_NARROW)]


@pytest.mark.parametrize("first", ["narrow", "wide"])
def test_dense_order_tie_keeps_the_narrower_segment(monkeypatch, first):
    narrow, wide = [0, 18, 36], [0, 20, 50, 77, 100, 136]
    # 3 * (136 + 64) == 6 * (36 + 64) word ORs either way
    assert _word_ors(narrow, wide) == _word_ors(wide, narrow)
    xs, ys = (narrow, wide) if first == "narrow" else (wide, narrow)
    calls = _spy_dense(monkeypatch)
    assert _pairsums_sorted(xs, ys) == brute_sum(xs, ys)
    assert calls == [(wide, narrow)]


@pytest.mark.parametrize("delta", [0, 1])
def test_dense_segment_must_fit_even_when_it_is_cheaper(monkeypatch, delta):
    # |Y| = 200 over span 2^20 and |X| = 3000 whose span is DENSE_SEG_LIMIT - 1
    # + delta: X as the segment costs fewer word ORs, but only fits at delta 0
    rng = random.Random(delta)
    far = se.DENSE_SEG_LIMIT - 1 + delta
    xs = sorted({0, far} | set(rng.sample(range(1, far), 2998)))
    ys = sorted({0, 1 << 20} | set(rng.sample(range(1, 1 << 20), 198)))
    assert _word_ors(ys, xs) < _word_ors(xs, ys)
    calls = _spy_dense(monkeypatch)
    want = np.unique(np.add.outer(np.array(xs), np.array(ys))).tolist()
    assert _pairsums_sorted(xs, ys) == want
    assert calls == [(ys, xs) if delta == 0 else (xs, ys)]


def test_sorted_unique_matches_numpy_unique():
    rng = np.random.default_rng(4)
    for a in (np.array([], dtype=np.int64), np.array([7]), rng.integers(-5, 5, 200),
              rng.integers(-(1 << 62), 1 << 62, 5000),
              np.array([3, 1 << 70, 3, -(1 << 70)], dtype=object)):
        got, want = se.sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# A + A, one list as both operands: the dense and outer paths form each
# unordered pair once, and the dense word kernel trims (_trimmed_ors),
# skipping words already all ones.  Each must match A + copy(A), which forms
# every ordered pair on the plain loop, and brute force, with the dense
# path's scatter branch on and off.

def _kernels(run):
    """(run(), the pair-sum kernels it ran, in order).

    A dense call that scatters its pair sums into a bool map reads "dense",
    then "scatter".
    """
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_paths(mp)
        trim, blocks = se._trimmed_ors, se._pair_blocks

        def spy(*args):
            seen.append("trimmed")
            return trim(*args)

        def spy_blocks(*args):
            if seen[-1:] == ["dense"]:
                seen.append("scatter")
            return blocks(*args)
        mp.setattr(se, "_trimmed_ors", spy)
        mp.setattr(se, "_pair_blocks", spy_blocks)
        return run(), seen


def _words_only(run):
    """_kernels(run) with the dense path's scatter branch switched off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(se, "SCATTER_SPAN_LIMIT", 0)
        return _kernels(run)


def _identical_and_copy(xs, pairsums=_pairsums_sorted):
    """(A + A from the identical operand, its kernels), checked against A + copy(A).

    Both run again with the scatter branch switched off: then the identical
    operand trims whenever it runs dense, and the copy never trims.
    """
    same, ran = _kernels(lambda: pairsums(xs, xs))
    copy, ran_copy = _kernels(lambda: pairsums(xs, list(xs)))
    words, ran_words = _words_only(lambda: pairsums(xs, xs))
    words_copy, ran_words_copy = _words_only(lambda: pairsums(xs, list(xs)))
    assert same == copy == words == words_copy
    assert ran in (["dense", "trimmed"], ["dense", "scatter"], ["outer"])
    assert ran_words in (["dense", "trimmed"], ["outer"])
    assert "trimmed" not in ran_copy + ran_words_copy
    return same, ran


def _spy_runs(monkeypatch):
    runs = []
    finder = se._full_run

    def spy(out):
        runs.append(finder(out))
        return runs[-1]
    monkeypatch.setattr(se, "_full_run", spy)
    return runs


_OFFSETS = [0, -(1 << 20), 1 << 20, (1 << 62) - 4000, -(1 << 62) - 4000, 1 << 70]


@st.composite
def _one_operand(draw):
    lo = draw(st.sampled_from(_OFFSETS)) + draw(st.integers(-64, 64))
    if draw(st.booleans()):
        # blocks of consecutive ints, whose sums fill whole words
        blocks = draw(st.lists(st.tuples(st.integers(0, 3000), st.integers(1, 200)),
                               min_size=1, max_size=3))
        return sorted({lo + start + i for start, n in blocks for i in range(n)})
    width = draw(st.sampled_from([1, 7, 64, 300, 2000, 1 << 14, 1 << 41]))
    return sorted(lo + v for v in draw(st.sets(st.integers(0, width), min_size=1,
                                               max_size=120)))


@given(_one_operand())
@example(list(range(-200, 300)))
@settings(deadline=None, max_examples=300)
def test_identical_operands_match_a_copy_and_brute(xs):
    # every dense A + A on words trims (_identical_and_copy); the example fills words
    assert _identical_and_copy(xs)[0] == brute_sum(xs, xs)


@given(st.sampled_from([7, 64, 1000, (1 << 20) + 7, (1 << 62) + 1, I64_MAX, I64_MAX + 2,
                        (1 << 64) + 13, 1 << 70]),
       st.sets(st.integers(0, 1 << 80), min_size=1, max_size=60))
@example(64, set(range(40)))
@settings(deadline=None, max_examples=200)
def test_identical_torus_operands_fold_like_a_copy(q, raw):
    xs = sorted({n % q for n in raw})
    same, _ = _identical_and_copy(xs, lambda x, y: se.torus_pairsums(x, y, q).tolist())
    assert same == sorted({(a + b) % q for a in xs for b in xs})


def test_a_set_that_fills_within_one_check_interval(monkeypatch):
    # 2^18 consecutive ints span 4096 words, and every window the first
    # elements OR is full before the first search
    n = 1 << 18
    xs = list(range(n))
    runs = _spy_runs(monkeypatch)
    sums, ran = _kernels(lambda: se._pairsums_int(xs, xs).tolist())
    assert sums == list(range(2 * n - 1)) and ran == ["dense", "trimmed"]
    # the element 0 alone fills words [0, 4096)
    assert runs[0][0] == 0 and runs[0][1] > 4096
    # at the end every word is full but the last one, which holds 2n - 1
    assert runs[-1] == (0, (2 * n - 1) >> 6)


def test_an_orbit_doubling_never_fills_a_word(monkeypatch):
    # an orbit of N points mod q = 50 N + 1: B + B has 2N - 1 points mod q
    # and never sets all 64 bits of a word
    n, q = 6000, 300001
    xs = sorted(k * 123457 % q for k in range(1, n + 1))
    runs = _spy_runs(monkeypatch)
    sums, ran = _kernels(lambda: se._pairsums_int(xs, xs))
    assert ran == ["dense", "trimmed"]
    assert runs and set(runs) == {(0, 0)}
    assert sums.tolist() == _pairsums_sorted(xs, list(xs))
    assert len(se.torus_pairsums(xs, xs, q)) == 2 * n - 1


def test_two_far_clusters_fill_separate_runs(monkeypatch):
    # A + A of blocks of 2048 and 4096 ints at 0 and far is three blocks of
    # 4095, 6143 and 8191 sums, so the words fill in three separate runs.
    # The longest is the top one, which the windows of the upper block end
    # in, and far is odd, so the words at its edges hold sums but are not full.
    far = 300_001
    xs = list(range(2048)) + list(range(far, far + 4096))
    runs = _spy_runs(monkeypatch)
    want = [*range(4095), *range(far, far + 6143), *range(2 * far, 2 * far + 8191)]
    assert _identical_and_copy(xs) == (want, ["dense", "trimmed"])
    lo, hi = runs[-1]
    assert (lo, hi) == ((2 * far >> 6) + 1, (2 * far + 8191) >> 6)


@pytest.mark.parametrize("xs", [[5], [-7], [1 << 70], [I64_MAX]])
def test_a_single_element_doubles(xs):
    assert _identical_and_copy(xs)[0] == [2 * xs[0]]


def test_every_element_inside_one_word():
    for base in (0, 64 * 3, -64 * 5, 64 * 3 + 1):
        xs = [base + i for i in (0, 5, 17, 62)]
        assert _identical_and_copy(xs) == (brute_sum(xs, xs), ["dense", "scatter"])
        assert _words_only(lambda: _pairsums_sorted(xs, xs))[1] == ["dense", "trimmed"]


def test_the_kernel_follows_operand_identity_alone():
    # On words, A + A trims whatever its width: a set inside one word, and an
    # orbit's label doubling {1..N} + {1..N}, with 2N - 1 sums and folded onto Z/144
    one_word = [0, 5, 17, 62]
    assert _words_only(lambda: _pairsums_sorted(one_word, one_word)) == (
        brute_sum(one_word, one_word), ["dense", "trimmed"])
    for alpha, n, size in ((Fraction(123457, 1000003), 20_000, 39_999),
                           (Fraction(89, 144), 100, 144)):
        b = fractional_orbit(alpha, n)
        assert _words_only(lambda: sumset_size(b, b)) == (size, ["dense", "trimmed"])
    # A + B of two equal but distinct lists runs the plain loop, to the same ints
    for xs in (one_word, list(range(1, 20_001))):
        assert _words_only(lambda: _pairsums_sorted(xs, list(xs))) == (
            _pairsums_sorted(xs, xs), ["dense"])


def test_an_orbit_doubling_stays_on_words():
    # 0.02 word ORs per pair: the label doubling of a 20 000-point orbit, and
    # its A + B against a chosen subset, keep the word kernel
    b = fractional_orbit(Fraction(123457, 1000003), 20_000)
    assert _kernels(lambda: sumset_size(b, b)) == (39_999, ["dense", "trimmed"])
    xs = sorted(b.labels)
    assert _kernels(lambda: _pairsums_sorted(xs[::97], xs))[1] == ["dense"]


@pytest.mark.parametrize("xs", [
    [I64_MAX - 5, I64_MAX - 2, I64_MAX, I64_MAX + LIMB_LIMIT],
    [-I64_MAX - LIMB_LIMIT, -I64_MAX, -I64_MAX + 3, -I64_MAX + 4],
    [(1 << 62) + i for i in (0, 1, 9)] + [(1 << 62) + LIMB_LIMIT // 2],
    [-(1 << 63), 0, 1 << 63, 1 << 123]])
def test_identical_operands_at_the_int64_edge_past_the_limb_span(xs):
    # spans past the limb limit, from int64-edge elements: A + A on Python
    # ints forms each unordered pair once, as A + copy(A) forms them all
    assert _identical_and_copy(xs) == (brute_sum(xs, xs), ["outer"])
    assert se._pairsums_int(xs, xs).top.dtype == object


@pytest.mark.parametrize("xs, path", [
    ([I64_MAX - 5, I64_MAX - 2, I64_MAX], "dense"),
    ([-I64_MAX, -I64_MAX + 3, -I64_MAX + 4], "dense"),
    ([(1 << 62) + i for i in (0, 1, 9)], "dense"),
    ([-(1 << 63), 0, 1 << 63], "outer")])
def test_identical_operands_at_the_int64_edge_take_the_span_path(xs, path):
    # narrow spans at the int64 edge run dense on offsets; a span of 2^64
    # runs the outer path on two limbs
    same, ran = _identical_and_copy(xs)
    assert same == brute_sum(xs, xs) and ran[0] == path


# ---------------------------------------------------------------------------
# The word kernel ORs its loop operand one bit-shift class (t & 63) at a time,
# from shifted rows of the segment built at most se._TABLE_WORDS words (or
# one row) at a time: classes filled or empty, rows that spill into the
# word past the segment, and blocks that split the classes evenly or not.

def _class_operand(words, classes, n, seed):
    """About n ascending offsets over exactly `words` words, all of them in `classes`."""
    rng = random.Random(seed)
    picks = {64 * rng.randrange(words) + rng.choice(classes) for _ in range(n)}
    return sorted(picks | {classes[0], 64 * (words - 1) + classes[-1]})


_ALL_CLASSES = list(range(64))
# row widths (segment words + 1) at which one block holds exactly 64 or 32 rows
_WIDTH_64, _WIDTH_32 = se._TABLE_WORDS // 64, se._TABLE_WORDS // 32


@pytest.mark.parametrize("words, classes", [
    (300, [37]),  # every element in one class
    (300, [63]),  # one class, and every row spills into the segment's last word
    (300, [0, 1, 62, 63]),  # most classes empty
    *((width - 1, _ALL_CLASSES) for width in (_WIDTH_64 - 1, _WIDTH_64, _WIDTH_64 + 1,
                                              _WIDTH_32 - 1, _WIDTH_32, _WIDTH_32 + 1)),
    (se._TABLE_WORDS, _ALL_CLASSES)])  # wider than a block: one row per block
def test_the_class_kernel_matches_brute_and_a_copy(words, classes):
    xs = _class_operand(words, classes, 400, 1)
    ys = _class_operand(words, classes[::-1], 300, 2)

    def dense(a, b):
        return se._dense_pairsums(a, b, a[0] + b[0], a[-1] + b[-1] - a[0] - b[0] + 1).tolist()
    assert _words_only(lambda: dense(xs, xs)) == (brute_sum(xs, xs), ["dense", "trimmed"])
    assert _words_only(lambda: dense(xs, list(xs))) == (brute_sum(xs, xs), ["dense"])
    want = brute_sum(xs, ys)
    assert _words_only(lambda: dense(xs, ys)) == _words_only(lambda: dense(ys, xs)) == (
        want, ["dense"])


def test_a_dense_call_holds_no_64_row_table():
    # A + A of 8000 values over 2^20: a (64, words + 1) shift table would
    # take 8.4 MB (16 MiB traced, with its temporaries), and unpacking all
    # 2^21 output bits at once to count them 2 MiB more; with neither, the
    # call's traced peak, its output words included, stays under 2 MiB
    xs = sorted(random.Random(0).sample(range(1 << 20), 8000))
    lo, span = 2 * xs[0], 2 * (xs[-1] - xs[0]) + 1
    tracemalloc.start()
    try:
        got, ran = _kernels(lambda: se._dense_pairsums(xs, xs, lo, span))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert ran == ["dense", "trimmed"]
    assert np.array_equal(got.words, se._dense_pairsums(xs, list(xs), lo, span).words)


# ---------------------------------------------------------------------------
# Dense sums held as bitmap words (se._Bitmap): the count, the ints read from
# the words and the torus fold, against the outer and hash oracles.

# Operand bases whose sums, over widths up to 2^15 - 1, reach exactly -I64_MAX
# and I64_MAX; xs + xs stays inside int64 from either base.
_INT64_LO_BASES = (-(1 << 62) + 1, -I64_MAX + (1 << 62) - 1)
_INT64_HI_BASES = ((1 << 62) - (1 << 15), I64_MAX - (1 << 62) - (1 << 15) + 2)


@st.composite
def _dense_operands(draw):
    """(xs, ys): ascending operands whose sums fit int64, ys spanning under 2^15 bits.

    The bases put the smallest sum at or just above -I64_MAX, the largest at
    or just below I64_MAX, or the sums across zero; ys is xs half the time.
    """
    xlo, ylo = draw(st.sampled_from([(0, 0), (-(1 << 20), 7), _INT64_LO_BASES,
                                     _INT64_HI_BASES]))

    def operand(lo):
        width = draw(st.sampled_from([0, 1, 63, 64, 65, 3000, (1 << 15) - 1]))
        vals = draw(st.sets(st.integers(0, width), min_size=1, max_size=150))
        return sorted(lo + v for v in vals)
    xs = operand(xlo)
    return xs, xs if draw(st.booleans()) else operand(ylo)


@given(_dense_operands())
@example(([_INT64_LO_BASES[0]], [_INT64_LO_BASES[1]]))
@example(([_INT64_HI_BASES[0] + (1 << 15) - 1], [_INT64_HI_BASES[1] + (1 << 15) - 1]))
@settings(deadline=None, max_examples=300)
def test_dense_words_count_and_read_like_the_outer_and_hash_oracles(operands):
    # scattered (these operands are small) and, with scatter off, OR-ed words
    xs, ys = operands
    lo, hi = xs[0] + ys[0], xs[-1] + ys[-1]
    assert -I64_MAX <= lo and hi <= I64_MAX
    scattered = se._dense_pairsums(xs, ys, lo, hi - lo + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(se, "SCATTER_SPAN_LIMIT", 0)
        ored = se._dense_pairsums(xs, ys, lo, hi - lo + 1)
    for got in (scattered, ored):
        assert type(got) is se._Bitmap and got.lo == lo
        ints = got.tolist()
        assert len(got) == len(ints)
        assert ints == se._outer_pairsums(xs, ys).tolist() == brute_sum(xs, ys)
    assert np.array_equal(scattered.words, ored.words)


def _torus_operand(rng, q, where, size):
    # residues whose pair sums all lie below q, all at or above q, or both
    pool = {"below": range((q - 1) // 2), "above": range((q + 1) // 2, q),
            "across": range(q)}[where]
    return sorted(rng.sample(pool, size))


@pytest.mark.parametrize("q", [64 * 700, 64 * 700 + 1, 64 * 700 + 63])
@pytest.mark.parametrize("where", ["below", "above", "across"])
@pytest.mark.parametrize("same", [True, False])
def test_torus_fold_keeps_words_over_exactly_zero_to_q(monkeypatch, q, where, same):
    rng = random.Random(q)
    xs = _torus_operand(rng, q, where, 300)
    ys = xs if same else _torus_operand(rng, q, where, 200)
    seen = _spy_paths(monkeypatch)
    got = se.torus_pairsums(xs, ys, q)
    assert seen == ["dense"]
    assert type(got) is se._Bitmap and got.lo == 0 and len(got.words) == (q + 63) >> 6
    want = sorted({(a + b) % q for a in xs for b in ys})
    assert got.tolist() == want and len(got) == len(want)
    assert want == sorted({n % q for n in se._outer_pairsums(xs, ys).tolist()})


def test_narrow_sums_on_a_wide_circle_are_read_out_of_their_words(monkeypatch):
    # words over [0, q) would be far larger than the sums' own words, so the
    # fold runs on the ints, as for the outer path
    q = 1 << 40
    for base in (5, q - 3000):
        xs = list(range(base, base + 1500, 3))
        seen = _spy_paths(monkeypatch)
        got = se.torus_pairsums(xs, xs, q)
        assert seen == ["dense"] and isinstance(got, se._Sorted)
        assert got.tolist() == sorted({(a + b) % q for a in xs for b in xs})


def _bitmap(ints, lo, n_words):
    """A _Bitmap of ints set bit by bit, with bit 0 standing for lo."""
    words = np.zeros(n_words, dtype=np.uint64)
    for n in ints:
        words[(n - lo) >> 6] |= np.uint64(1 << ((n - lo) & 63))
    return se._Bitmap(words, lo)


def _limb_rows(ints, shift):
    """A two-limb _Sorted of ascending ints from ints[0], its rows given in reverse."""
    offs = np.array(ints[::-1], dtype=np.int64) - ints[0]
    return se._distinct_limbs((offs >> shift).astype(np.uint64),
                              (offs & ((1 << shift) - 1)).astype(np.uint64), ints[0], shift)


def test_equality_on_words_agrees_with_the_lowest_terms_key():
    rng = random.Random(7)
    ints = sorted(rng.sample(range(-3000, 3000), 900))
    moved = ints[:-1] + [ints[-1] + 1]
    n_words = ((ints[-1] - ints[0]) >> 6) + 2
    make = FiniteExactSet._from_ints
    rat = Domain.RATIONALS
    sets = {
        "words": make(_bitmap(ints, ints[0], n_words), 1, rat),
        "words again": make(_bitmap(ints, ints[0], n_words), 1, rat),
        "a longer map": make(_bitmap(ints, ints[0], n_words + 3), 1, rat),
        "a lower start": make(_bitmap(ints, ints[0] - 70, n_words + 2), 1, rat),
        "constructed": FiniteExactSet.rationals(ints[::-1]),
        "unordered limbs": make(_limb_rows(ints, 0), 1, rat),
        "limbs with tied tops": make(_limb_rows(ints, 4), 1, rat),
        "twice the scale": make(_bitmap([2 * n for n in ints], 2 * ints[0], 2 * n_words), 2,
                                rat),
        "one bit moved": make(_bitmap(moved, ints[0], n_words), 1, rat),
        "integers": make(_bitmap(ints, ints[0], n_words), 1, Domain.INTEGERS),
        "shifted": make(_bitmap([n + 64 for n in ints], ints[0] + 64, n_words), 1, rat),
    }
    assert type(sets["constructed"]._ints) is se._Sorted
    assert not sets["unordered limbs"]._ints.ordered and sets["limbs with tied tops"]._ints.ordered
    # words at one start, length, scale and domain compare without the key
    a, b = sets["words"], sets["words again"]
    assert a == b and "_key" not in a.__dict__ and "_key" not in b.__dict__
    assert a != sets["one bit moved"] and "_key" not in a.__dict__
    for s_name, s in sets.items():
        for t_name, t in sets.items():
            assert (s == t) == (s._key == t._key), (s_name, t_name)
            if s == t:
                assert hash(s) == hash(t)
    assert sets["words"] == sets["twice the scale"] == sets["a longer map"]
    assert sets["words"] != sets["integers"]
    assert sets["constructed"] == sets["unordered limbs"] == sets["limbs with tied tops"]


@pytest.mark.parametrize("q", [64 * 30 + 5, (1 << 64) + 13])
def test_one_set_compares_and_hashes_alike_in_every_form(q):
    # A + {0} is A: on words (dense) for the small circle, on unordered two
    # limbs for the wide one, against the constructor's own sorted offsets
    rng = random.Random(q)
    xs = sorted({rng.randrange(q) for _ in range(400)})
    a = FiniteExactSet.torus([Fraction(n, q) for n in xs])
    zero = FiniteExactSet.torus([0])
    for same in (sumset(a, zero), sumset(zero, a)):
        held = same._ints
        if q < 1 << 64:
            assert type(held) is se._Bitmap
        else:
            assert held.low is not None and not held.ordered
        assert "_key" not in vars(same) and same == a and hash(same) == hash(a)
        assert held.tolist() == a._ints.tolist() == xs


def test_torus_sums_in_either_order_compare_on_their_words():
    rng = random.Random(3)
    q = 64 * 500 + 1
    a = FiniteExactSet.torus([Fraction(n, q) for n in rng.sample(range(q), 300)])
    b = FiniteExactSet.torus([Fraction(n, q) for n in rng.sample(range(q), 250)])
    ab, ba = sumset(a, b), sumset(b, a)
    assert type(ab._ints) is type(ba._ints) is se._Bitmap
    assert ab == ba and "_key" not in ab.__dict__
    # A - A is symmetric: its words against themselves, and against the
    # Python ints of its negation, which compare by key
    d = difference_set(a, a)
    assert d == difference_set(a, a) and d == negate(d)


@pytest.mark.parametrize("domain", ["integers", "rationals", "torus"])
def test_a_set_holding_words_pickles_and_prints_as_its_elements(domain):
    import pickle
    ns = list(range(0, 6000, 7))
    q = 64 * 200 + 63
    if domain == "integers":
        a = FiniteExactSet.integers(ns)
        want = brute_sum(ns, ns)
    elif domain == "rationals":
        a = FiniteExactSet.rationals([Fraction(n, 3) for n in ns])
        want = [Fraction(n, 3) for n in brute_sum(ns, ns)]
    else:
        a = FiniteExactSet.torus([Fraction(n, q) for n in ns])
        want = [TorusPoint(Fraction(n, q)) for n in sorted({m % q for m in brute_sum(ns, ns)})]
    s = sumset(a, a)
    assert type(s._ints) is se._Bitmap and s._is_unread()
    eager = FiniteExactSet(want, domain)
    restored = pickle.loads(pickle.dumps(s))
    assert type(restored._ints) is se._Bitmap and restored._is_unread()
    assert restored == s == eager and len(restored) == len(want)
    assert repr(restored) == repr(s) == repr(eager)
    assert restored.elements == tuple(want)
    assert negate(restored) == negate(eager)


def test_a_set_holding_two_limb_offsets_pickles_and_reads_as_its_elements():
    # sums spanning past int64 stay unordered two-limb offsets until read
    import pickle
    rng = random.Random(9)
    ns = sorted({(1 << 70) + rng.randrange(1 << 69) for _ in range(300)})
    s = sumset(FiniteExactSet.integers(ns), FiniteExactSet.integers(ns))
    assert type(s._ints) is se._Sorted and s._ints.low is not None and s._is_unread()
    restored = pickle.loads(pickle.dumps(s))
    assert type(restored._ints) is se._Sorted and restored._is_unread()
    want = brute_sum(ns, ns)
    assert len(restored) == len(s) == len(want)
    assert restored.elements == s.elements == tuple(want)
    assert restored == FiniteExactSet.integers(want)
    assert negate(restored).elements == tuple(-n for n in reversed(want))


# ---------------------------------------------------------------------------
# Lazily lifted sets against an eager Fraction / TorusPoint reference.

def _eager(values, domain):
    """The elements the eager set held: sorted, distinct and canonical."""
    if domain is Domain.INTEGERS:
        return tuple(sorted(set(values)))
    if domain is Domain.RATIONALS:
        return tuple(sorted(set(values)))
    return tuple(TorusPoint(v) for v in sorted({v % 1 for v in values}))


def _value(e):
    return e.value if isinstance(e, TorusPoint) else e


def _eager_negate(elems, domain):
    return _eager([-_value(e) for e in elems], domain)


def _eager_difference(xe, ye, domain):
    return _eager([_value(a) - _value(b) for a in xe for b in ye], domain)


def _eager_sum(xe, ye, domain):
    return _eager([_value(a) + _value(b) for a in xe for b in ye], domain)


_numerators = st.one_of(st.integers(-40, 40), st.integers(-(1 << 70), 1 << 70))
_denominators = st.sampled_from([1, 2, 3, 4, 6, 12, 97, (1 << 62) + 1, 1 << 64])


@st.composite
def _operands(draw):
    domain = draw(st.sampled_from(list(Domain)))
    if domain is Domain.INTEGERS:
        values = st.one_of(st.integers(-40, 40), st.integers(-(1 << 66), 1 << 66))
    else:
        values = st.builds(Fraction, _numerators, _denominators)
    xs = draw(st.lists(values, max_size=10))
    ys = draw(st.lists(values, max_size=10))
    return domain, xs, ys


@given(_operands())
@settings(deadline=None, max_examples=250)
def test_lazy_elements_match_eager_reference(operands):
    domain, xs, ys = operands
    a, b = FiniteExactSet(xs, domain), FiniteExactSet(ys, domain)
    ea, eb = _eager(xs, domain), _eager(ys, domain)
    derived = {
        "a": (a, ea), "b": (b, eb),
        "neg a": (negate(a), _eager_negate(ea, domain)),
        "a+b": (sumset(a, b), _eager_sum(ea, eb, domain)),
        "a-b": (difference_set(a, b), _eager_difference(ea, eb, domain)),
        "b-a": (difference_set(b, a), _eager_difference(eb, ea, domain)),
        "-(a+b)": (negate(sumset(a, b)), _eager_negate(_eager_sum(ea, eb, domain), domain)),
        "(a+b)-b": (difference_set(sumset(a, b), b),
                    _eager_difference(_eager_sum(ea, eb, domain), eb, domain)),
    }
    for name, (got, want) in derived.items():
        assert len(got) == len(want), name
        assert got.elements == want, name
        rebuilt = FiniteExactSet(want, domain)
        assert got == rebuilt and hash(got) == hash(rebuilt), name
    items = list(derived.values())
    for s, es in items:
        for t, et in items:
            assert (s == t) == (es == et)
            if es == et:
                assert hash(s) == hash(t)


# ---------------------------------------------------------------------------
# The cover kernel against the full-rescoring cover it replaced, kept here
# verbatim as the reference: every field must match, certificate order too.

def reference_cover(b: FiniteExactSet, exact_limit: int = 24,
                    node_budget: int = 500_000) -> se.CoverResult:
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
        return se.CoverResult((), True, (), {})
    # The set algebra below runs on the set's own ints, in step with elems.
    dom, ints, scale = b.domain, b._ints.tolist(), b._scale
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
    cover = tuple(orig[n] for n in cover_ints)
    lifted = se._lift(universe, scale, dom)
    certificate = {key: (orig[witness[d][0]], orig[witness[d][1]])
                   for key, d in zip(lifted, universe)}
    return se.CoverResult(cover, exact, lifted, certificate)


def _assert_cover_matches_reference(b, **kwargs):
    got = minimal_difference_cover(b, **kwargs)
    want = reference_cover(b, **kwargs)
    assert got.cover == want.cover
    assert got.exact == want.exact
    assert got.universe == want.universe
    assert list(got.certificate.items()) == list(want.certificate.items())
    # the certificate is keyed by the universe's own point objects
    assert all(k is u for k, u in zip(got.certificate, got.universe))
    exact_limit = kwargs.get("exact_limit", 24)
    node_budget = kwargs.get("node_budget", 500_000)
    if 0 < len(b) <= exact_limit:
        assert 1 <= got.nodes <= node_budget
        assert got.budget_exhausted is (not got.exact)
    else:
        assert got.nodes == 0 and not got.budget_exhausted
    return got


@st.composite
def _cover_instances(draw):
    domain = draw(st.sampled_from(list(Domain)))
    if domain is Domain.INTEGERS:
        values = st.one_of(st.integers(-30, 30), st.integers(-(1 << 66), 1 << 66))
    elif domain is Domain.RATIONALS:
        values = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 12]))
    else:
        # small moduli give periodic sets, whose candidates share masks
        q = draw(st.sampled_from([4, 6, 12, 24, 97, (1 << 62) + 1]))
        values = st.builds(Fraction, st.integers(0, 200), st.just(q))
    b = FiniteExactSet(draw(st.lists(values, max_size=13)), domain)
    exact_limit = len(b) + draw(st.sampled_from([-1, 0]))
    node_budget = draw(st.sampled_from([1, 2, 5, 500_000]))
    return b, exact_limit, node_budget


@given(_cover_instances())
@settings(deadline=None, max_examples=300)
def test_cover_matches_reference(instance):
    # exact_limit is |B| or |B| - 1: both sides of the switch to greedy only
    b, exact_limit, node_budget = instance
    _assert_cover_matches_reference(b, exact_limit=exact_limit, node_budget=node_budget)


def test_cover_matches_reference_on_random_sets():
    rng = random.Random(12)
    for size in (24, 25, 60, 200):
        q = rng.randrange(45_000, 50_001)
        vals = rng.sample(range(q), size)
        _assert_cover_matches_reference(FiniteExactSet.torus([Fraction(v, q) for v in vals]))
        _assert_cover_matches_reference(FiniteExactSet.integers(vals))
        _assert_cover_matches_reference(FiniteExactSet.rationals(
            [Fraction(v, rng.choice([1, 7, 10])) for v in vals]))


def _ap_plus_random(seed, q, block, step, extra):
    rng = random.Random(seed)
    vals = {i * step for i in range(block)}
    while len(vals) < block + extra:
        vals.add(rng.randrange(q))
    return sorted(vals)


def _clusters(seed, q, count, width, gap):
    rng = random.Random(seed)
    vals = set()
    for _ in range(count):
        start = rng.randrange(q - width * gap)
        vals.update(range(start, start + width * gap, gap))
    return sorted(vals)


@pytest.mark.parametrize("vals, sizes", [
    # an arithmetic block of 150 with step 7, and 46 random residues
    (_ap_plus_random(0, 4001, 150, 7, 46), {"torus": 111, "integers": 195, "rationals": 195}),
    # 11 clusters of 15 residues spaced 3 apart
    (_clusters(1, 4001, 11, 15, 3), {"torus": 24, "integers": 23, "rationals": 23}),
    # 20 runs of 15 consecutive residues
    (_clusters(4, 4001, 20, 15, 1), {"torus": 45, "integers": 48, "rationals": 48}),
])
def test_cover_matches_reference_where_the_greedy_skips_candidates(vals, sizes):
    # random sets need all of B, so there every row is picked; here the greedy
    # cover leaves rows out, and its tie rule and gain updates decide which
    q = 4001
    sets = {"torus": FiniteExactSet.torus([Fraction(v, q) for v in vals]),
            "integers": FiniteExactSet.integers(vals),
            "rationals": FiniteExactSet.rationals([Fraction(v, 7) for v in vals])}
    for name, b in sets.items():
        assert 150 <= len(b) <= 300
        got = _assert_cover_matches_reference(b)
        assert len(got.cover) == sizes[name] < len(b)


@pytest.mark.parametrize("vals, cover, nodes", [
    ([0, 2, 7, 8, 11, 12, 15, 16, 22, 28, 29, 32, 33, 40], (0, 2, 8, 11, 15, 29, 32, 33, 40), 15),
    ([2, 4, 8, 17, 19, 21, 22, 23, 26, 32, 34, 35, 36], (2, 4, 8, 17, 19, 22, 23, 26, 34, 35, 36), 13),
    ([3, 4, 6, 7, 10, 18, 20, 23, 24, 29, 32, 33, 34, 39], (3, 4, 6, 7, 10, 24, 32, 33, 34, 39), 15),
])
def test_exact_cover_branches_on_writers_in_candidate_order(vals, cover, nodes):
    # several optimal covers exist, and the search keeps the first it finds:
    # the cover and node count pin the order each difference's writers are tried
    got = _assert_cover_matches_reference(FiniteExactSet.integers(vals))
    assert (got.cover, got.nodes, got.exact) == (cover, nodes, True)


def test_cover_node_budget_runs_out_on_the_greedy_cover():
    # the exact search finds 8 covers, the greedy one 9
    b = FiniteExactSet.integers([4, 11, 15, 16, 19, 22, 23, 25, 28, 30])
    full = _assert_cover_matches_reference(b)
    assert full.exact and len(full.cover) == 8 and full.nodes > 2
    greedy = _assert_cover_matches_reference(b, exact_limit=0)
    assert not greedy.exact and len(greedy.cover) == 9
    for node_budget in (1, 2):
        cut = _assert_cover_matches_reference(b, node_budget=node_budget)
        assert not cut.exact and cut.budget_exhausted
        assert cut.nodes == node_budget
        assert cut.cover == greedy.cover


@pytest.mark.parametrize("spread, dtype", [
    (I64_MAX - 1, np.int64), (I64_MAX, object), (I64_MAX + 1, object)])
@pytest.mark.parametrize("lo", [0, -(1 << 62), 1 << 70])
def test_integer_cover_at_the_int64_spread(spread, dtype, lo):
    # differences of offsets from lo reach +-spread
    vals = [lo, lo + 1, lo + 3, lo + spread - 2, lo + spread]
    assert se._difference_table([v - lo for v in vals], 1, Domain.INTEGERS)[0].dtype == dtype
    cov = _assert_cover_matches_reference(FiniteExactSet.integers(vals))
    assert max(cov.universe) == spread


@pytest.mark.parametrize("q, dtype", [
    ((1 << 62) - 1, np.int64), ((1 << 62) + 1, np.int64), (I64_MAX - 1, np.int64),
    (I64_MAX, object), (1 << 70, object)])
def test_torus_cover_at_the_int64_fold(q, dtype):
    # residues near 0 and near q: differences reach -(q - 1) before the fold
    # adds q, and folded ones reach both ends of [0, q)
    ints = [0, 1, 2, q - 3, q - 1]
    assert se._difference_table(ints, q, Domain.TORUS)[0].dtype == dtype
    cov = _assert_cover_matches_reference(
        FiniteExactSet.torus([Fraction(n, q) for n in ints]))
    assert cov.universe[-1] == TorusPoint(Fraction(q - 1, q))


# ---------------------------------------------------------------------------
# The cover keeps B - B and its witnesses as ints: universe and certificate
# are lifted together on first read, and only then.

def test_cover_lifts_its_universe_only_when_read(lifts):
    rng = random.Random(12)
    q = 1_000_003
    b = FiniteExactSet.torus([Fraction(v, q) for v in rng.sample(range(q), 120)])
    cov = minimal_difference_cover(b)
    assert not cov.exact and cov.nodes == 0 and not cov.budget_exhausted
    # the cover's own points are all that is lifted
    assert len(lifts) == len(cov.cover)
    assert "universe" not in vars(cov) and "certificate" not in vars(cov)
    assert set(cov.cover) <= set(b.elements)
    del lifts[:]
    universe = cov.universe
    assert len(universe) == len(difference_set(b, b)) > len(b) ** 2 // 2
    # B - B, and B for the certificate's pairs, lifted together
    assert len(lifts) == len(b) + len(universe)
    certificate = cov.certificate
    assert all(k is u for k, u in zip(certificate, universe))
    # later reads return the cached objects and lift nothing more
    for _ in range(2):
        assert cov.universe is universe and cov.certificate is certificate
    assert len(lifts) == len(b) + len(universe)
    assert cov == reference_cover(b)


def test_torus_cover_lifts_only_its_cover_until_read(lifts):
    b = FiniteExactSet.torus([Fraction(v, 41) for v in range(0, 41, 3)])
    size = len(difference_set(b, b))
    for read in ("universe", "certificate"):
        del lifts[:]
        cov = minimal_difference_cover(b)
        assert cov.exact and len(lifts) == len(cov.cover) < len(b)
        assert len(cov.certificate if read == "certificate" else cov.universe) == size
        assert len(lifts) == len(cov.cover) + len(b) + size


def test_lazy_cover_result_matches_an_eager_one():
    import copy
    import dataclasses
    import pickle

    b = FiniteExactSet.torus([Fraction(n, 10) for n in (0, 1, 2, 3)])
    lifted = minimal_difference_cover(b)
    eager = se.CoverResult(lifted.cover, lifted.exact, lifted.universe, lifted.certificate,
                           lifted.nodes, lifted.budget_exhausted)
    lazy = lambda: minimal_difference_cover(b)  # noqa: E731
    assert lazy() == eager and eager == lazy()
    assert repr(lazy()) == repr(eager)
    assert dataclasses.replace(lazy(), nodes=7) == dataclasses.replace(eager, nodes=7)
    restored = pickle.loads(pickle.dumps(lazy()))
    assert "universe" not in vars(restored)
    assert restored == eager and repr(restored) == repr(eager)
    assert all(k is u for k, u in zip(restored.certificate, restored.universe))
    read = pickle.loads(pickle.dumps(lifted))
    assert read == eager
    assert all(k is u for k, u in zip(read.certificate, read.universe))
    assert copy.copy(lazy()) == eager and copy.deepcopy(lazy()) == eager
    assert not hasattr(lazy(), "witnesses")
    with pytest.raises(dataclasses.FrozenInstanceError):
        lazy().universe = ()


def test_a_failed_lift_keeps_the_cover_unread(monkeypatch):
    b = FiniteExactSet.torus([Fraction(n, 41) for n in range(0, 41, 3)])
    cov = minimal_difference_cover(b)
    lift, failed = se._lift, []

    def lift_failing_once(*args):
        if not failed:
            failed.append(args)
            raise MemoryError("no room to lift")
        return lift(*args)

    monkeypatch.setattr(se, "_lift", lift_failing_once)
    with pytest.raises(MemoryError):
        cov.universe
    assert failed and "universe" not in vars(cov) and "certificate" not in vars(cov)
    assert "_ints" in vars(cov)
    # the next read lifts from the integers the failed one left in place
    universe, certificate = cov.universe, cov.certificate
    assert all(k is u for k, u in zip(certificate, universe))
    assert "_ints" not in vars(cov)
    assert cov == minimal_difference_cover(b)


def test_a_lifted_cover_drops_its_integer_form():
    import pickle

    b = FiniteExactSet.torus([Fraction(n, 41) for n in range(0, 41, 3)])
    cov = minimal_difference_cover(b)
    assert "_ints" in vars(cov)
    universe = cov.universe
    # B - B and the witness rows are held by nothing once both fields are stored
    assert "_ints" not in vars(cov) and cov.certificate is vars(cov)["certificate"]
    assert cov.universe is universe and cov == minimal_difference_cover(b)
    eager = se.CoverResult(cov.cover, cov.exact, cov.universe, cov.certificate,
                           cov.nodes, cov.budget_exhausted)
    assert cov == eager and repr(cov) == repr(eager)
    restored = pickle.loads(pickle.dumps(cov))
    assert "_ints" not in vars(restored) and restored == eager == cov
    assert all(k is u for k, u in zip(restored.certificate, restored.universe))


# ---------------------------------------------------------------------------
# One clearing branch.  The parent's rationals and torus branches, which built
# a set of Fractions or of TorusPoints before clearing it, are kept verbatim
# as the reference.

def _parent_clearing(elements, dom):
    if dom is Domain.RATIONALS:
        ints, scale = residues({as_rational(x) for x in elements})
    else:
        ints, scale = residues({x if isinstance(x, TorusPoint) else reduce_mod1(x)
                                for x in elements})
    return ints, scale


@st.composite
def _clearing_inputs(draw):
    domain = draw(st.sampled_from([Domain.RATIONALS, Domain.TORUS]))
    fracs = draw(st.lists(st.builds(Fraction, _numerators, _denominators), max_size=8))
    # shifted copies are equal mod 1, unshifted ones are repeats
    fracs += [f + draw(st.integers(-3, 3))
              for f in draw(st.lists(st.sampled_from(fracs), max_size=4))] if fracs else []
    forms = [lambda f: f, str, lambda f: f.numerator if f.denominator == 1 else f]
    if domain is Domain.TORUS:
        forms.append(lambda f: TorusPoint(f % 1))
    values = [draw(st.sampled_from(forms))(f) for f in fracs]
    values += draw(st.lists(st.sampled_from(["0.625", "-1.25", "3", "7/2", "-0"]), max_size=3))
    return domain, draw(st.permutations(values))


@given(_clearing_inputs())
@example((Domain.RATIONALS, []))
@example((Domain.TORUS, []))
@settings(deadline=None, max_examples=300)
def test_clearing_matches_the_parent(case):
    domain, values = case
    ints, scale = _parent_clearing(values, domain)
    got = FiniteExactSet(values, domain)
    assert got._ints.tolist() == sorted(set(ints)) and len(got._ints) == len(ints)
    assert got._scale == scale
    assert got.elements == se._lift(sorted(ints), scale, domain)


@pytest.mark.parametrize("domain, values", [
    (Domain.RATIONALS, [Fraction(1, 2), 0.5]), (Domain.TORUS, [Fraction(1, 2), 0.5]),
    (Domain.RATIONALS, [True]), (Domain.TORUS, [3, False]),
    (Domain.RATIONALS, [Fraction(1, 3), TorusPoint(Fraction(1, 2))]),
])
def test_clearing_rejects_what_the_parent_rejected(domain, values):
    with pytest.raises(TypeError) as want:
        _parent_clearing(values, domain)
    with pytest.raises(TypeError) as got:
        FiniteExactSet(values, domain)
    assert str(got.value) == str(want.value)
