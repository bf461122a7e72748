"""canonical_json against its reference, json.dumps(to_jsonable(x), sort_keys=True, indent=2)."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab.exact_torus import INT64_MAX, Cleared, TorusPoint, TorusVector
from gaplab.gap_spectrum import CircularSet, Wrap, fractional_orbit
from gaplab.generator_decomposition import Side
from gaplab.nn_census import CensusReport, NNRecord, PointCloud, _brute_rows_exact, nn_census
from gaplab.reports import _residue_texts, canonical_json, to_jsonable
from gaplab.sumset_engine import FiniteExactSet, sumset


def reference(x) -> str:
    return json.dumps(to_jsonable(x), sort_keys=True, indent=2)


def assert_same(x) -> str:
    text = canonical_json(x)
    assert text == reference(x)
    return text


unit_rationals = st.fractions(min_value=0, max_value=Fraction(996, 997), max_denominator=997)
fractions = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
points = unit_rationals.map(TorusPoint)
vectors = st.lists(unit_rationals, min_size=1, max_size=3).map(lambda xs: TorusVector(tuple(xs)))


def _circular_set(values, labelled, read):
    s = CircularSet.from_values(values, labels=list(range(len(values))) if labelled else None)
    if read:
        s.points
    return s


circular_sets = st.builds(_circular_set, st.lists(unit_rationals, max_size=6, unique=True),
                          st.booleans(), st.booleans())
# lists and rows (of one length or several) of any ints, over scales to past 2^64
scales = st.integers(1, 12) | st.sampled_from([997, 2 ** 63 - 1, 2 ** 64 + 13])
wide_ints = st.integers(-50, 50) | st.integers(-2 ** 70, 2 ** 70)
cleared = st.builds(Cleared, st.lists(wide_ints, min_size=1, max_size=5).map(tuple)
                    | st.lists(st.lists(wide_ints, min_size=1, max_size=3).map(tuple),
                               min_size=1, max_size=4).map(tuple), scales)
hashables = st.integers() | st.text(max_size=4) | fractions | points | vectors
leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
          | fractions | points | vectors | st.sampled_from(list(Wrap) + list(Side))
          | circular_sets | cleared)
documents = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(hashables, children, max_size=4)
                      | st.sets(hashables, max_size=4)
                      | st.frozensets(hashables, max_size=4)
                      | st.builds(NNRecord, children, children, children, children)),
    max_leaves=24)


@given(documents)
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_the_reference_encoder(doc):
    assert_same(doc)


@given(st.lists(st.integers(-3, 3) | st.integers(-2 ** 66, 2 ** 66)
                | st.sampled_from([-INT64_MAX - 1, -INT64_MAX, INT64_MAX, INT64_MAX + 1]),
                max_size=12),
       st.integers(1, 40) | st.sampled_from([997, INT64_MAX, INT64_MAX + 1, 2 ** 64 + 13]),
       st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
@example([0, 1, 2, 3, 5], 1, 0)       # one denominator, 1
@example([1, 2, 3, 5, -6], 7, 0)      # one denominator, 7
@example([0, 7, -7, 14, 8], 7, 0)     # zero and multiples of the scale
@example([-INT64_MAX - 1, 3], 6, 0)   # the one int64 value whose absolute value is not one
@example([5, -5], 2 ** 64 + 13, 0)    # a scale past int64
def test_residue_texts_are_the_fraction_texts(ns, scale, shift):
    # any ints n, negative or past the scale, and the same list moved by shift scales
    from unittest import mock

    from gaplab import reports

    ns = [n + shift * scale for n in ns]
    want = [f'"{Fraction(n, scale)}"' for n in ns]
    assert _residue_texts(ns, scale) == want
    distinct = set(ns)
    assert _residue_texts(distinct, scale) == [f'"{Fraction(n, scale)}"' for n in distinct]
    # np.gcd on every list, whole or in blocks of one denominator or several
    with mock.patch.object(reports, "_TEXT_NUMPY_MIN", 1):
        assert _residue_texts(ns, scale) == want
        with mock.patch.object(reports, "_TEXT_BLOCK", 3):
            assert _residue_texts(ns, scale) == want


def test_a_shared_vector_at_two_depths():
    v = TorusVector.of("1/3", "1/2")
    doc = {"a": v, "b": [v, {"c": v}], "d": (v, v)}
    text = assert_same(doc)
    assert json.loads(text)["b"][1]["c"] == ["1/3", "1/2"]


def test_census_records_that_share_their_cloud_vectors():
    cloud = PointCloud.from_values([("0", "0"), ("1/7", "0"), ("3/7", "1/2"), ("1/2", "1/3")])
    rep = nn_census(cloud, method="brute")
    assert rep.records[0].point is cloud.points[0]
    assert_same({"report": rep, "points": cloud.points})


def test_an_orbit_is_written_from_its_residues_without_lifting(lifts):
    orbit = fractional_orbit("13/97", 40)
    doc = {"orbit": orbit, "nested": [[orbit]]}
    unread = canonical_json(doc)
    assert lifts == [] and "points" not in orbit.__dict__
    # the reference reads the points, which lifts them
    assert unread == reference(doc)
    assert len(lifts) == 40 and "points" in orbit.__dict__
    assert canonical_json(doc) == unread


def _eager_census(cloud, method):
    """The census report of cloud built on Fractions, from the all-pairs oracle."""
    pts = cloud.points
    rows = _brute_rows_exact(cloud)
    records = tuple(NNRecord(pts[i], pts[j], signed, nsq) for i, (nsq, signed, j) in enumerate(rows))
    return CensusReport(cloud.dim, method, records, tuple(sorted({r[1] for r in rows})))


def _census_clouds():
    """(rows, q) of clouds for d = 1..4: a small q, an int64 one and one past int64's norm
    bound, each with a zero coordinate, once as drawn and once scaled by 6."""
    rng = random.Random(7)
    for d in (1, 2, 3, 4):
        for q in (60, 997, (1 << 40) + 15):
            rows = {tuple(rng.randrange(q) for _ in range(d)) for _ in range(40)}
            rows |= {(0,) * d, (q // 2,) + (0,) * (d - 1)}
            yield sorted(rows), q
            # the common factor 6 reduces away
            yield [tuple(6 * x for x in r) for r in sorted(rows)], 6 * q


CENSUS_CLOUDS = list(_census_clouds())


@pytest.mark.parametrize("method", ["brute", "grid"])
@pytest.mark.parametrize("rows, q", CENSUS_CLOUDS,
                         ids=[f"d{len(rows[0])}-q{q}" for rows, q in CENSUS_CLOUDS])
def test_an_unread_census_is_written_from_its_rows(rows, q, method, lifts):
    cloud = PointCloud._from_rows(rows, q)
    rep = nn_census(cloud, method)
    docs = [rep, {"report": rep}, [1, {"a": [rep]}, rep]]
    unread = [canonical_json(doc) for doc in docs]
    size = rep.census_size
    assert lifts == [] and "records" not in rep.__dict__ and "points" not in cloud.__dict__
    assert unread == [reference(doc) for doc in docs]
    # read, the report is the one built on Fractions and writes the same text
    assert "records" in rep.__dict__
    assert rep == _eager_census(cloud, method)
    assert size == len(rep.census) == len(json.loads(unread[0])["census"])
    assert [canonical_json(doc) for doc in docs] == unread


def test_census_residues_reduce_over_the_cloud_scale():
    cloud = PointCloud._from_rows([(0, 0), (4, 6), (6, 8), (10, 2)], 12)
    assert cloud._rows == ([(0, 0), (2, 3), (3, 4), (5, 1)], 6)
    text = canonical_json(nn_census(cloud, "brute"))
    assert json.loads(text)["records"][1] == {
        "diff": ["1/6", "1/6"], "dist_sq": "1/18", "nearest": ["1/2", "2/3"],
        "point": ["1/3", "1/2"]}
    assert text == reference(nn_census(cloud, "brute"))


def test_residues_are_reduced_and_zero_is_zero():
    s = CircularSet.from_values(["1/2", "1/3", "0", "5/6"])
    assert s.labels is None and s._residues == ([0, 2, 3, 5], 6)
    text = assert_same(s)
    assert json.loads(text) == {"labels": None, "points": ["0", "1/3", "1/2", "5/6"],
                                "wrap": "include_wrap"}
    assert_same(CircularSet((TorusPoint(Fraction(0)), TorusPoint(Fraction(1, 4)))))
    assert_same(CircularSet.from_values([], wrap=Wrap.EXCLUDE))


def test_enums_sets_and_non_string_keys():
    v = TorusVector.of("1/3", "1/2")
    doc = {"wraps": [Wrap.INCLUDE, Wrap.EXCLUDE], "side": Side.MINUS,
           "set": {9, 10, 100}, "frozen": frozenset({"b", "a", "ab", Fraction(1, 9)}),
           Fraction(3, 4): 1, TorusPoint(Fraction(1, 5)): 2, v: 3, 7: 4, Wrap.INCLUDE: 5}
    text = assert_same(doc)
    loaded = json.loads(text)
    assert loaded["set"] == [10, 100, 9]
    assert loaded['["1/3", "1/2"]'] == 3 and loaded["3/4"] == 1 and loaded["7"] == 4
    assert loaded["include_wrap"] == 5


def test_empty_containers():
    for doc in ([], (), {}, {"a": [], "b": (), "c": {}, "d": [[], {}, ()]}):
        assert_same(doc)


def test_bools_next_to_ints_and_floats():
    text = assert_same({"values": [True, 1, False, 0, None],
                        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 0.1]})
    assert '"values": [\n    true,\n    1,\n    false,\n    0,\n    null\n  ]' in text
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text and "1e+300" in text


def test_strings_that_need_escaping():
    strings = ["é", "雪", "😀", "\u2028", '"quoted"', "back\\slash", "\n\t\x00\x1f"]
    text = assert_same({s: s for s in strings})
    assert text.isascii()


def test_dataclass_fields_are_sorted():
    rec = NNRecord(TorusVector.of("1/2"), TorusVector.of("0"), (Fraction(1, 2),), Fraction(1, 4))
    text = assert_same(rec)
    assert list(json.loads(text)) == ["diff", "dist_sq", "nearest", "point"]


def test_an_unserialisable_object_raises_to_jsonables_error():
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        to_jsonable({"x": [object()]})
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        canonical_json({"x": [object()]})


def test_unread_clouds_over_two_scales_share_one_document(lifts):
    # the same residues over 5, 7 and 49 (a census's squared distances) must not
    # share texts, and each cloud is written at two depths
    a = PointCloud._from_rows([(1, 2), (3, 4), (0, 1)], 5)
    b = PointCloud._from_rows([(1, 2), (3, 4), (0, 1)], 7)
    doc = {"a": a, "b": [b, {"a": a}], "census": nn_census(b, "brute")}
    text = canonical_json(doc)
    assert lifts == []
    assert text == reference(doc)


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("make", [
    lambda: FiniteExactSet.integers([5, -3, 8, 0]),
    lambda: sumset(*[FiniteExactSet.rationals([Fraction(1, 3), Fraction(-5, 2), 4])] * 2),
    lambda: sumset(FiniteExactSet.torus(["1/8", "1/2", "0"]), FiniteExactSet.torus(["1/4", "3/8"])),
    lambda: FiniteExactSet.torus([]),
], ids=["integers", "rationals-sum", "torus-sum", "empty"])
def test_finite_exact_sets_equal_the_reference(make, read):
    s = make()
    if read:
        s.elements
    assert ("elements" in vars(s)) is read
    assert_same({"set": s, "sets": [s, s]})
    assert json.loads(assert_same(s)) == {"domain": s.domain.value,
                                          "elements": json.loads(reference(s.elements))}
