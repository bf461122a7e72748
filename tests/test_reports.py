"""canonical_json against its reference, json.dumps(to_jsonable(x), sort_keys=True, indent=2)."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab.exact_torus import INT64_MAX, Cleared, TorusPoint, TorusVector
from gaplab.gap_spectrum import CircularSet, Wrap, fractional_orbit
from gaplab.generator_decomposition import Side
from gaplab.nn_census import CensusReport, NNRecord, PointCloud, _brute_rows_exact, nn_census
from gaplab.reports import _residue_texts, _values_text, canonical_json, to_jsonable
from gaplab.sumset_engine import FiniteExactSet, sumset

from conftest import held_rows, int_array


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
    # as arrays, which the writer passes: object, and int64 where every value fits
    assert _residue_texts(np.array(ns, dtype=object), scale) == want
    if all(-INT64_MAX - 1 <= n <= INT64_MAX for n in ns):
        assert _residue_texts(np.array(ns, dtype=np.int64), scale) == want
    # np.gcd on every list, of one denominator or several; and the field of those texts
    field = json.dumps([Fraction(n, scale) for n in ns], default=str, indent=2)
    assert _values_text(ns, scale, 0) == field
    with mock.patch.object(reports, "_TEXT_NUMPY_MIN", 1):
        assert _residue_texts(ns, scale) == want
        assert _values_text(ns, scale, 0) == field


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
    cloud = PointCloud._from_rows(int_array(rows), q)
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


def _array_cases():
    """(name, Cleared) of the census writer's array path: d = 1..4 over a prime and a
    power of two, fully tied lattices, two points, rows over 2^64 + 13, and echoes
    over another scale than the reduced cloud's."""
    rng = random.Random(11)
    for q in (997, 4096):
        for d in (1, 2, 3, 4):
            rows = {tuple(rng.randrange(q) for _ in range(d)) for _ in range(60)}
            yield f"d{d}-q{q}", Cleared(tuple(sorted(rows | {(0,) * d})), q)
    for k, d in ((5, 1), (4, 2), (3, 3), (2, 4)):
        # every point has the same least signed vector: one diff for every record
        yield f"lattice-{k}^{d}", Cleared(tuple(itertools.product(range(k), repeat=d)), k)
    yield "two-points", Cleared(((0, 3), (5, 1)), 7)
    q = (1 << 64) + 13
    rows = {(rng.randrange(q), rng.randrange(q), 0) for _ in range(40)}
    yield "past-int64", Cleared(tuple(rows), q)
    # the echo over 6 * 35 with values out of [0, scale); the cloud reduces to 35
    yield "echo-scale", Cleared(tuple((6 * x - 210, 6 * y + 420) for x, y in
                                      ((0, 0), (5, 7), (14, 21), (20, 3), (34, 34))), 210)


ARRAY_CASES = list(_array_cases())


@pytest.mark.parametrize("method", ["brute", "grid"])
@pytest.mark.parametrize("name, points", ARRAY_CASES, ids=[name for name, _ in ARRAY_CASES])
def test_a_census_and_its_echo_are_written_from_arrays(name, points, method, lifts):
    cloud = PointCloud.from_values(points)
    doc = {"config": {"points": points}, "report": nn_census(cloud, method),
           "cloud": cloud, "echoes": [points, [points]]}
    text = canonical_json(doc)
    assert lifts == []
    assert text == reference(doc)
    census = json.loads(text)["report"]["census"]
    assert len(census) == 1 if name.startswith("lattice") else len(census) > 1
    assert (cloud.common_scale() == points.scale) is (name != "echo-scale")


@pytest.mark.parametrize("rows", [((0, 1), (2, 0)), ((0,), (3, 4, -1)), (0, 5, -7)])
def test_an_echo_over_scale_one_equals_the_reference(rows):
    assert_same({"points": Cleared(rows, 1)})


def test_census_residues_reduce_over_the_cloud_scale():
    cloud = PointCloud._from_rows(int_array([(0, 0), (4, 6), (6, 8), (10, 2)]), 12)
    assert held_rows(cloud) == ([[0, 0], [2, 3], [3, 4], [5, 1]], 6, np.int64)
    text = canonical_json(nn_census(cloud, "brute"))
    assert json.loads(text)["records"][1] == {
        "diff": ["1/6", "1/6"], "dist_sq": "1/18", "nearest": ["1/2", "2/3"],
        "point": ["1/3", "1/2"]}
    assert text == reference(nn_census(cloud, "brute"))


def test_residues_are_reduced_and_zero_is_zero():
    s = CircularSet.from_values(["1/2", "1/3", "0", "5/6"])
    assert s.labels is None and (s._residues[0].tolist(), s._residues[1]) == ([0, 2, 3, 5], 6)
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
    a = PointCloud._from_rows(int_array([(1, 2), (3, 4), (0, 1)]), 5)
    b = PointCloud._from_rows(int_array([(1, 2), (3, 4), (0, 1)]), 7)
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


# ---------------------------------------------------------------------------
# Orbit documents from arrays: an orbit's residues and labels, and every field
# of values over one scale, are written by one % over a whole-field template.

_Q_EDGE = INT64_MAX // 1000  # N * q crosses INT64_MAX between N = 1000 and 1001


@pytest.mark.parametrize("alpha, n", [
    ("1234567/9999991", 2000),  # a prime q: one denominator
    ("12345/65536", 3000),  # q = 2^16: the even residues reduce
    ("1234567/9699690", 4000),  # 2*3*5*7*11*13*17*19: many denominators
    ("5/97", 1), ("5/97", 2), ("5/97", 96),  # N = 1, 2 and q - 1
    ("511/1024", 1023),
    (f"{_Q_EDGE // 3 + 1}/{_Q_EDGE}", 1000),  # N * q below INT64_MAX
    (f"{_Q_EDGE // 3 + 1}/{_Q_EDGE}", 1001),  # and past it: object residues
    (f"12345678901234567891/{2 ** 64 + 13}", 300),  # q past 2^64
])
@pytest.mark.parametrize("command", ["orbit", "gaps", "greedy"])
def test_orbit_documents_equal_the_reference(command, alpha, n):
    from gaplab.cli import build_parser

    if command == "greedy" and n < 2:
        return
    args = build_parser().parse_args([command, "--alpha", alpha, "--n", str(n)])
    body = args.fn(args)
    assert_same(body)  # the writer first: the reference lifts every point


@pytest.mark.parametrize("values, scale", [
    ([0], 7), ([0, 3, 6], 12), (list(range(-5, 200)), 1),  # residue 0, scale 1
    ([], 5), (list(range(63)), 90), (list(range(64)), 90),  # empty, either side of the cut-off
    (np.arange(0, 3000, 7), 2 ** 12), (np.arange(1, 500), 997),  # int64 arrays
    (np.array([0, 1, 2 ** 65, 2 ** 70 + 3] * 20, dtype=object), 2 ** 71),  # object arrays
    (np.array(list(range(100)), dtype=object), 12),
])
def test_the_field_writer_equals_the_reference(values, scale):
    from gaplab.reports import _field_text

    listed = values.tolist() if type(values) is np.ndarray else values
    for depth in (0, 2):
        want = reference([Fraction(v, scale) for v in listed]).replace("\n", "\n" + "  " * depth)
        assert _values_text(values, scale, depth) == want
    labels = np.arange(len(listed)) * 3 - 5
    assert _field_text(labels, 1, {}) == json.dumps(labels.tolist(), indent=2).replace(
        "\n", "\n  ")
