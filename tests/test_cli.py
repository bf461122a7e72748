"""End-to-end command line behaviour, run in process through main()."""

import argparse
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import cli
from gaplab.cli import _rational, main


def run_json(tmp_path, argv, name="out.json"):
    path = tmp_path / name
    rc = main(argv + ["--output", str(path)])
    return rc, json.loads(path.read_text())


def test_gaps_worked_example(tmp_path):
    rc, payload = run_json(tmp_path, ["gaps", "--alpha", "5/8", "--n", "4"])
    assert rc == 0
    assert payload["schema_version"] == 1
    assert payload["command"] == "gaps"
    verdict = payload["verdicts"][0]
    assert verdict["name"] == "three-gap" and verdict["passed"]
    assert verdict["distinct_gaps"] == ["1/8", "1/4", "3/8"]


def test_decimal_literals_are_exact(tmp_path):
    _, a = run_json(tmp_path, ["gaps", "--alpha", "5/8", "--n", "4"], "a.json")
    _, b = run_json(tmp_path, ["gaps", "--alpha", "0.625", "--n", "4"], "b.json")
    a.pop("timings")
    b.pop("timings")
    assert a == b


def test_repeated_runs_identical_outside_timings(tmp_path):
    argv = ["greedy", "--alpha", "89/144", "--n", "21"]
    _, a = run_json(tmp_path, argv, "a.json")
    _, b = run_json(tmp_path, argv, "b.json")
    assert "timings" in a
    a.pop("timings")
    b.pop("timings")
    assert a == b


def test_failing_verdict_returns_one(tmp_path):
    rc, payload = run_json(
        tmp_path, ["kissing", "--vectors", "1/3,0;2/5,0;1/7,0"])
    assert rc == 1
    verdict = payload["verdicts"][0]
    assert verdict["name"] == "pairwise-dominance" and not verdict["passed"]
    assert verdict["violations"]


def test_passing_kissing_pair(tmp_path):
    rc, payload = run_json(tmp_path, ["kissing", "--vectors", "1/8;7/8"])
    assert rc == 0
    assert payload["verdicts"][0]["passed"]


def test_malformed_rational_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["gaps", "--alpha", "x/y", "--n", "4"])
    assert err.value.code == 2


# Texts at the edges of the integer-ratio fast path: forms only Fraction reads,
# forms no one reads, zero denominators and redundant signs and zeros; then
# exponents past the int digit limit, which are refused before Fraction runs.
RATIONAL_EDGES = ["1_000", "+1/2", " 1/2 ", ".5", "5.", "1e3", "\u0663", "\u0663/7", "1 /2",
                  "1/-2", "1e-3/2", "1/0", "1/00", "-0/5", "007/010", "-7", "0", "", "-", "/",
                  "1/", "/2", "--1", "1/2/3", "1/2\n", "1e4299", "1e-4299", "1e4301",
                  "0e999999", "-1.5E-99999 ", "1e9_999", "1e\u0663\u0663\u0663\u0663\u0663",
                  pytest.param("1e" + "0" * 4300 + "1", id="exponent-of-4301-digits")]


def _fraction_or_error(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _over_limit(text):
    """A text in Fraction's grammar whose exponent's magnitude passes the int digit limit."""
    import fractions

    m = fractions._RATIONAL_FORMAT.match(text)
    limit = sys.get_int_max_str_digits()
    try:
        return bool(m and m["exp"] and limit and abs(int(m["exp"])) > limit)
    except ValueError:  # an exponent of more digits than int() reads: Fraction refuses it
        return False


def _refusal():
    return (f"error: the document holds an integer of more than {sys.get_int_max_str_digits()} "
            "digits, the most Python writes (PYTHONINTMAXSTRDIGITS raises it)\n")


@given(st.text(alphabet="0123456789/-+.eE_ \u0663", max_size=10))
@settings(max_examples=600, deadline=None)
@example("007/010")
@example("-0/5")
@example("1e999999")
@example("1e-\u0663\u0663\u0663\u0663")
def test_rational_parses_exactly_what_fraction_parses(text):
    # Fraction is the oracle, except on the texts whose exponent passes the
    # int digit limit: those are refused before Fraction builds a power of
    # ten that no document could hold
    if _over_limit(text):
        with pytest.raises(OverflowError, match=f"exceeds {sys.get_int_max_str_digits()}"):
            _rational(text)
        return
    expected = _fraction_or_error(text)
    if expected is None:
        with pytest.raises(argparse.ArgumentTypeError):
            _rational(text)
    else:
        got = _rational(text)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("text", RATIONAL_EDGES)
def test_rational_edges_match_fraction_through_main(text, capsys, tmp_path):
    argv = ["ap-union", f"--alpha={text}", "--betas", "0", "--lengths", "1"]
    expected = _fraction_or_error(text)
    if _over_limit(text):
        # refused as the writer refuses an int past the limit: one line, exit 2
        assert main(argv) == 2
        assert capsys.readouterr() == ("", _refusal())
    elif expected is None:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert stderr.splitlines()[-1] == (
            f"gaplab ap-union: error: argument --alpha: not an exact rational: {text!r}")
    else:
        assert _rational(text) == expected
        rc, payload = run_json(tmp_path, argv)
        assert rc == 0 and payload["config"]["alpha"] == str(expected)


@pytest.mark.parametrize("text", ["1e4301", "2E-5000", "1e9_999", "3.5e+\u0663\u0663\u0663\u0663\u0663"])
def test_an_exponent_past_the_limit_never_reaches_fraction(text, monkeypatch):
    from gaplab import cli

    def no_fraction(*args):
        raise AssertionError("Fraction called")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    with pytest.raises(OverflowError) as err:
        _rational(text)
    assert str(err.value) == f"the exponent of {text!r} exceeds {sys.get_int_max_str_digits()}"
    # with no limit, Fraction reads every exponent, as it did before
    monkeypatch.undo()
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert _rational(text) == Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)


_HUGE = "1" + "0" * 5000


@pytest.mark.parametrize("argv, key, echo", [
    (["gaps", "--alpha", "1e-5000", "--n", "4"], "alpha", "1/" + _HUGE),
    (["orbit", "--alpha", "1e-4400", "--n", "3"], "alpha", "1/" + _HUGE[:4401]),
    (["greedy", "--alpha", "1e-4400", "--n", "5"], "alpha", "1/" + _HUGE[:4401]),
    (["sumset", "--a", "1e5000", "--domain", "integers"], "a", [_HUGE]),
    (["nn-census", "--points", "1e-5000;1/2"], "points", [["1/" + _HUGE], ["1/2"]]),
])
def test_an_int_too_long_to_write_exits_two_with_one_line(argv, key, echo, capsys):
    import sys

    # Python writes at most sys.get_int_max_str_digits() digits of an int,
    # 4300 by default
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: the document holds an integer of more than 4300 digits, the most "
            "Python writes (PYTHONINTMAXSTRDIGITS raises it)\n")
        # with no limit, the same command writes every value exactly
        sys.set_int_max_str_digits(0)
        rc = main(argv)
        doc = json.loads(capsys.readouterr().out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc == (0 if all(v["passed"] for v in doc["verdicts"]) else 1)
    assert doc["config"][key] == echo


# ---------------------------------------------------------------------------
# List arguments: a list of ASCII integers and integer ratios is read in bulk
# into one Cleared; every other text goes value by value through _rational.
# The per-value lists below are the parsers as they were before the bulk read,
# kept as the oracle: both must accept and refuse the same texts with the same
# errors, give the same values, and echo the same bytes.

def _per_value_list(text):
    parts = [p for p in map(str.strip, text.split(",")) if p]
    if not parts:
        raise argparse.ArgumentTypeError("empty rational list")
    return tuple([_rational(p) for p in parts])


def _per_value_rows(text):
    points = [p for p in text.split(";") if p.strip()]
    if not points:
        raise argparse.ArgumentTypeError("empty point list")
    return tuple(_per_value_list(p) for p in points)


def _outcome(parse, text):
    try:
        return parse(text)
    except (argparse.ArgumentTypeError, OverflowError) as exc:
        return type(exc), str(exc)


# primes near 2^40 and 2^61 and one past 2^64: any two of them have an lcm past 2^64
_WIDE_DENOMINATORS = [1099511627791, 1099511627689, 2305843009213693951, 18446744073709551629]
_LIST_VALUES = st.integers(0, 7).flatmap(lambda i: _LIST_RARE if i == 0 else _LIST_COMMON)
_LIST_COMMON = (
    st.one_of(st.integers(-40, 40).map(str),
              st.builds("{}/{}".format, st.integers(-30, 60), st.integers(1, 12)),
              st.builds("{}/{}".format, st.integers(-10 ** 20, 10 ** 20),
                        st.sampled_from(_WIDE_DENOMINATORS)),
              st.sampled_from(["2/4", "-0/5", "007/010", "-0", "12/6", "1/1"])))
_LIST_RARE = (
    st.sampled_from(["1/0", "1/00", "0.5", "-1.25", ".5", "1e-3", "2E2", "1_0", "+1", "1/-2",
                     " 1/2", "1/2 ", "1 /2", "\t3", "x", "", "1e5000", "2e-99999", "1e4301",
                     "1" * 4301, "\u0663/7"]))
_LIST_TEXTS = st.lists(st.tuples(_LIST_VALUES, st.sampled_from(
    [",", ",", ",", ";", ",,", ";;", ";,;", " , ", ", "])), min_size=1, max_size=8).map(
    lambda items: "".join(v + sep for v, sep in items)[:-len(items[-1][1])])


@given(_LIST_TEXTS)
@settings(max_examples=500, deadline=None)
@example("2/4,1/3;1/2,2/6")
@example("1,,2")
@example(",,")
@example(";;")
@example(";,;")
@example("1/2;,;1/3")
@example("1/0,1/2")
@example("0.5,1/2")
@example("1/2, 1/3;1/4")
@example("1/2;1/3,1/4")
@example("1e5000,1/0")
@example("1/0,1e5000")
@example("1/1099511627791,1/2305843009213693951,1/18446744073709551629")
def test_list_parsers_match_the_per_value_path(text):
    from gaplab.cli import _rational_list, _vector_list
    from gaplab.exact_torus import Cleared
    from gaplab.reports import canonical_json, to_jsonable

    for parse, oracle in ((_rational_list, _per_value_list), (_vector_list, _per_value_rows)):
        got, want = _outcome(parse, text), _outcome(oracle, text)
        if type(want) is not tuple or type(want[0]) is type:
            assert got == want
            continue
        assert type(got) is Cleared and got.values() == want
        assert canonical_json({"config": {"a": got}}) == canonical_json({"config": {"a": want}})
        assert to_jsonable(got) == to_jsonable(want)


@pytest.mark.parametrize("flag, text, message", [
    ("--points", "1/0;1/2", "not an exact rational: '1/0'"),
    ("--points", ";,;", "empty rational list"),
    ("--points", ";;", "empty point list"),
    ("--a", "1/2;1/3", "not an exact rational: '1/2;1/3'"),
    ("--a", "1" * 4301, f"not an exact rational: '{'1' * 4301}'"),
])
def test_a_refused_list_is_one_line_of_argparse(flag, text, message, capsys):
    command = "nn-census" if flag == "--points" else "sumset"
    with pytest.raises(SystemExit) as err:
        main([command, flag, text])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"gaplab {command}: error: argument {flag}: {message}")


@pytest.mark.parametrize("argv", [["nn-census", "--points", "1/2,1e5000;1/3,0"],
                                  ["sumset", "--a", "1/2,2e-99999"],
                                  ["kissing", "--vectors", "1e4301;1/0"]])
def test_an_exponent_past_the_limit_in_a_list_exits_two_with_one_line(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", _refusal())


_ALPHA = ["--alpha", "1/1000000000000000003"]


@pytest.mark.parametrize("argv, ceiling", [
    (["orbit", *_ALPHA, "--n"], cli.MAX_ORBIT_POINTS),
    (["gaps", *_ALPHA, "--n"], cli.MAX_ORBIT_POINTS),
    (["greedy", *_ALPHA, "--n"], cli.MAX_ORBIT_POINTS),
    (["cover", *_ALPHA, "--n"], cli.MAX_COVER_N),
    (["generators", "--points", "0;1/2", "--n"], cli.MAX_COVER_N),
    (["behrend", "--n"], cli.MAX_BEHREND_N),
    (["forced-cover", "--s", "1,2", "--n"], cli.MAX_COVER_N),
    (["forced-cover", "--n"], cli.MAX_AP_FREE_N),
    (["kronecker", "--alphas", "1/1000000000000000003", "--n"], cli.MAX_ORBIT_POINTS),
    (["kronecker", "--alphas", "1/1000000000000000003,1/3", "--n"], cli.MAX_ORBIT_POINTS // 2),
    (["tightness", "--m"], cli.MAX_CLOUD_M),
    (["extract-core", "--m"], cli.MAX_CLOUD_M),
    (["extract-core", "--points", "0;1/2;1/3", "--m"], cli.MAX_CLOUD_M)])
def test_a_size_past_its_ceiling_exits_two_naming_it(argv, ceiling, monkeypatch, capsys):
    # by argument value only: one past each ceiling, and 10^15, are refused
    # before any library call starts the work
    for name in ("fractional_orbit", "three_gap_check", "behrend_set", "exact_ap_free",
                 "kronecker_census", "tightness_example", "_square_block", "PointCloud"):
        monkeypatch.setattr(cli, name, None)
    for size in (ceiling + 1, 10 ** 15):
        assert main(argv + [str(size)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {argv[-1]} {size} is past its ceiling {ceiling} (")


def test_colliding_orbit_is_input_error(capsys):
    rc = main(["orbit", "--alpha", "1/3", "--n", "5"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_integer_domain_rejects_fractions():
    rc = main(["sumset", "--a", "1,2,1/2", "--domain", "integers"])
    assert rc == 2


def test_csv_projection(tmp_path):
    path = tmp_path / "out.csv"
    rc = main(["tightness", "--m", "2", "--format", "csv",
               "--output", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "key,value"
    rows = dict(line.split(",", 1) for line in lines[1:] if line)
    assert rows["schema_version"] == "1"
    assert rows["command"] == "tightness"
    assert rows["metrics.size"] == "4"
    assert "timings.total_s" not in rows


def test_relative_output_lands_in_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GAPLAB_OUTPUT_DIR", str(tmp_path))
    rc = main(["gaps", "--alpha", "5/8", "--n", "4", "--output", "rel.json"])
    assert rc == 0
    payload = json.loads((tmp_path / "rel.json").read_text())
    assert payload["command"] == "gaps"


def test_forced_cover_worked_example(tmp_path):
    rc, payload = run_json(
        tmp_path, ["forced-cover", "--n", "4", "--s", "1,2"])
    assert rc == 0
    assert all(v["passed"] for v in payload["verdicts"])
    assert payload["metrics"]["x"] == 16


def test_cover_of_small_orbit(tmp_path):
    rc, payload = run_json(tmp_path, ["cover", "--alpha", "7/41", "--n", "8"])
    assert rc == 0
    verdict = payload["verdicts"][0]
    assert verdict["name"] == "cover-valid" and verdict["passed"]
    assert verdict["exact"]


def test_exact_limit_default_is_one_constant():
    import inspect

    from gaplab.cli import build_parser
    from gaplab.extremal_constructions import build_cover_forcing_set
    from gaplab.sumset_engine import EXACT_LIMIT, minimal_difference_cover

    for fn in (minimal_difference_cover, build_cover_forcing_set):
        assert inspect.signature(fn).parameters["exact_limit"].default == EXACT_LIMIT
    for command in ("cover", "generators", "forced-cover"):
        args = build_parser().parse_args([command, "--n", "4"])
        assert args.exact_limit == EXACT_LIMIT


def test_verify_subset_prints_status_lines(capsys):
    rc = main(["verify", "--suite", "ap-union,forced-cover"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert any(l.startswith("PASS [ap-union]") for l in lines)
    assert any(l.startswith("PASS [forced-cover]") for l in lines)


def test_verify_rejects_unknown_suite():
    rc = main(["verify", "--suite", "no-such-check"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["generators", "--points", "0,1/2;1/3,1/5;2/3,0"],
    ["cover", "--points", "0;1/3,1/5;2/3"],
    ["generators", "--points", "0;1/3;2/3", "--cover", "0,1/2"],
])
def test_multi_coordinate_circle_points_are_input_errors(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "dimension 2" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("cells", ["0", "-1"])
def test_nonpositive_cells_is_input_error(cells, capsys):
    rc = main(["nn-census", "--points", "0,0;1/7,0;3/7,1/2", "--method", "grid",
               "--cells", cells])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "cells" in err
    assert len(err.strip().splitlines()) == 1


def test_negative_print_limit_is_input_error(capsys):
    rc = main(["sumset", "--a", "0,1/2", "--print-limit", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --print-limit must be at least 0, got -1\n"


def test_span_past_its_budget_is_one_line_input_error(capsys):
    # a denominator past the span DP's limit, whose smallest gap alone has
    # more multiples in [0, 1] than the enumeration budget allows
    rc = main(["generators", "--points", "0;1/33554433"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "33554433" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_truncated_sumset_lifts_no_sums(tmp_path, monkeypatch):
    import random
    from collections import Counter
    from fractions import Fraction

    from gaplab import sumset_engine
    from gaplab.exact_torus import TorusPoint

    counts = Counter()
    from_residue = TorusPoint._from_residue.__func__
    lift = sumset_engine._lift

    def counted_from_residue(cls, n, q):
        counts["points"] += 1
        return from_residue(cls, n, q)

    def counted_fraction(*args):
        counts["fractions"] += 1
        return Fraction(*args)

    def counted_lift(*args):
        counts["lifts"] += 1
        return lift(*args)

    monkeypatch.setattr(TorusPoint, "_from_residue", classmethod(counted_from_residue))
    monkeypatch.setattr(sumset_engine, "Fraction", counted_fraction)
    monkeypatch.setattr(sumset_engine, "_lift", counted_lift)
    rng = random.Random(6)
    values = ",".join(f"{n}/999983" for n in rng.sample(range(999983), 300))
    for domain in ("torus", "rationals"):
        rc, payload = run_json(tmp_path, ["sumset", "--a", values, "--domain", domain])
        assert rc == 0
        assert payload["report"] == {"elements": [], "truncated": True}
        assert payload["metrics"]["sum_size"] > 10000
    assert counts == Counter()
    # the counters see the lifts of a printed sum
    for domain in ("torus", "rationals"):
        run_json(tmp_path, ["sumset", "--a", "0,1/8", "--b", "1/4", "--domain", domain])
    assert counts == Counter(points=2, fractions=2, lifts=2)


def test_cover_check_lifts_no_points(tmp_path, monkeypatch):
    import dataclasses

    from gaplab import cli
    from gaplab.exact_torus import TorusPoint

    lifts = []
    from_residue = TorusPoint._from_residue.__func__

    def counted_from_residue(cls, n, q):
        lifts.append(n)
        return from_residue(cls, n, q)

    monkeypatch.setattr(TorusPoint, "_from_residue", classmethod(counted_from_residue))
    cover = cli.minimal_difference_cover
    lifts_by_cover = []

    def spy(*args, **kwargs):
        result = cover(*args, **kwargs)
        lifts_by_cover.append(len(lifts))
        return result

    monkeypatch.setattr(cli, "minimal_difference_cover", spy)
    values = ";".join(f"{n}/1000003" for n in range(0, 1000003, 7919)[:120])
    for argv in (["cover", "--alpha", "89/144", "--n", "40"], ["cover", "--points", values]):
        lifts.clear()
        lifts_by_cover.clear()
        rc, payload = run_json(tmp_path, argv)
        assert rc == 0 and payload["verdicts"][0]["passed"]
        # the cover routine leaves its universe unlifted; the check that
        # C - B = B - B, after it, lifts nothing
        assert lifts_by_cover[0] < payload["metrics"]["universe_size"]
        assert len(lifts) == lifts_by_cover[0]

    # a cover that misses differences fails the check
    def one_point_cover(*args, **kwargs):
        result = cover(*args, **kwargs)
        return dataclasses.replace(result, cover=result.cover[:1])

    monkeypatch.setattr(cli, "minimal_difference_cover", one_point_cover)
    rc, payload = run_json(tmp_path, ["cover", "--alpha", "89/144", "--n", "40"])
    assert rc == 1 and not payload["verdicts"][0]["passed"]


def test_orbit_commands_lift_only_the_points_they_print(tmp_path, lifts):
    rc, payload = run_json(tmp_path, ["greedy", "--alpha", "1234567/9999991", "--n", "3000"])
    assert rc == 0
    chosen = payload["report"]["chosen"]["points"]
    assert len(chosen) == payload["metrics"]["a_size"] < 3000
    assert len(lifts) <= len(chosen)
    lifts.clear()
    rc, payload = run_json(tmp_path, ["orbit", "--alpha", "13/97", "--n", "40"])
    assert rc == 0 and len(payload["report"]["points"]["points"]) == 40
    assert len(lifts) == 0


@pytest.mark.parametrize("method", ["brute", "grid"])
def test_nn_census_lifts_no_point(tmp_path, lifts, method):
    from gaplab.exact_torus import TorusVector
    from gaplab.nn_census import PointCloud

    points = "0,0;1/7,0;3/7,1/2;1/2,1/3;5/6,2/3"
    rc, payload = run_json(tmp_path, ["nn-census", "--points", points, "--method", method])
    assert rc == 0 and payload["metrics"]["size"] == len(payload["report"]["records"]) == 5
    assert payload["report"]["records"][0]["point"] == ["0", "0"]
    assert lifts == []
    cloud = PointCloud.from_values([v.split(",") for v in points.split(";")])
    assert len(cloud) == 5 and cloud.dim == 2
    assert TorusVector.of("1/7", "0") in cloud and TorusVector.of("1/8", "0") not in cloud
    assert lifts == [] and "points" not in cloud.__dict__
    # one lift per distinct residue: 0, 1/7, 3/7, 1/2, 1/3, 5/6 and 2/3
    assert cloud.points[1] == TorusVector.of("1/7", "0") and len(lifts) == 7


@pytest.mark.parametrize("m", [3, 7, 20])
def test_tightness_writes_its_cloud_unread(tmp_path, lifts, m):
    from gaplab.nn_census import tightness_example
    from gaplab.reports import to_jsonable

    path = tmp_path / "tightness.json"
    assert main(["tightness", "--m", str(m), "--output", str(path)]) == 0
    assert lifts == []
    text = path.read_text()
    doc = json.loads(text)
    assert len(doc["report"]["cloud"]["points"]) == m * m
    doc["report"] = to_jsonable(tightness_example(m))
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_python_dash_m_runs_the_command_line():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "gaplab", "sumset", "--a", "0,1/8",
                           "--b", "1/4"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["elements"] == ["1/4", "3/8"]


# Frozen outputs: sha256 of the identity view (the payload without its
# timings, as json.dumps(..., sort_keys=True, indent=2)), or of the CSV text.
# The first block is the README's "Command line" examples, in order, without
# `verify --suite all`, which takes about 40 s; a verify suite's seconds go
# under timings, so the smaller suite below is frozen instead.
README_FROZEN = {
    'gaps --alpha 5/8 --n 4': (0, "a020d92413a9f35c8f2670b6df9f482312e6ff441ec36d90a00c0ce2b7eab2e4"),
    'orbit --alpha 89/144 --n 21': (0, "ddc970b86a09c56c51bfeb003d9d309fd453d76f901c2557afca005bfd786173"),
    'ap-union --alpha 7/1003 --betas 0,1/3 --lengths 5,4': (0, "35cc5dac20e22d55622d62d210f92a2d6fc5338c79bcacf32c0164282f688dac"),
    'greedy --alpha 89/144 --n 21': (0, "31fb3ce2bca06087dc5de106c8699df48b07e80f32d9955b9aa427561d6e527a"),
    'sumset --a 0,1/8,1/2 --b 1/4,3/8 --domain torus': (0, "bb7a5070e78504ecca2b5500bad8dc45713708fa4ae330f0b79bb3e6d2f3d42c"),
    'cover --alpha 7/41 --n 8': (0, "deff0fe95182ab1d28ae90bfa4c8df9fd2424ac4318979f1f561c38ee5a9658d"),
    'generators --alpha 7/41 --n 8': (0, "c7af9b21cfa78227ab2a9af83e04d1d6c599ee9243a2d289b5bc3e9206959370"),
    'behrend --n 300': (0, "996678d2f67fc5fc1460c6d58c3fdb14272e62d61e0bfb85455078f290e1415a"),
    'forced-cover --n 4 --s 1,2': (0, "ed1896755ca4d994b2c29b5dc2a61b155ebf3732d3a12a9f594ec4d771bed0c1"),
    'lattice --alphas 5/101,23/101 --box 4,4': (0, "900c96f37ff069f1d4995ea62ce64e82c552d60b552541ff100a88647242181f"),
    'nn-census --points "0,0;1/7,0;3/7,1/2" --method auto': (0, "8ce31257a2cd584061488558bb8f61af31d4feacceb905ce9f81cdb34ae4b809"),
    'kronecker --alphas 5/8 --n 4': (0, "880ed782b6d9765abd11d7a9d70da3ccc8c92647e72f4e3330f652816fd3eae4"),
    'kissing --vectors "1/8;7/8"': (0, "5891357a5b70668a5087883a51ea8baae3fc9bef183bfc49a0339283b0cea605"),
    'extract-core --m 3': (0, "fc4701928257be422332fd10ad6ad11175c45d999debfa9e02c40bde9769a016"),
    'tightness --m 4': (0, "1579e72bb163c420aac858864c004e084dc21520832890e2da97de7cd6568b2b"),
}
VARIANT_FROZEN = {
    'sumset --a 0,2,5,9 --b 1,3 --domain integers --print-limit 1': (0, "2896445720ec8f56cc1fb4663001b922bd4fd579eb46305aa1e8cb457a943410"),
    'sumset --a 0,1/3,5/7 --domain rationals --print-limit 1': (0, "00d5d08ccc83987e3e33799f3db438a8797666a08f959e4f72909cbf13a17dd5"),
    'cover --points "0;1/8;1/4;3/8;1/2"': (0, "0e92d570f23e0605fcf050129c2531c9d151109c2fa68fa9c0d07fa5979c72a7"),
    'cover --points "0;1/5;2/7;1/2;5/6" --exact-limit 3': (0, "e1bf8020b1cbc45aaef413362d214767003cbd8972dd949d4ebfe4b09f602370"),
    'generators --points "0;1/8;1/4;3/8;1/2" --cover "0;1/2"': (0, "7bbd483147c5ce35c0c61e97f31b41e564f545b6c929e65a43e9f0032cdc136a"),
    'generators --points "0;1/5;2/7;1/2;5/6" --exact-limit 3': (0, "1b48f6095baa5a53c1a6a14b925cee22e6858d02b20fb1a65fe4a26d2736b6b8"),
    'extract-core --points "0,0;1/7,0;3/7,1/2;1/2,1/3;5/6,2/3" --epsilon 1/4': (0, "abfd898962aaff93e0c4a8dd94ff1762a736a49375ed04fa8c93a14a6291d872"),
    'nn-census --points "0,0;1/7,0;3/7,1/2;1/2,1/3" --method brute --cells 3': (0, "2b1467cb0829dceb3c74034580d9c08b85953ebfe16813d84b9a89397128e748"),
    'kissing --vectors "1/3,0;2/5,0;1/7,0"': (1, "84496512df7f8372a7459b985c837c3bd1f23a4efbf6ac3ec7fbe01471484b48"),
    'tightness --m 2 --format csv': (0, "fe9de02b885743fccf697aee296cc1f47210296de1bf047553709c7cd796474d"),
    'verify --suite ap-union,forced-cover,kissing,greedy-gaps --seed 0': (0, "bf07c6d66cc3f7924ba429ac9d561ef58de4c7b7847c97674f81c0112a6a4c49"),
}
SUBCOMMANDS = ["orbit", "gaps", "ap-union", "greedy", "sumset", "cover", "generators",
               "behrend", "forced-cover", "lattice", "nn-census", "kronecker",
               "kissing", "extract-core", "tightness", "verify"]


def readme_command_lines():
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [line[len("gaplab "):] for line in block.splitlines()
            if line.startswith("gaplab ")]


def test_readme_examples_are_the_frozen_block():
    lines = readme_command_lines()
    assert lines[-1] == "verify --suite all --seed 0"
    assert lines[:-1] == list(README_FROZEN)


@pytest.mark.parametrize("line", list(README_FROZEN) + list(VARIANT_FROZEN))
def test_frozen_output(line, tmp_path):
    import hashlib
    import shlex

    rc_expected, digest = {**README_FROZEN, **VARIANT_FROZEN}[line]
    path = tmp_path / "out"
    argv = shlex.split(line)
    assert main(argv + ["--output", str(path)]) == rc_expected
    raw = path.read_bytes()
    if "csv" not in argv:
        payload = json.loads(raw)
        payload.pop("timings")
        raw = json.dumps(payload, sort_keys=True, indent=2).encode()
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("line", list(README_FROZEN) + list(VARIANT_FROZEN))
def test_written_json_is_its_own_canonical_form(line, tmp_path):
    import shlex

    # the frozen hashes re-dump the parsed document; this pins the bytes written
    path = tmp_path / "out.json"
    main(shlex.split(line) + ["--format", "json", "--output", str(path)])
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_help_lists_the_subcommands(capsys):
    import re

    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert re.search(r"\{([a-z,-]+)\}", out).group(1).split(",") == SUBCOMMANDS
    listed = re.findall(r"^    ([a-z-]+) ", out, flags=re.M)
    assert listed == SUBCOMMANDS


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_is_input_error(where, tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "x.json" if where == "missing-directory" else tmp_path
    rc = main(["gaps", "--alpha", "5/8", "--n", "4", "--output", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    reason = "No such file or directory" if where == "missing-directory" else "Is a directory"
    assert captured.err == f"error: cannot write {path}: {reason}\n"


@pytest.mark.parametrize("suite, trials", [("generators", "0"), ("three-gap", "0"),
                                           ("kissing", "-1")])
def test_nonpositive_trials_is_input_error(suite, trials, capsys):
    rc = main(["verify", "--suite", suite, "--trials", trials])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: --trials must be at least 1, got {trials}\n"


def test_parser_is_built_once_and_converters_resolve_per_call(tmp_path, monkeypatch):
    from gaplab import cli

    cli.build_parser.cache_clear()
    rc, first = run_json(tmp_path, ["gaps", "--alpha", "5/8", "--n", "4"], "a.json")
    assert rc == 0 and first["config"]["alpha"] == "5/8"
    seen = []

    def rational(text):
        seen.append(text)
        return cli.Fraction(3, 8)

    monkeypatch.setattr(cli, "_rational", rational)
    rc, second = run_json(tmp_path, ["gaps", "--alpha", "5/8", "--n", "4"], "b.json")
    assert rc == 0 and seen == ["5/8"] and second["config"]["alpha"] == "3/8"
    assert cli.build_parser.cache_info().misses == 1
    # a malformed value still gets argparse's own message
    monkeypatch.undo()
    with pytest.raises(SystemExit) as exc:
        main(["gaps", "--alpha", "x/y", "--n", "4"])
    assert exc.value.code == 2
    assert cli.build_parser.cache_info().misses == 1


def test_greedy_sum_with_the_orbit_loops_over_the_chosen_subset(tmp_path, monkeypatch):
    import numpy as np

    from gaplab import sumset_engine as se

    class CountingNumpy:
        """numpy, but asarray records the length of what it converts."""

        def __init__(self):
            self.lengths = []

        def __getattr__(self, name):
            return getattr(np, name)

        def asarray(self, a, *args, **kwargs):
            self.lengths.append(len(a))
            return np.asarray(a, *args, **kwargs)

    loops = []
    kernel = se._dense_pairsums

    def spy(xs, ys, lo, span_out):
        # the kernel converts its loop operand first, whichever it was given
        se.np = counting = CountingNumpy()
        try:
            return kernel(xs, ys, lo, span_out)
        finally:
            se.np = np
            loops.append(counting.lengths[0])

    monkeypatch.setattr(se, "_dense_pairsums", spy)
    rc, payload = run_json(tmp_path, ["greedy", "--alpha", "123457/999983", "--n", "20000"])
    assert rc == 0
    a_size = payload["metrics"]["a_size"]
    assert a_size < 20000
    # A + B ORs the orbit's bitmap once per chosen point; B + B comes next
    assert loops == [a_size, 20000]


def test_extract_core_exits_one_when_only_ball_depth_fails(tmp_path):
    rc, payload = run_json(tmp_path, ["extract-core", "--m", "3", "--kappa", "1/10"])
    verdicts = {v["name"]: v["passed"] for v in payload["verdicts"]}
    assert verdicts == {"core-size": True, "core-census": True, "ball-depth": False}
    assert rc == 1


def test_extract_core_builds_the_census_and_the_sum_table_once(tmp_path, monkeypatch):
    import importlib

    from gaplab import verify

    nn = importlib.import_module("gaplab.nn_census")
    calls = []
    for name in ("_census_rows", "_sum_table"):
        def spy(*args, _real=getattr(nn, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(nn, name, spy)
    rc, payload = run_json(tmp_path, ["extract-core", "--m", "5"])
    assert rc == 0 and payload["metrics"]["kappa"] == "9/4"
    assert sorted(calls) == ["_census_rows", "_sum_table"]
    # per m, the check's tightness report builds census rows and its
    # extraction one of each; tightness counts |A + A| with no sum table
    calls.clear()
    assert verify.check_extract_core().passed
    assert sorted(calls) == ["_census_rows"] * 6 + ["_sum_table"] * 3


@pytest.mark.parametrize("line", list(README_FROZEN) + list(VARIANT_FROZEN))
def test_exit_code_is_zero_exactly_when_every_verdict_passed(line, tmp_path):
    import shlex

    # a later --format json overrides the csv line's, so the verdicts parse
    rc, payload = run_json(tmp_path, shlex.split(line) + ["--format", "json"])
    assert rc == (0 if all(v["passed"] for v in payload["verdicts"]) else 1)


# ---------------------------------------------------------------------------
# The exit contract under fuzzed argv: every subcommand, its options drawn
# from their grammar at small sizes, exits 0 or 1 with a document whose
# verdicts agree with the code, or 2 with its message on the last stderr
# line (one line in all when a handler raised), and never with a traceback.

def _rarely(common, rare):
    """Draws from rare about one time in eight, from common otherwise."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else common)


_RATIONAL = _rarely(
    st.one_of(st.integers(-3, 40).map(str),
              st.builds("{}/{}".format, st.integers(-5, 200), st.integers(1, 211)),
              st.sampled_from(["0.125", "1e-2", "5E-1", "3e1", "1_0e-3", "\u0663/7", " 1/2 ",
                               "1e-40", "7/18446744073709551629"])),
    st.sampled_from(["1e5000", "2e-99999", "1e4301", "1/0", "x", "", "1/", "-", "1/2/3"]))
_INT = _rarely(st.integers(-2, 12).map(str), st.sampled_from(["x", "1.5", ""]))
# a size past every ceiling (cli.MAX_*), which no allocation of its size may start
_HUGE_SIZE = st.integers(10 ** 12, 10 ** 18).map(str)


def _size(common):
    """A size option's values: common ones, and rarely one from 10^12 to 10^18."""
    return _rarely(common, _HUGE_SIZE)


def _joined(sep, item, min_size=1, max_size=5):
    """Texts of min_size to max_size items; rarely none at all."""
    return _rarely(st.lists(item, min_size=min_size, max_size=max_size).map(sep.join),
                   st.sampled_from(["", sep]))


_LIST = _joined(",", _RATIONAL)
_INTS = _joined(",", st.integers(-2, 5).map(str), max_size=3)
# duplicates come from a small pool of coordinates; mixed dimensions rarely
_COORD = _rarely(st.sampled_from(["0", "1/2", "1/3", "1/7", "3/7", "5/8", "0.25"]), _RATIONAL)
_VECTORS = _rarely(
    st.integers(1, 3).flatmap(lambda d: _joined(";", _joined(",", _COORD, d, d), max_size=6)),
    _joined(";", _joined(",", _COORD, max_size=3)))
_CIRCLE = _joined(";", _COORD, max_size=6)
_CHECKS = ["three-gap", "ap-union", "greedy-gaps", "arc-count", "generators",
           "forced-cover", "kissing", "extract-core", "no-such-check"]


@st.composite
def _options(draw, *required, **optional):
    """argv of the required (flag, values) pairs, then each optional one or not."""
    argv = []
    for flag, values in required + tuple(optional.items()):
        if flag in optional and not draw(st.booleans()):
            continue
        argv += ["--" + flag.replace("_", "-"), draw(values)]
    return argv


@st.composite
def _arms(draw):
    """--betas and --lengths of one length; --lengths rarely of another."""
    arms = draw(st.lists(st.tuples(_RATIONAL, st.integers(-1, 6).map(str)),
                         min_size=1, max_size=4))
    betas, lengths = (",".join(column) for column in zip(*arms))
    return ["--betas", betas, "--lengths", draw(_rarely(st.just(lengths), _INTS))]


_SOURCE = dict(points=_CIRCLE, alpha=_RATIONAL, n=_size(_INT), exact_limit=_INT)
_GRAMMAR = {
    "orbit": _options(("alpha", _RATIONAL), ("n", _size(st.integers(-2, 40).map(str)))),
    "gaps": _options(("alpha", _RATIONAL), ("n", _size(_INT))),
    "ap-union": st.tuples(_options(("alpha", _RATIONAL)), _arms()).map(lambda t: t[0] + t[1]),
    "greedy": _options(("alpha", _RATIONAL), ("n", _size(st.integers(-2, 40).map(str)))),
    "sumset": _options(("a", _LIST), b=_LIST, domain=st.sampled_from(
        ["torus", "rationals", "integers"]), print_limit=_INT),
    "cover": _options(**_SOURCE),
    "generators": _options(**_SOURCE, cover=_CIRCLE),
    "behrend": _options(("n", _size(st.integers(-2, 60).map(str)))),
    "forced-cover": _options(("n", _size(st.integers(-2, 12).map(str))), s=_INTS,
                             exact_limit=_INT),
    "lattice": _options(("alphas", _joined(",", _RATIONAL, max_size=3)), ("box", _INTS)),
    "nn-census": _options(("points", _VECTORS), method=st.sampled_from(
        ["auto", "brute", "grid"]), cells=_INT),
    "kronecker": _options(("alphas", _joined(",", _RATIONAL, max_size=3)), ("n", _size(_INT))),
    "kissing": _options(("vectors", _VECTORS)),
    "extract-core": _options(points=_VECTORS, m=_size(st.integers(-1, 5).map(str)),
                             epsilon=_RATIONAL, kappa=_RATIONAL),
    "tightness": _options(("m", _size(st.integers(-1, 8).map(str)))),
    "verify": _options(("suite", _joined(",", st.sampled_from(_CHECKS), max_size=2)),
                       ("trials", st.integers(-1, 2).map(str)), seed=_INT),
}


def test_the_argv_grammar_names_every_subcommand():
    assert list(_GRAMMAR) == SUBCOMMANDS


@given(st.sampled_from(SUBCOMMANDS).flatmap(lambda c: _GRAMMAR[c].map(lambda a: [c] + a)))
@settings(max_examples=300, deadline=None)
@example(["behrend", "--n", "0"])
@example(["orbit", "--alpha", "1/3", "--n", "0"])
@example(["gaps", "--alpha", "1e999999", "--n", "4"])
@example(["ap-union", "--alpha", "1/7", "--betas", "0,1/7", "--lengths", "3,3"])
@example(["greedy", "--alpha", "1/2", "--n", "-1"])
@example(["sumset", "--a", ",", "--domain", "integers"])
@example(["cover", "--points", "0;0;1/2", "--exact-limit", "-1"])
@example(["generators", "--points", "0;1/2", "--cover", "1/3"])
@example(["forced-cover", "--n", "4", "--s", "1,1,2"])
@example(["lattice", "--alphas", "1/5,2/5", "--box", "0,3"])
@example(["nn-census", "--points", "0,0;0,0"])
@example(["nn-census", "--points", "0,0;1/2"])
@example(["kronecker", "--alphas", "1/3", "--n", "5"])
@example(["kissing", "--vectors", "0,0;1/2,1/2"])
@example(["kissing", "--vectors", "1/4;1/3,1/5"])
@example(["extract-core", "--m", "1"])
@example(["extract-core", "--points", "0", "--m", "0"])
@example(["extract-core", "--points", "0;1/2;1/3", "--epsilon", "1/2", "--kappa", "1/100"])
@example(["tightness", "--m", "-1"])
@example(["gaps", "--alpha", "1/1000000000000000003", "--n", "1000000000000000"])
@example(["extract-core", "--points", "0;1/2;1/3", "--m", "1000000000000"])
@example(["verify", "--suite", "kissing", "--trials", "0"])
@example(["verify", "--suite", "no-such-check", "--trials", "1"])
def test_every_command_keeps_the_exit_contract_under_fuzzed_argv(argv):
    import contextlib
    import io
    import os
    import tempfile
    import time
    from pathlib import Path

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        path = os.path.join(tmp, "doc.json")
        start = time.perf_counter()
        try:
            rc = main(argv + ["--output", path])
        except SystemExit as exc:  # argparse refused the argv
            rc = exc.code
        elapsed = time.perf_counter() - start
        doc = json.loads(Path(path).read_text()) if os.path.exists(path) else None
    lines = err.getvalue().splitlines()
    if any(flag in ("--n", "--m") and value.isdigit() and int(value) >= 10 ** 12
           for flag, value in zip(argv, argv[1:])):
        # a size past its ceiling is refused before any work starts
        assert rc == 2 and elapsed < 1, (rc, elapsed, lines)
    assert "Traceback" not in err.getvalue()
    assert rc in (0, 1, 2), (rc, lines)
    if rc == 2:
        assert doc is None and lines, lines
        assert lines[-1].startswith(("error: ", f"gaplab {argv[0]}: error: ")), lines
        if lines[-1].startswith("error: "):
            assert len(lines) == 1, lines
    else:
        assert doc is not None and not lines, lines
        assert rc == (0 if all(v["passed"] for v in doc["verdicts"]) else 1)
