"""Full verification battery at seed 0, one test per check.

Each test runs one named check from gaplab.verify and prints its one-line
verdict even under captured output.  The checks carry their own budgets:
orbit spectra (500 trials, 60s), progression unions (200 trials), greedy
subsets, arc counts (100 trials), generator decompositions (50 instances),
the forced-cover construction, orbit censuses on up to four dimensions,
dominance configurations (200 trials), core extraction, and the large
sumset timing gate (10^5 x 10^5 in under 10s) with 200 census cross-checks.
All arithmetic underneath is exact; the only tolerances anywhere are the
wall-clock budgets named in the summaries.
"""

from gaplab.verify import CHECKS


def _run(name, capsys):
    result = CHECKS[name](seed=0)
    with capsys.disabled():
        print()
        print(result.line)
    assert result.passed, result.summary
    return result


def test_three_gap(capsys):
    _run("three-gap", capsys)


def test_ap_union(capsys):
    _run("ap-union", capsys)


def test_greedy_gaps(capsys):
    _run("greedy-gaps", capsys)


def test_arc_count(capsys):
    _run("arc-count", capsys)


def test_generators(capsys):
    _run("generators", capsys)


def test_forced_cover(capsys):
    _run("forced-cover", capsys)


def test_kronecker(capsys):
    _run("kronecker", capsys)


def test_kissing(capsys):
    _run("kissing", capsys)


def test_extract_core(capsys):
    _run("extract-core", capsys)


def test_sumset_performance(capsys):
    _run("sumset-performance", capsys)
