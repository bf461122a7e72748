"""Command line front end.

Every subcommand prints one deterministic JSON (or CSV) document: config
echo, named pass/fail verdicts with their certificates, metrics, and a
timings subobject that identity comparisons exclude (``verify`` files each
check's seconds there, as "<check>.total_s" plus its gated stage's key).  A
handler returns only that document's body; main reads the exit status off
its verdicts alone: 0 when every verdict passed, 1 when some verdict failed
(the report carries the counterexample), 2 when the input was invalid.

Rationals cross the boundary as "p/q" strings; exact decimal literals are
accepted and converted exactly (0.625 -> 5/8).  A single value is a Fraction:
an integer or integer ratio is read with int(), every other text with
Fraction(), to the same value.  A list (--a, --b, --alphas, --betas, and the
";"-separated points of --points, --vectors and --cover) crosses as one
exact_torus.Cleared, its values as Python ints over one common scale in the
order given, which the set and cloud constructors take directly, each into
one int array.  A list of ASCII integers and integer ratios is checked by one
regex match and read in bulk, by int() and one lcm of its distinct
denominators, whose factors stay Python ints; any other list is read
value by value as above, so it is accepted or refused exactly as before.  The
config echo writes each value in lowest terms from those ints.

An argument @FILE stands for the lines of FILE, one argument per line, so
a list longer than the system's argument limit (128 KiB for one argument on
Linux) can be given in a file; a FILE that cannot be read exits with status 2.

Every size option has a ceiling derived from the work it implies (the
MAX_* constants below); a size past it is refused before any work starts,
with exit status 2 and one line naming the ceiling.

A subcommand is declared once, by ``@_command(name, help, *options)`` on its
handler, each option an ``_arg(*flags, **add_argument_kwargs)``.  The parser
is built once; a converter named by string is looked up in this module each
time it converts a value, so rebinding that name takes effect at once.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import os
import re
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .exact_torus import Cleared, TorusVector, residues
from .extremal_constructions import (ap_free_check, behrend_set,
                                     build_cover_forcing_set, exact_ap_free,
                                     greedy_ap_free, lattice_projection)
from .gap_spectrum import (APUnionSpec, CircularSet, _orbit_gap_counts,
                           ap_union_gap_check, fractional_orbit,
                           gap_bound_check, greedy_max_distinct,
                           greedy_target, sumset_size, three_gap_check)
from .generator_decomposition import verify_generation
from .nn_census import (PointCloud, _square_block, extract_core, kissing_check,
                        kronecker_census, nn_census, tightness_example)
from .reports import SCHEMA_VERSION, canonical_json, to_csv, to_jsonable
from .sumset_engine import (EXACT_LIMIT, Domain, FiniteExactSet, difference_set,
                            minimal_difference_cover, sumset)
from .verify import CHECKS, run_checks

OUTPUT_DIR_VAR = "GAPLAB_OUTPUT_DIR"

_Option = Tuple[Tuple[str, ...], Dict[str, Any]]
# name -> (help, options, handler), in declaration order
_COMMANDS: Dict[str, Tuple[str, Tuple[_Option, ...], Callable]] = {}


def _arg(*flags: str, **options: Any) -> _Option:
    return flags, options


def _command(name: str, summary: str, *options: _Option) -> Callable:
    def register(handler: Callable) -> Callable:
        _COMMANDS[name] = (summary, options, handler)
        return handler
    return register


_ALPHA = _arg("--alpha", type="_rational", required=True)
_N = _arg("--n", type=int, required=True)
_ORBIT = (_ALPHA, _N)
_SET_SOURCE = (_arg("--points", type="_vector_list", help="semicolon-separated torus points"),
               _arg("--alpha", type="_rational"), _arg("--n", type=int))
_EXACT_LIMIT = _arg("--exact-limit", type=int, default=EXACT_LIMIT)
_REPORT_OPTIONS = (
    _arg("--format", choices=("json", "csv"), default="json"),
    _arg("--output", help=f"write the report here (relative paths land in ${OUTPUT_DIR_VAR})"))

# Size ceilings, each bounding the work its option implies; README's table of
# them gives the peak memory measured near each.
MAX_ORBIT_POINTS = 10 ** 6  # orbit, gaps, greedy --n; kronecker --n times its alphas
MAX_BEHREND_N = 3 ** 19  # the greedy progression-free list below it holds 2^19 values
MAX_COVER_N = 3000  # forced-cover, and cover and generators of an orbit: n x n differences
MAX_AP_FREE_N = 50  # forced-cover without --s: the exact search for its seed, about 2 s at 50
MAX_CLOUD_M = 30  # extract-core's tables over pairs of about m^2 points; tightness shares it


def _at_most(flag: str, value: Optional[int], ceiling: int, work: str) -> None:
    """Refuse a size past its ceiling, naming it, before any work starts."""
    if value is not None and value > ceiling:
        raise ValueError(f"{flag} {value} is past its ceiling {ceiling} ({work})")


# An ASCII integer or integer ratio, the form "p/q" arguments take: read by int()
# without Fraction's own regex, to the value Fraction(text) has (a zero
# denominator raises ZeroDivisionError, as Fraction(text) does).
_INT_RATIO = re.compile(r"-?[0-9]+(?:/[0-9]+)?\Z").match
# Fraction's grammar for a decimal with an exponent; Fraction builds 10**|exponent| first.
_EXPONENT = re.compile(r"\s*[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
                       r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE).match


def _rational(text: str) -> Fraction:
    try:
        if _INT_RATIO(text):
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den or 1))
        exp, limit = _EXPONENT(text), sys.get_int_max_str_digits()
        if exp and limit and int(exp[1]) > limit:
            raise OverflowError(f"the exponent of {text!r} exceeds {limit}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


# A whole list of ASCII integers and integer ratios, the form lists of "p/q" take:
# checked by one match and read in bulk, with no _rational or Fraction per value.
_RATIO = r"-?[0-9]+(?:/[0-9]+)?"
_RATIO_LIST = re.compile(rf"{_RATIO}(?:,{_RATIO})*\Z").match
_RATIO_ROWS = re.compile(rf"{_RATIO}(?:[,;]{_RATIO})*\Z").match


def _bulk(text: str, form: Callable) -> Optional[Tuple[list, int]]:
    """(ints, scale) with value i of text == ints[i] / scale, when form matches all of text
    and no denominator is 0; else None, and the per-value path reads or refuses text."""
    if not form(text):
        return None
    flat = text.replace(";", ",")
    slashes = flat.count("/")
    if not slashes:
        nums, dens = flat.split(","), ("",)
    elif slashes == flat.count(",") + 1:  # every value a ratio
        parts = flat.replace("/", ",").split(",")
        nums, dens = parts[::2], parts[1::2]
    else:
        nums, _, dens = zip(*[t.partition("/") for t in flat.split(",")])
    try:
        ints = list(map(int, nums))
        den_of = {d: int(d or 1) for d in set(dens)}
    except ValueError:  # more digits than int() reads
        return None
    if 0 in den_of.values():
        return None
    # each denominator's factor scale // v, as Python ints: residues clears 1/v for each v
    factors, scale = residues(Fraction(1, v) for v in den_of.values())
    if len(den_of) > 1:
        factor = dict(zip(den_of, factors))
        ints = [n * factor[d] for n, d in zip(ints, dens)]
    return ints, scale


def _rational_list(text: str) -> Cleared:
    cleared = _bulk(text, _RATIO_LIST)
    if cleared is None:
        parts = [p for p in map(str.strip, text.split(",")) if p]
        if not parts:
            raise argparse.ArgumentTypeError("empty rational list")
        cleared = residues([_rational(p) for p in parts])
    return Cleared(tuple(cleared[0]), cleared[1])


def _int_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc


def _vector_list(text: str) -> Cleared:
    """Semicolon-separated points, comma-separated coordinates."""
    cleared = _bulk(text, _RATIO_ROWS)
    if cleared is not None:
        dims = set(map(str.count, text.split(";"), itertools.repeat(",")))
        if len(dims) == 1:
            return Cleared(tuple(zip(*[iter(cleared[0])] * (dims.pop() + 1))), cleared[1])
    # every other text, and points of several dimensions (which each command refuses
    # with its own message), per value
    points = [p for p in text.split(";") if p.strip()]
    if not points:
        raise argparse.ArgumentTypeError("empty point list")
    cleared = [_rational_list(p) for p in points]
    factors, scale = residues(Fraction(1, c.scale) for c in cleared)
    return Cleared(tuple(tuple(n * f for n in c.ints) for c, f in zip(cleared, factors)), scale)


def _verdict(name: str, passed: bool, **certificate: Any) -> Dict[str, Any]:
    return {"name": name, "passed": bool(passed), **certificate}


def _refuse_long_ints() -> int:
    """Exit status 2, saying why: the document would hold an int Python does not write."""
    print(f"error: the document holds an integer of more than "
          f"{sys.get_int_max_str_digits()} digits, the most Python writes "
          "(PYTHONINTMAXSTRDIGITS raises it)", file=sys.stderr)
    return 2


def _emit(payload: Dict[str, Any], args: argparse.Namespace) -> Optional[int]:
    """Print or write the document; exit status 2 when it cannot be written.

    Python writes no int of more than sys.get_int_max_str_digits() digits
    (4300 unless PYTHONINTMAXSTRDIGITS says otherwise), which bounds the
    quadratic cost of writing one; a document holding a longer one is
    refused as a whole, and so is an argument whose exponent passes the limit.
    """
    try:
        text = (to_csv(to_jsonable(payload)) if args.format == "csv"
                else canonical_json(payload) + "\n")
    except ValueError:
        return _refuse_long_ints()
    if args.output is None:
        sys.stdout.write(text)
        return None
    # an absolute path, or an unset or empty variable, leaves the path as given
    path = os.path.join(os.environ.get(OUTPUT_DIR_VAR, ""), args.output)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2


def _circle_values(points: Cleared, flag: str) -> Cleared:
    """One value per point: these commands work on the circle, not the d-torus."""
    for v in points.ints:
        if len(v) != 1:
            raise ValueError(f"{flag} takes points on the circle (dimension 1); "
                             f"got a point of dimension {len(v)}")
    return Cleared(tuple(v for v, in points.ints), points.scale)


def _points_or_orbit(args: argparse.Namespace) -> CircularSet:
    _at_most("--n", args.n, MAX_COVER_N, "the cover's n x n table of differences")
    if args.points is not None:
        return CircularSet.from_values(_circle_values(args.points, "--points"))
    if args.alpha is None or args.n is None:
        raise ValueError("give either --points or both --alpha and --n")
    return fractional_orbit(args.alpha, args.n)


def _three_gap(rep, report: Any, **metrics: Any) -> Dict[str, Any]:
    verdicts = [_verdict("three-gap", rep.passed, distinct_gaps=rep.distinct_gaps,
                         reference_distances=rep.reference_distances)]
    metrics["distinct_gap_count"] = len(rep.distinct_gaps)
    return {"verdicts": verdicts, "metrics": metrics, "report": report}


@_command("orbit", "fractional-part orbit of alpha with its gaps", *_ORBIT)
def _cmd_orbit(args) -> Dict[str, Any]:
    _at_most("--n", args.n, MAX_ORBIT_POINTS, "orbit points")
    b = fractional_orbit(args.alpha, args.n)
    rep, multiplicities = _orbit_gap_counts(args.alpha, b)
    return _three_gap(rep, {"points": b, "multiplicities": multiplicities}, size=len(b))


@_command("gaps", "distinct gaps of the orbit against reference distances", *_ORBIT)
def _cmd_gaps(args) -> Dict[str, Any]:
    _at_most("--n", args.n, MAX_ORBIT_POINTS, "orbit points")
    rep = three_gap_check(args.alpha, args.n)
    return _three_gap(rep, rep)


@_command("ap-union", "gap count of a union of progressions vs 3k", _ALPHA,
          _arg("--betas", type="_rational_list", required=True,
               help="comma-separated starting offsets"),
          _arg("--lengths", type="_int_list", required=True,
               help="comma-separated progression lengths"))
def _cmd_ap_union(args) -> Dict[str, Any]:
    if len(args.betas) != len(args.lengths):
        raise ValueError("--betas and --lengths must have equal length")
    rep = ap_union_gap_check(APUnionSpec(args.alpha, tuple(zip(args.betas.values(),
                                                                args.lengths))))
    verdicts = [_verdict("gap-bound-3k", rep.passed, bound=rep.bound,
                         distinct_gaps=rep.distinct_gaps)]
    metrics = {"k": rep.k, "total_points": rep.total_points,
               "distinct_gap_count": len(rep.distinct_gaps)}
    return {"verdicts": verdicts, "metrics": metrics, "report": rep}


@_command("greedy", "greedy distinct-gap subset of an orbit", *_ORBIT)
def _cmd_greedy(args) -> Dict[str, Any]:
    _at_most("--n", args.n, MAX_ORBIT_POINTS, "orbit points")
    b = fractional_orbit(args.alpha, args.n)
    a = greedy_max_distinct(b)
    bound = gap_bound_check(a, b)
    n = len(b)
    target = greedy_target(n)
    distinct = bound.distinct_gaps
    achieved = distinct >= target
    double = sumset_size(b, b)
    doubling_ok = double == 2 * n - 1
    verdicts = [
        _verdict("greedy-target", achieved, distinct_gaps=distinct, target=target),
        _verdict("gap-bound", bound.passed, lhs=bound.lhs, rhs=bound.rhs),
        _verdict("orbit-doubling", doubling_ok, sumset_size=double,
                 expected=2 * n - 1),
    ]
    metrics = {"b_size": n, "a_size": len(a), "distinct_gaps": distinct}
    report = {"chosen": a, "bound": bound}
    return {"verdicts": verdicts, "metrics": metrics, "report": report}


@_command("sumset", "exact sumset of two finite sets",
          _arg("--a", type="_rational_list", required=True),
          _arg("--b", type="_rational_list"),
          _arg("--domain", choices=tuple(d.value for d in Domain), default="torus"),
          _arg("--print-limit", type=int, default=10000))
def _cmd_sumset(args) -> Dict[str, Any]:
    if args.print_limit < 0:
        raise ValueError(f"--print-limit must be at least 0, got {args.print_limit}")
    dom = Domain(args.domain)
    if dom is Domain.INTEGERS:
        for vs in filter(None, (args.a, args.b)):
            for n in vs.ints:
                if n % vs.scale:
                    raise ValueError(f"integer domain got non-integer {Fraction(n, vs.scale)}")
    make = {Domain.INTEGERS: FiniteExactSet.integers, Domain.RATIONALS: FiniteExactSet.rationals,
            Domain.TORUS: FiniteExactSet.torus}[dom]
    xs = make(args.a)
    ys = make(args.b) if args.b else xs
    t0 = time.perf_counter()
    s = sumset(xs, ys)
    elapsed = time.perf_counter() - t0
    metrics = {"a_size": len(xs), "b_size": len(ys), "sum_size": len(s),
               "doubling_numerator": len(s), "doubling_denominator": len(xs)}
    report = {"elements": s.elements if len(s) <= args.print_limit else (),
              "truncated": len(s) > args.print_limit}
    return {"verdicts": [], "metrics": metrics, "report": report,
            "timings_extra": {"sumset_s": elapsed}}


@_command("cover", "minimum difference cover of a torus set", *_SET_SOURCE, _EXACT_LIMIT)
def _cmd_cover(args) -> Dict[str, Any]:
    b = _points_or_orbit(args).to_exact_set()
    cov = minimal_difference_cover(b, exact_limit=args.exact_limit)
    # C - B = B - B on residues, independent of the cover routine's universe,
    # which stays unlifted
    universe = difference_set(b, b)
    valid = difference_set(FiniteExactSet.torus(cov.cover), b) == universe
    verdicts = [_verdict("cover-valid", valid, cover_size=len(cov.cover),
                         universe_size=len(universe), exact=cov.exact)]
    metrics = {"b_size": len(b), "cover_size": len(cov.cover),
               "universe_size": len(universe), "nodes": cov.nodes,
               "budget_exhausted": cov.budget_exhausted}
    report = {"cover": cov.cover, "exact": cov.exact}
    return {"verdicts": verdicts, "metrics": metrics, "report": report}


@_command("generators", "decompose every difference over both gap families", *_SET_SOURCE,
          _arg("--cover", type="_vector_list",
               help="explicit C; defaults to the minimum difference cover"),
          _EXACT_LIMIT)
def _cmd_generators(args) -> Dict[str, Any]:
    b = _points_or_orbit(args)
    if args.cover is not None:
        c = CircularSet.from_values(_circle_values(args.cover, "--cover"))
    else:
        cov = minimal_difference_cover(b.to_exact_set(), exact_limit=args.exact_limit)
        c = CircularSet.from_points(cov.cover)
    rep = verify_generation(b, c)
    verdicts = [_verdict("generators", rep.passed, decomposed_minus=rep.decomposed_minus,
                         decomposed_plus=rep.decomposed_plus, universe_size=rep.universe_size,
                         spans_agree=rep.spans_agree, mismatches=rep.mismatches)]
    metrics = {"b_size": rep.b_size, "c_size": rep.c_size,
               "r_minus_size": len(rep.r_minus), "r_plus_size": len(rep.r_plus)}
    return {"verdicts": verdicts, "metrics": metrics, "report": rep}


@_command("behrend", "digit-sphere progression-free set in [1, n]", _N)
def _cmd_behrend(args) -> Dict[str, Any]:
    _at_most("--n", args.n, MAX_BEHREND_N, "where the greedy progression-free list holds 2^19 values")
    rep = behrend_set(args.n)
    greedy = greedy_ap_free(args.n)
    ok = ap_free_check(rep.points)
    verdicts = [_verdict("ap-free", ok, size=rep.size)]
    metrics = {"digit_sphere_size": rep.size, "greedy_size": len(greedy),
               "base": rep.base, "digit_count": rep.digit_count,
               "radius_sq": rep.radius_sq}
    return {"verdicts": verdicts, "metrics": metrics, "report": rep}


@_command("forced-cover", "set whose covers must contain a mirrored block", _N,
          _arg("--s", type="_int_list",
               help="progression-free seed; defaults to the exact maximizer"),
          _EXACT_LIMIT)
def _cmd_forced_cover(args) -> Dict[str, Any]:
    if args.s is None:
        _at_most("--n", args.n, MAX_AP_FREE_N,
                 "the exact search for a progression-free seed; give --s past it")
    _at_most("--n", args.n, MAX_COVER_N, "the cover's n x n table of differences")
    seed = args.s if args.s is not None else exact_ap_free(args.n)
    rep = build_cover_forcing_set(args.n, seed, exact_limit=args.exact_limit)
    verdicts = [
        _verdict("unique-representations",
                 all(c == 1 for c in rep.representation_counts.values()),
                 representation_counts=rep.representation_counts),
        _verdict("doubling-below-10n", rep.sumset_size < rep.doubling_bound,
                 sumset_size=rep.sumset_size, bound=rep.doubling_bound),
        _verdict("forced-block-in-cover", rep.forced_block_in_cover,
                 forced_block=rep.forced_block),
    ]
    metrics = {"n": rep.n, "x": rep.x, "cover_size": len(rep.cover),
               "cover_exact": rep.cover_exact}
    return {"verdicts": verdicts, "metrics": metrics, "report": rep}


@_command("lattice", "multi-frequency orbit with corner-set cover",
          _arg("--alphas", type="_rational_list", required=True),
          _arg("--box", type="_int_list", required=True))
def _cmd_lattice(args) -> Dict[str, Any]:
    rep = lattice_projection(args.alphas.values(), args.box)
    verdicts = [
        _verdict("corner-cover", rep.cover_equal, corners=rep.corners,
                 corner_bound=rep.corner_bound),
        _verdict("doubling", rep.sumset_size <= rep.doubling_bound,
                 sumset_size=rep.sumset_size, bound=rep.doubling_bound),
    ]
    metrics = {"size": len(rep.points), "sumset_size": rep.sumset_size}
    return {"verdicts": verdicts, "metrics": metrics, "report": rep}


@_command("nn-census", "nearest-neighbour census of a torus cloud",
          _arg("--points", type="_vector_list", required=True),
          _arg("--method", choices=("auto", "brute", "grid"), default="auto"),
          _arg("--cells", type=int, help="kept for compatibility: must be at least 1 and "
               "sizes nothing, since the grid method is a sweep without cells"))
def _cmd_nn_census(args) -> Dict[str, Any]:
    cloud = PointCloud.from_values(args.points)
    if args.cells is not None and args.cells < 1:
        raise ValueError(f"cells must be at least 1, got {args.cells}")
    rep = nn_census(cloud, method=args.method)
    metrics = {"size": len(cloud), "dim": rep.dim,
               "census_size": rep.census_size, "method": rep.method}
    return {"verdicts": [], "metrics": metrics, "report": rep}


@_command("kronecker", "census of a Kronecker orbit on the d-torus",
          _arg("--alphas", type="_rational_list", required=True), _N)
def _cmd_kronecker(args) -> Dict[str, Any]:
    _at_most("--n", args.n, MAX_ORBIT_POINTS // len(args.alphas),
             f"{MAX_ORBIT_POINTS} orbit points times dimensions")
    rep = kronecker_census(args.alphas.values(), args.n)
    verdicts = [_verdict("census-contained", rep.contained,
                         census_size=rep.census_size, bound=rep.bound, ell=rep.ell)]
    metrics = {"n": rep.n, "dim": len(rep.alphas), "census_size": rep.census_size,
               "ell": rep.ell, "ratio": rep.ratio, "tie_free": rep.tie_free}
    return {"verdicts": verdicts, "metrics": metrics, "report": rep}


@_command("kissing", "pairwise-dominance check for torus vectors",
          _arg("--vectors", type="_vector_list", required=True))
def _cmd_kissing(args) -> Dict[str, Any]:
    vectors = [TorusVector(v) for v in args.vectors.values()]
    rep = kissing_check(vectors)
    verdicts = [_verdict("pairwise-dominance", rep.passed, count=rep.count,
                         violations=rep.violations)]
    metrics = {"dim": rep.dim, "count": rep.count}
    return {"verdicts": verdicts, "metrics": metrics, "report": rep}


@_command("extract-core", "large low-census core of a cloud",
          _arg("--points", type="_vector_list"),
          _arg("--m", type=int, help="use the square-block cloud of parameter m"),
          _arg("--epsilon", type="_rational"),
          _arg("--kappa", type="_rational",
               help="ball-depth constant; defaults to the measured kappa, the cloud's "
                    "largest ball depth times (3/4)^d"))
def _cmd_extract_core(args) -> Dict[str, Any]:
    _at_most("--m", args.m, MAX_CLOUD_M, "tables over pairs of about m^2 cloud points")
    if args.points is not None:
        cloud = PointCloud.from_values(args.points)
    elif args.m is not None:
        cloud = _square_block(args.m)
    else:
        raise ValueError("give either --points or --m")
    epsilon = args.epsilon
    if epsilon is None:
        if not args.m:  # None, or 0 with --points: no default 1/(2m)
            raise ValueError("--epsilon is required with --points")
        epsilon = Fraction(1, 2 * args.m)
    trace = extract_core(cloud, cloud, epsilon, args.kappa)
    verdicts = [
        _verdict("core-size", trace.size_ok, core_size=len(trace.core),
                 floor_size=trace.a_size - int(epsilon * trace.a_size)),
        _verdict("core-census", trace.census_ok, census_size=trace.core_census_size,
                 bound=trace.census_bound),
        _verdict("ball-depth", trace.upsilon_ok, upsilon_max=trace.upsilon_max,
                 threshold=trace.threshold),
    ]
    metrics = {"a_size": trace.a_size, "rounds": trace.rounds, "l": trace.l,
               "epsilon": epsilon, "kappa": trace.kappa}
    return {"verdicts": verdicts, "metrics": metrics, "report": trace}


@_command("tightness", "square-block cloud with large census",
          _arg("--m", type=int, required=True))
def _cmd_tightness(args) -> Dict[str, Any]:
    _at_most("--m", args.m, MAX_CLOUD_M, "tables over pairs of about m^2 cloud points")
    rep = tightness_example(args.m)
    verdicts = [
        _verdict("doubling", rep.sumset_size < rep.doubling_bound,
                 sumset_size=rep.sumset_size, bound=rep.doubling_bound),
        _verdict("census-floor", rep.census_size >= rep.census_floor,
                 census_size=rep.census_size, floor=rep.census_floor),
    ]
    metrics = {"m": rep.m, "size": rep.size, "census_size": rep.census_size,
               "upper_estimate": rep.upper_estimate}
    return {"verdicts": verdicts, "metrics": metrics, "report": rep}


@_command("verify", "run the verification suites",
          _arg("--suite", default="all", help="'all' or comma-separated check names"),
          _arg("--seed", type=int, default=0),
          _arg("--trials", type=int,
               help="override the trial count of checks that accept one"))
def _cmd_verify(args) -> Dict[str, Any]:
    names = None if args.suite == "all" else [s.strip() for s in args.suite.split(",")]
    overrides: Dict[str, Dict[str, Any]] = {}
    if args.trials is not None:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        for name, fn in CHECKS.items():
            if "trials" in inspect.signature(fn).parameters:
                overrides[name] = {"trials": args.trials}
    results = run_checks(seed=args.seed, names=names, overrides=overrides)
    for r in results:
        print(r.line)
    verdicts = [_verdict(r.name, r.passed, summary=r.summary) for r in results]
    metrics = {"checks": len(results), "failures": sum(not r.passed for r in results)}
    return {"verdicts": verdicts, "metrics": metrics,
            "report": {r.name: r.details for r in results},
            "timings_extra": {f"{r.name}.{key}": seconds for r in results
                              for key, seconds in r.timings.items()}}


def _late(name: str) -> Callable[[str], Any]:
    """The converter called name in this module, looked up on each call."""
    return lambda text: globals()[name](text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab", fromfile_prefix_chars="@",
        description="Exact gap spectra, sumsets, covers, and torus censuses.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flags, kwargs in options + _REPORT_OPTIONS:
            if isinstance(kwargs.get("type"), str):
                kwargs = {**kwargs, "type": _late(kwargs["type"])}
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except OverflowError:  # _rational: an exponent past the limit _emit names
        return _refuse_long_ints()
    t0 = time.perf_counter()
    try:
        body = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    status = 0 if all(v["passed"] for v in body["verdicts"]) else 1
    config = {k: v for k, v in vars(args).items()
              if k not in ("fn", "format", "output", "command") and v is not None}
    timings = {"total_s": elapsed, **body.pop("timings_extra", {})}
    payload = {"schema_version": SCHEMA_VERSION, "command": args.command,
               "config": config, **body,
               "timings": {key: float(value) for key, value in timings.items()}}
    if args.command == "verify" and args.output is None:
        return status
    return _emit(payload, args) or status


if __name__ == "__main__":
    sys.exit(main())
