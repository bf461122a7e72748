"""Outside-in span tracer for gaplab and the per-layer metrics it yields.

The tracer rebinds module attributes of gaplab to span-recording wrappers,
including the copies that ``from ... import`` placed in other gaplab
modules, and puts every original back on ``uninstall``.  Nothing inside the
package changes.  A call made while a span of the same group is open (a
function recursing, or ``_rational`` inside ``_rational_list``) is counted
but opens no span, so span counts follow layer crossings, not input sizes.

A span is ``(id, name, start, end, parent_id, query_id)``.  Self time is a
span's duration minus the durations of its child spans.  Work counts come
from call counts, arguments and returned objects seen at the boundary.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


def _count_ints(work, args, kwargs, result):
    work["ints_parsed"] += len(result)


def _count_canonical(work, args, kwargs, result):
    work["points_canonicalised"] += len(result)


def _count_orbit(work, args, kwargs, result):
    work["orbit_points"] += len(result)


def _count_pairsums(work, args, kwargs, result):
    work["pair_sums"] += len(args[0]) * len(args[1])


def _count_cover(work, args, kwargs, result):
    from gaplab.sumset_engine import minimal_difference_cover
    bound = inspect.signature(minimal_difference_cover).bind(*args, **kwargs)
    bound.apply_defaults()
    if len(bound.arguments["b"]) <= bound.arguments["exact_limit"]:
        work["exact_searches"] += 1
        work["exact_covers"] += bool(result.exact)


def _count_oracle(work, args, kwargs, result):
    work["oracle_dp" if args[0].table is not None else "oracle_bfs"] += 1


def _count_decompose(work, args, kwargs, result):
    work["targets_certified"] += 1


def _count_generation(work, args, kwargs, result):
    work["targets_certified"] += result.decomposed_minus + result.decomposed_plus


def _count_census(work, args, kwargs, result):
    work["census_points"] += len(args[0])
    work["method_" + result.method] += 1


def _count_kronecker(work, args, kwargs, result):
    work["kronecker_orbit_points"] += result.n


def _count_bytes(work, args, kwargs, result):
    work["bytes"] += len(result.encode("utf-8"))


# module -> [(attribute, layer, group, work counter)].  A group of None is
# the span's own name.  Layers are the package modules, except that
# canonicalisation of input values is its own boundary layer.
CANON = "exact_torus.canonicalise"
TARGETS: Dict[str, List[Tuple[str, str, Optional[str], Optional[Callable]]]] = {
    "cli": [
        ("_rational", "cli.parse", "cli.parse", None),
        ("_rational_list", "cli.parse", "cli.parse", None),
        ("_vector_list", "cli.parse", "cli.parse", None),
        ("_int_list", "cli.parse", "cli.parse", _count_ints),
        # reports: only the names gaplab.cli calls, so the recursion inside
        # to_jsonable (through the reports module global) opens no spans
        ("to_jsonable", "reports", "reports", None),
        ("canonical_json", "reports", "reports", _count_bytes),
        ("to_csv", "reports", "reports", None),
    ],
    "gap_spectrum": [
        ("CircularSet.from_values", CANON, None, _count_canonical),
        ("fractional_orbit", "gap_spectrum", None, _count_orbit),
        ("spectrum", "gap_spectrum", None, None),
        ("three_gap_check", "gap_spectrum", None, None),
        ("ap_union_points", "gap_spectrum", None, None),
        ("ap_union_gap_check", "gap_spectrum", None, None),
        ("gap_bound_check", "gap_spectrum", None, None),
        ("greedy_max_distinct", "gap_spectrum", None, None),
        ("arc_counting_diagnostic", "gap_spectrum", None, None),
    ],
    "sumset_engine": [
        ("FiniteExactSet.integers", CANON, None, _count_canonical),
        ("FiniteExactSet.rationals", CANON, None, _count_canonical),
        ("FiniteExactSet.torus", CANON, None, _count_canonical),
        ("sumset", "sumset_engine", None, None),
        ("_pairsums_int", "sumset_engine", None, _count_pairsums),
        ("_dense_pairsums", "sumset_engine", None, None),
        ("_outer_pairsums", "sumset_engine", None, None),
        ("minimal_difference_cover", "sumset_engine", None, _count_cover),
    ],
    "generator_decomposition": [
        ("verify_generation", "generator_decomposition", None, _count_generation),
        ("decompose", "generator_decomposition", None, _count_decompose),
        ("neighbour_gaps", "generator_decomposition", None, None),
        ("_Instance.__init__", "generator_decomposition", None, None),
        ("SpanOracle.__init__", "generator_decomposition", None, _count_oracle),
    ],
    "extremal_constructions": [
        (name, "extremal_constructions", None, None)
        for name in ("ap_free_check", "greedy_ap_free", "exact_ap_free",
                     "max_ap_free_sizes", "behrend_set", "build_cover_forcing_set",
                     "lattice_projection")
    ],
    "nn_census": [
        ("PointCloud.from_values", CANON, None, _count_canonical),
        ("nn_census", "nn_census", None, _count_census),
        ("_brute_rows_numpy", "nn_census", None, None),
        ("_brute_rows_exact", "nn_census", None, None),
        ("_grid_rows", "nn_census", None, None),
        ("kronecker_census", "nn_census", None, _count_kronecker),
        ("extract_core", "nn_census", None, None),
    ],
}

# The metrics a traced run reports: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("cli.parse_s", "s", "lower"),
    ("cli.values_parsed", "count", "higher"),
    ("exact_torus.canonicalise_s", "s", "lower"),
    ("exact_torus.points_canonicalised", "count", "higher"),
    ("gap_spectrum.self_s", "s", "lower"),
    ("gap_spectrum.orbit_points", "count", "higher"),
    ("gap_spectrum.orbit_points_per_s", "1/s", "higher"),
    ("sumset_engine.pairsums_s", "s", "lower"),
    ("sumset_engine.pair_sums", "count", "higher"),
    ("sumset_engine.pair_sums_per_s", "1/s", "higher"),
    ("sumset_engine.path_dense", "count", "higher"),
    ("sumset_engine.path_outer", "count", "higher"),
    ("sumset_engine.path_hash", "count", "lower"),
    ("sumset_engine.lift_s", "s", "lower"),
    ("sumset_engine.cover_s", "s", "lower"),
    ("sumset_engine.covers_exact_ratio", "ratio", "higher"),
    ("generator_decomposition.self_s", "s", "lower"),
    ("generator_decomposition.instance_s", "s", "lower"),
    ("generator_decomposition.instances_built", "count", "lower"),
    ("generator_decomposition.targets_certified", "count", "higher"),
    ("generator_decomposition.targets_per_s", "1/s", "higher"),
    ("generator_decomposition.oracle_dp", "count", "higher"),
    ("generator_decomposition.oracle_bfs", "count", "lower"),
    ("extremal_constructions.self_s", "s", "lower"),
    ("extremal_constructions.calls", "count", "lower"),
    ("nn_census.census_s", "s", "lower"),
    ("nn_census.brute_s", "s", "lower"),
    ("nn_census.grid_s", "s", "lower"),
    ("nn_census.points", "count", "higher"),
    ("nn_census.points_per_s", "1/s", "higher"),
    ("nn_census.method_brute", "count", "higher"),
    ("nn_census.method_grid", "count", "higher"),
    ("nn_census.kronecker_s", "s", "lower"),
    ("nn_census.kronecker_orbit_points", "count", "higher"),
    ("nn_census.core_s", "s", "lower"),
    ("reports.serialise_s", "s", "lower"),
    ("reports.bytes", "count", "higher"),
    ("reports.bytes_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Span recorder; ``install`` rebinds gaplab, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.layer_of: Dict[str, str] = {}
        self.query: Optional[int] = None
        self._stack: List[Tuple[int, str]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, group: str,
              count: Optional[Callable]) -> Callable:
        spans, stack, calls, work = self.spans, self._stack, self.calls, self.work

        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][1] == group:
                result = fn(*args, **kwargs)
            else:
                sid = len(spans)
                spans.append(None)
                parent = stack[-1][0] if stack else None
                stack.append((sid, group))
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[sid] = (sid, name, start, end, parent, self.query)
            if count is not None:
                count(work, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gaplab" or n.startswith("gaplab."))]
        for short, targets in TARGETS.items():
            home = importlib.import_module(f"gaplab.{short}")
            for attr, layer, group, count in targets:
                name = f"{short}.{attr}"
                self.layer_of[name] = layer
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name, group or name, count))
                    else:
                        new = self._wrap(raw, name, group or name, count)
                    self._set(cls, meth, new)
                    continue
                orig = getattr(home, attr)
                wrapper = self._wrap(orig, name, group or name, count)
                scope = [home] if short == "cli" else modules
                for mod in scope:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        done = [s for s in self.spans if s is not None]
        t0 = done[0][2] if done else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, query in done:
                fh.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "query": query}) + "\n")

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics, each per pass of the workload."""
        done = [s for s in self.spans if s is not None]
        child_time: Dict[int, float] = defaultdict(float)
        child_names: Dict[int, set] = defaultdict(set)
        for sid, name, start, end, parent, _ in done:
            if parent is not None:
                child_time[parent] += end - start
                child_names[parent].add(name)
        dur: Counter = Counter()
        self_by_layer: Counter = Counter()
        self_by_name: Counter = Counter()
        paths: Counter = Counter()
        for sid, name, start, end, parent, _ in done:
            own = end - start - child_time[sid]
            dur[name] += end - start
            self_by_name[name] += own
            self_by_layer[self.layer_of[name]] += own
            if name == "sumset_engine._pairsums_int":
                kids = child_names[sid]
                paths["dense" if "sumset_engine._dense_pairsums" in kids else
                      "outer" if "sumset_engine._outer_pairsums" in kids else "hash"] += 1
        w, c = self.work, self.calls

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        gd_top = dur["generator_decomposition.decompose"] + \
            dur["generator_decomposition.verify_generation"]
        out = {
            "cli.parse_s": self_by_layer["cli.parse"],
            "cli.values_parsed": c["cli._rational"] + w["ints_parsed"],
            "exact_torus.canonicalise_s": self_by_layer[CANON],
            "exact_torus.points_canonicalised": w["points_canonicalised"],
            "gap_spectrum.self_s": self_by_layer["gap_spectrum"],
            "gap_spectrum.orbit_points": w["orbit_points"],
            "gap_spectrum.orbit_points_per_s": rate(w["orbit_points"],
                                                    self_by_layer["gap_spectrum"]),
            "sumset_engine.pairsums_s": dur["sumset_engine._pairsums_int"],
            "sumset_engine.pair_sums": w["pair_sums"],
            "sumset_engine.pair_sums_per_s": rate(w["pair_sums"],
                                                  dur["sumset_engine._pairsums_int"]),
            "sumset_engine.path_dense": paths["dense"],
            "sumset_engine.path_outer": paths["outer"],
            "sumset_engine.path_hash": paths["hash"],
            "sumset_engine.lift_s": self_by_name["sumset_engine.sumset"],
            "sumset_engine.cover_s": dur["sumset_engine.minimal_difference_cover"],
            "sumset_engine.covers_exact_ratio": rate(w["exact_covers"],
                                                     w["exact_searches"]),
            "generator_decomposition.self_s": self_by_layer["generator_decomposition"],
            "generator_decomposition.instance_s":
                dur["generator_decomposition._Instance.__init__"],
            "generator_decomposition.instances_built":
                c["generator_decomposition._Instance.__init__"],
            "generator_decomposition.targets_certified": w["targets_certified"],
            "generator_decomposition.targets_per_s": rate(w["targets_certified"], gd_top),
            "generator_decomposition.oracle_dp": w["oracle_dp"],
            "generator_decomposition.oracle_bfs": w["oracle_bfs"],
            "extremal_constructions.self_s": self_by_layer["extremal_constructions"],
            "extremal_constructions.calls": sum(
                n for name, n in c.items() if name.startswith("extremal_constructions.")),
            "nn_census.census_s": dur["nn_census.nn_census"],
            "nn_census.brute_s": dur["nn_census._brute_rows_numpy"]
            + dur["nn_census._brute_rows_exact"],
            "nn_census.grid_s": dur["nn_census._grid_rows"],
            "nn_census.points": w["census_points"],
            "nn_census.points_per_s": rate(w["census_points"], dur["nn_census.nn_census"]),
            "nn_census.method_brute": w["method_brute"],
            "nn_census.method_grid": w["method_grid"],
            "nn_census.kronecker_s": dur["nn_census.kronecker_census"],
            "nn_census.kronecker_orbit_points": w["kronecker_orbit_points"],
            "nn_census.core_s": dur["nn_census.extract_core"],
            "reports.serialise_s": self_by_layer["reports"],
            "reports.bytes": w["bytes"],
            "reports.bytes_per_s": rate(w["bytes"], self_by_layer["reports"]),
        }
        # rates are already per second; everything else is per pass
        return {k: (v if k.endswith("_per_s") or k.endswith("_ratio") else v / passes)
                for k, v in out.items()}
