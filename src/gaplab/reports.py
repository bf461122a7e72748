"""Deterministic serialization of result objects.

Reports serialize to JSON with sorted keys and rationals rendered as exact
"p/q" strings, so two runs of the same computation produce byte-identical
documents.  Wall-clock timings travel in a separate "timings" subobject
that identity comparisons must exclude.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from enum import Enum
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from .exact_torus import TorusPoint, TorusVector

SCHEMA_VERSION = 1


def to_jsonable(obj: Any) -> Any:
    """Recursively convert result objects to JSON-ready values.

    Fractions, torus points, and torus vectors become exact strings;
    dataclasses become name-keyed dicts; mappings get string keys.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, TorusPoint):
        return str(obj.value)
    if isinstance(obj, TorusVector):
        return [str(c.value) for c in obj.coords]
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [to_jsonable(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            items.sort(key=json.dumps)
        return items
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _key(k: Any) -> str:
    if isinstance(k, (Fraction, TorusPoint, TorusVector)):
        j = to_jsonable(k)
        return j if isinstance(j, str) else json.dumps(j)
    return str(k)


def canonical_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def identity_view(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The byte-identity surface of a payload: everything except timings."""
    return {k: v for k, v in payload.items() if k != "timings"}


def flatten(value: Any, prefix: str = "") -> List[Tuple[str, str]]:
    """Dotted-key scalar rows for CSV projection."""
    if isinstance(value, dict):
        rows: List[Tuple[str, str]] = []
        for k in sorted(value):
            rows.extend(flatten(value[k], f"{prefix}.{k}" if prefix else str(k)))
        return rows
    if isinstance(value, list):
        rows = []
        for i, v in enumerate(value):
            rows.extend(flatten(v, f"{prefix}[{i}]"))
        return rows
    return [(prefix, "" if value is None else str(value))]


def to_csv(payload: Dict[str, Any]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("key", "value"))
    for key, value in flatten(identity_view(payload)):
        writer.writerow((key, value))
    return buf.getvalue()
