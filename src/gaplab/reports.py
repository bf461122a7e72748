"""Deterministic serialization of result objects.

Reports serialize to JSON with sorted keys and rationals rendered as exact
"p/q" strings, so two runs of the same computation produce byte-identical
documents.  Wall-clock timings travel in a separate "timings" subobject
that identity comparisons must exclude.

canonical_json writes a document in one pass over the result objects
themselves: its text is json.dumps(to_jsonable(payload), sort_keys=True,
indent=2), but it builds no to_jsonable tree and avoids json's pure-Python
indent encoder.  Strings, ints, rationals, torus points and vectors, lists,
tuples, dicts and dataclasses are written directly, each dataclass's sorted
field names computed once and each vector through one % template.  The lazy
fields of an unread exact_torus.LazyFields object are written straight from
the integer rows its _field_rows() returns, with no Fraction or torus point
built: one text per distinct residue per scale, one per row (picked by index
where a column gives indices), and one % template per record.  A config
echo of an exact_torus.Cleared (a list argument as ints over one scale) is
written the same way, in input order, sharing those per-scale texts with the
report that follows it.  Every other value (bools, floats, None, sets, enums,
subclasses) goes through to_jsonable, which stays the one home of those
rules, serves the CSV projection and is the reference the writer is tested
against.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .exact_torus import INT64_MAX, Cleared, LazyFields, TorusPoint, TorusVector

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
    if isinstance(obj, Cleared):
        return to_jsonable(obj.values())
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
    if isinstance(k, Enum):
        # by value, as to_jsonable writes the member
        return str(k.value)
    return str(k)


def canonical_json(payload: Any) -> str:
    """json.dumps(to_jsonable(payload), sort_keys=True, indent=2), written in one pass."""
    return _text(payload, 0, {})


# Writers of the values that need neither depth nor memo, by exact type.
_LEAF_TEXT = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    Fraction: '"%s"'.__mod__,
    TorusPoint: lambda p: '"%s"' % p.value,
}

# Types that to_jsonable converts before it looks for dataclass fields.
_NOT_FIELDWISE = (bool, int, float, str, Fraction, TorusPoint, TorusVector, Cleared, Enum)


@functools.cache
def _sorted_fields(cls: type) -> Optional[Tuple[str, ...]]:
    """The sorted field names of a dataclass that to_jsonable converts field by field, else None."""
    if not dataclasses.is_dataclass(cls) or issubclass(cls, _NOT_FIELDWISE):
        return None
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _text(obj: Any, depth: int, memo: dict) -> str:
    """The indent=2 text of obj, its opening bracket at depth."""
    t = type(obj)
    leaf = _LEAF_TEXT.get(t)
    if leaf is not None:
        return leaf(obj)
    if t is TorusVector:
        return _rationals_template(len(obj.coords), depth) % tuple([c.value for c in obj.coords])
    if t is Cleared:
        return _array_text(_items_text((obj.ints, obj.scale), depth + 1, memo), depth)
    if t is tuple or t is list:
        if set(map(type, obj)) == {Fraction}:
            # a row of rationals (a coordinate list, a difference): one % call
            return _rationals_template(len(obj), depth) % tuple(obj)
        leaf_text = _LEAF_TEXT.get
        return _array_text([f(v) if (f := leaf_text(type(v))) else _text(v, depth + 1, memo)
                            for v in obj], depth)
    if t is dict:
        keyed = {k if type(k) is str else _key(k): v for k, v in obj.items()}
        return _object_text([(k, _text(v, depth + 1, memo)) for k, v in sorted(keyed.items())],
                            depth)
    names = _sorted_fields(t)
    if names is None:
        text = json.dumps(to_jsonable(obj), sort_keys=True, indent=2)
        return text.replace("\n", "\n" + "  " * depth) if depth else text
    rows = obj._field_rows() if isinstance(obj, LazyFields) and obj._is_unread() else {}
    return _object_text([(name, _array_text(_items_text(rows[name], depth + 2, memo), depth + 1)
                          if name in rows else _text(getattr(obj, name), depth + 1, memo))
                         for name in names], depth)


def _items_text(spec: tuple, depth: int, memo: dict) -> List[str]:
    """The items, at depth, of a field given as integer rows (LazyFields._field_rows).

    memo holds the texts of vector coordinates by scale, and by (id, depth) a rows list
    with the texts of its rows: holding the list keeps its id from being reused meanwhile.
    """
    if isinstance(spec[0], type):
        names = _sorted_fields(spec[0])
        record = _object_text([(name, "%s") for name in names], depth)
        return [record % r for r in zip(*[_items_text(spec[1][name], depth + 1, memo)
                                          for name in names])]
    rows, scale, *index = spec
    hit = memo.get((id(rows), depth))
    if hit is None:
        if rows and isinstance(rows[0], tuple):
            texts = memo.setdefault(scale, {})
            new = set(itertools.chain.from_iterable(rows)).difference(texts)
            texts.update(zip(new, _residue_texts(new, scale)))
            text = texts.__getitem__
            if len(set(map(len, rows))) == 1:
                # one % over every coordinate's text; no text holds the separator "\0"
                template = _array_text(["%s"] * len(rows[0]), depth)
                flat = tuple(map(text, itertools.chain.from_iterable(rows)))
                written = ("\0".join([template] * len(rows)) % flat).split("\0")
            else:  # rows of several lengths, which only a Cleared holds
                written = [_array_text(list(map(text, r)), depth) for r in rows]
        else:
            written = _residue_texts(rows, scale)
        hit = memo[id(rows), depth] = (rows, written)
    return list(map(hit[1].__getitem__, index[0])) if index else hit[1]


# values per np.gcd call; below _TEXT_NUMPY_MIN of them its fixed cost loses to the loop
_TEXT_BLOCK = 1 << 12
_TEXT_NUMPY_MIN = 64


def _residue_texts(residues, scale: int) -> List[str]:
    """The texts of the rationals n/scale (any ints n), in lowest terms, with no Fraction built.

    While scale and the values fit int64, the gcds of a long list come from np.gcd,
    _TEXT_BLOCK values at a time, which bounds the temporaries; else from a loop over
    Python ints.
    """
    ns = list(residues)
    if scale == 1:
        return _texts_over(ns, 1)
    texts: List[str] = []
    for i in range(0, len(ns), _TEXT_BLOCK):
        block = ns[i:i + _TEXT_BLOCK]
        try:
            a = (np.array(block, dtype=np.int64)
                 if scale <= INT64_MAX and len(block) >= _TEXT_NUMPY_MIN else None)
        except OverflowError:
            a = None
        if a is None:
            gs = [gcd(n, scale) for n in block]
            texts += [f'"{n // g}"' if g == scale else f'"{n // g}/{scale // g}"'
                      for n, g in zip(block, gs)]
            continue
        g = np.gcd(a, scale)
        nums, dens = (a // g).tolist(), scale // g
        if (dens == dens[0]).all():
            texts += _texts_over(nums, int(dens[0]))
        else:
            texts += [f'"{n}"' if d == 1 else f'"{n}/{d}"' for n, d in zip(nums, dens.tolist())]
    return texts


def _texts_over(nums: list, den: int) -> List[str]:
    """The texts of the rationals n/den, each n already in lowest terms over den, by one join."""
    if not nums:
        return []
    tail = '"' if den == 1 else f'/{den}"'
    return ('"' + (tail + '\n"').join(map(str, nums)) + tail).split("\n")


@functools.lru_cache(maxsize=64)
def _rationals_template(n: int, depth: int) -> str:
    """The text of n rationals at depth, each a %s to fill with str().

    Bounded, since a long row's template is as long as its text.
    """
    return _array_text(['"%s"'] * n, depth)


@functools.cache
def _layout(depth: int) -> Tuple[str, str, str]:
    """What opens, separates and closes the items of a container whose bracket is at depth."""
    sep = ",\n" + "  " * (depth + 1)
    return sep[1:], sep, "\n" + "  " * depth


def _array_text(items: List[str], depth: int) -> str:
    """An array of items already written, its opening bracket at depth."""
    if not items:
        return "[]"
    lead, sep, close = _layout(depth)
    return "[" + lead + sep.join(items) + close + "]"


def _object_text(members: List[Tuple[str, str]], depth: int) -> str:
    """An object of (key, value already written) pairs in the order given, its opening
    brace at depth."""
    if not members:
        return "{}"
    lead, sep, close = _layout(depth)
    encode = _LEAF_TEXT[str]
    return "{" + lead + sep.join([encode(k) + ": " + v for k, v in members]) + close + "}"


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
