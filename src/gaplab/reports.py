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
built.  A field of values is one text per value.  A field of rows takes one
np.unique of its values and one text per distinct value, kept per scale so
that later fields reuse them, and is one % over a whole-array template;
records are one % over one flat tuple gathered from their fields' texts column
by column (a column's rows picked by index where it gives indices).  A config
echo of an exact_torus.Cleared (a list argument as ints over one scale) is
written the same way, in input order, and the report after it reuses its
texts.  Every other value (bools, floats, None, sets, enums, subclasses) goes
through to_jsonable, which stays the one home of those rules, serves the CSV
projection and is the reference the writer is tested against.
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
        return _rows_text(obj.ints, obj.scale, depth, memo)
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
    return _object_text([(name, _field_text(rows[name], depth + 1, memo)) if name in rows
                         else (name, _text(getattr(obj, name), depth + 1, memo))
                         for name in names], depth)


def _field_text(spec: tuple, depth: int, memo: dict) -> str:
    """The array, its bracket at depth, of a field given as integer rows
    (LazyFields._field_rows)."""
    if isinstance(spec[0], type):
        return _records_text(*spec, depth, memo)
    return _rows_text(*spec, depth, memo)


def _rows_text(rows, scale: int, depth: int, memo: dict) -> str:
    """The array, its bracket at depth, of ints (a sequence) or of int rows (tuples, or a
    2-d array) over scale; a Cleared's rows may differ in length.

    Values are written from one _residue_texts call, rows by one % over a whole-array
    template, their coordinates' texts gathered from _value_texts.
    """
    if type(rows) is not np.ndarray:
        if not rows or type(rows[0]) is not tuple:
            return _array_text(_residue_texts(rows, scale), depth)
        if len(set(map(len, rows))) > 1:  # which only a Cleared holds
            items = [_array_text(["%s"] * len(r), depth + 1) for r in rows]
            texts = _value_texts(_flat_ints(rows), scale, memo)
            return _array_text(items, depth) % tuple(texts.tolist())
        rows = _int_array(rows)
    item = _array_text(["%s"] * rows.shape[1], depth + 1)
    return _array_text([item] * len(rows), depth) % tuple(
        _value_texts(rows, scale, memo).ravel().tolist())


def _records_text(cls: type, fields: dict, depth: int, memo: dict) -> str:
    """The array, its bracket at depth, of cls records whose fields are given as
    (rows, scale[, indices]), rows indexed by record unless indices pick them.

    Each field is one column of texts, gathered from _value_texts by index; the
    records are one % over a whole-array template and the columns' flat tuple.
    """
    names = _sorted_fields(cls)
    columns, members, texts = [], [], {}
    for name in names:
        rows, scale, *index = fields[name]
        if id(rows) not in texts:  # a field's rows, held by fields, are read once
            texts[id(rows)] = _value_texts(_int_array(rows), scale, memo)
        column = texts[id(rows)][index[0]] if index else texts[id(rows)]
        members.append((name, "%s" if column.ndim == 1 else
                        _array_text(["%s"] * column.shape[1], depth + 2)))
        columns.append(column.reshape(len(column), -1))
    record = _object_text(members, depth + 1)
    flat = np.concatenate(columns, axis=1)
    return _array_text([record] * len(flat), depth) % tuple(flat.ravel().tolist())


def _int_array(rows) -> np.ndarray:
    """Rows of ints of one length (tuples, or an array as it is) as a 2-d array."""
    return rows if type(rows) is np.ndarray else _flat_ints(rows).reshape(len(rows), -1)


def _flat_ints(rows) -> np.ndarray:
    """The ints of tuple rows in order, as one int64 array, or an object array past int64."""
    count = sum(map(len, rows))
    try:
        return np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=count)
    except OverflowError:
        return np.fromiter(itertools.chain.from_iterable(rows), dtype=object, count=count)


def _value_texts(values: np.ndarray, scale: int, memo: dict) -> np.ndarray:
    """The texts of values / scale, an object array shaped as values, from one np.unique.

    memo[scale] holds the distinct values written over scale so far, ascending, with
    their texts: only the values it lacks go through _residue_texts, so a config echo
    and the report that follows it write each coordinate's text once.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    known, known_texts = memo.get(scale, (distinct[:0], np.empty(0, dtype=object)))
    at = np.searchsorted(known, distinct)
    hit = at < len(known)
    hit[hit] = known[at[hit]] == distinct[hit]
    texts = np.empty(len(distinct), dtype=object)
    texts[hit] = known_texts[at[hit]]
    if not hit.all():
        new = ~hit
        texts[new] = np.array(_residue_texts(distinct[new], scale), dtype=object)
        merged = np.concatenate([known, distinct[new]])
        order = np.argsort(merged)
        memo[scale] = merged[order], np.concatenate([known_texts, texts[new]])[order]
    return texts[inverse.reshape(values.shape)]


# values per np.gcd call; below _TEXT_NUMPY_MIN of them its fixed cost loses to the loop
_TEXT_BLOCK = 1 << 12
_TEXT_NUMPY_MIN = 64


def _residue_texts(residues, scale: int) -> List[str]:
    """The texts of the rationals n/scale (any ints n), in lowest terms, with no Fraction built.

    While scale and the values fit int64, the gcds of a long list come from np.gcd,
    _TEXT_BLOCK values at a time, which bounds the temporaries; else from a loop over
    Python ints.
    """
    ns = residues if type(residues) is np.ndarray else list(residues)
    if scale == 1:
        return _texts_over(ns, 1)
    texts: List[str] = []
    for i in range(0, len(ns), _TEXT_BLOCK):
        block = ns[i:i + _TEXT_BLOCK]
        try:
            a = (np.asarray(block, dtype=np.int64)
                 if scale <= INT64_MAX and len(block) >= _TEXT_NUMPY_MIN else None)
        except OverflowError:
            a = None
        if a is None:
            block = block.tolist() if type(block) is np.ndarray else block
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
    if not len(nums):
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
    return f"[{lead}{sep.join(items)}{close}]"


def _object_text(members: List[Tuple[str, str]], depth: int) -> str:
    """An object of (key, value already written) pairs in the order given, its opening
    brace at depth."""
    if not members:
        return "{}"
    lead, sep, close = _layout(depth)
    encode = _LEAF_TEXT[str]
    # one join of every piece copies each value's text once, however long
    parts = ["{" + lead]
    for k, v in members:
        parts += (encode(k), ": ", v, sep)
    parts[-1] = close + "}"
    return "".join(parts)


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
