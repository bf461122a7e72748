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
built.  A field of values (a 1-d array, or ints) is one % over a whole-field
template whose items are %d over each value's denominator, and a field of
plain ints (an array, such as an orbit's labels) one % of %d items.  A field
of rows takes one
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


def _field_text(spec, depth: int, memo: dict) -> str:
    """The array, its bracket at depth, of a field given as integer rows
    (LazyFields._field_rows)."""
    if type(spec) is np.ndarray:  # plain ints
        return _array_text(["%d"] * len(spec), depth) % tuple(spec.tolist())
    if isinstance(spec[0], type):
        return _records_text(*spec, depth, memo)
    return _rows_text(*spec, depth, memo)


def _rows_text(rows, scale: int, depth: int, memo: dict) -> str:
    """The array, its bracket at depth, of ints (a sequence, or a 1-d array) or of int
    rows (tuples, or a 2-d array) over scale; a Cleared's rows may differ in length.

    Values and rows are each written by one % over a whole-array template: values'
    items from _residue_items, rows' coordinates' texts gathered from _value_texts.
    """
    if type(rows) is not np.ndarray:
        if not rows or type(rows[0]) is not tuple:
            return _values_text(rows, scale, depth)
        if len(set(map(len, rows))) > 1:  # which only a Cleared holds
            items = [_array_text(["%s"] * len(r), depth + 1) for r in rows]
            texts = _value_texts(_flat_ints(rows), scale, memo)
            return _array_text(items, depth) % tuple(texts.tolist())
        rows = _flat_ints(rows).reshape(len(rows), -1)
    elif rows.ndim == 1:
        return _values_text(rows, scale, depth)
    item = _array_text(["%s"] * rows.shape[1], depth + 1)
    return _array_text([item] * len(rows), depth) % tuple(
        _value_texts(rows, scale, memo).ravel().tolist())


def _records_text(cls: type, fields: dict, depth: int, memo: dict) -> str:
    """The array, its bracket at depth, of cls records whose fields are given as
    (rows, scale[, indices]), rows an int array indexed by record unless indices pick them.

    Each field is one column of texts, gathered from _value_texts by index; the
    records are one % over a whole-array template and the columns' flat tuple.
    """
    names = _sorted_fields(cls)
    columns, members, texts = [], [], {}
    for name in names:
        rows, scale, *index = fields[name]
        if id(rows) not in texts:  # a field's rows, held by fields, are read once
            texts[id(rows)] = _value_texts(rows, scale, memo)
        column = texts[id(rows)][index[0]] if index else texts[id(rows)]
        members.append((name, "%s" if column.ndim == 1 else
                        _array_text(["%s"] * column.shape[1], depth + 2)))
        columns.append(column.reshape(len(column), -1))
    record = _object_text(members, depth + 1)
    flat = np.concatenate(columns, axis=1)
    return _array_text([record] * len(flat), depth) % tuple(flat.ravel().tolist())


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


# below _TEXT_NUMPY_MIN values the fixed cost of np.gcd loses to the loop
_TEXT_NUMPY_MIN = 64


def _values_text(residues, scale: int, depth: int) -> str:
    """The array, its bracket at depth, of the rationals n/scale: one % over the
    whole field's template."""
    items, nums = _residue_items(residues, scale)
    return _array_text(items, depth) % tuple(nums)


def _residue_texts(residues, scale: int) -> List[str]:
    """The texts of the rationals n/scale, one per value, from one % over their items."""
    items, nums = _residue_items(residues, scale)
    return ("\n".join(items) % tuple(nums)).split("\n") if nums else []


def _residue_items(residues, scale: int) -> Tuple[list, list]:
    """(items, nums): each rational n/scale (any ints n) in lowest terms as its numerator,
    a Python int, and the % item of its denominator (_item), with no Fraction built.

    Over scale 1 the values are the numerators.  While scale and the values fit int64
    and there are _TEXT_NUMPY_MIN of them, the gcds come from one np.gcd and the items
    from the distinct denominators, one shared by all or picked through np.unique;
    else from a loop over Python ints.
    """
    ns = residues if type(residues) is np.ndarray else list(residues)
    a = None
    if 1 < scale <= INT64_MAX and len(ns) >= _TEXT_NUMPY_MIN:
        try:
            a = np.asarray(ns, dtype=np.int64)
        except OverflowError:
            pass
    if a is None:
        ns = ns.tolist() if type(ns) is np.ndarray else ns
        if scale == 1:
            return [_item(1)] * len(ns), ns
        gs = [gcd(n, scale) for n in ns]
        return [_item(scale // g) for g in gs], [n // g for n, g in zip(ns, gs)]
    g = np.gcd(a, scale)
    nums, dens = (a // g).tolist(), scale // g
    if (dens == dens[0]).all():
        return [_item(int(dens[0]))] * len(nums), nums
    distinct, inverse = np.unique(dens, return_inverse=True)
    items = np.array([_item(d) for d in distinct.tolist()], dtype=object)
    return items[inverse].tolist(), nums


def _item(den: int) -> str:
    """The % item of a rational over den, in lowest terms, to fill with its numerator."""
    return '"%d"' if den == 1 else f'"%d/{den}"'


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
