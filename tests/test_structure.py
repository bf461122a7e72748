"""Structure guard: the integer-residue format has one home, gaplab.exact_torus.

Common scales (lcm) and int64 limits are defined there once; a module that
needs either imports the shared helper instead of keeping its own copy.  So
is the one lazy-field base whose __getattr__ lifts a result type's fields
from their integers, and the one constructor of an instance left unread;
the writer in reports knows that base only, and no result module.  No class
writes its own __setattr__, __delattr__ or __repr__: frozenness and repr come
from dataclasses, and every class with a _lift() is a dataclass on that base.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gaplab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.stem != "exact_torus")


def _lcm_uses(tree: ast.AST) -> list:
    """Lines importing lcm, or reaching it as an attribute (math.lcm, np.lcm)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "lcm" for a in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "lcm":
            found.append(node.lineno)
    return found


def _int64_limits(tree: ast.AST) -> list:
    """Lines writing an int64 limit: 1 << 62, 1 << 63 or np.iinfo(np.int64).max."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                and isinstance(node.left, ast.Constant) and node.left.value == 1
                and isinstance(node.right, ast.Constant) and node.right.value in (62, 63)):
            found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "max"
              and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "attr", getattr(node.value.func, "id", None))
              == "iinfo"):
            found.append(node.lineno)
    return found


def test_guard_sees_every_module():
    assert {p.stem for p in MODULES} >= {"sumset_engine", "gap_spectrum", "nn_census",
                                         "generator_decomposition"}
    home = ast.parse((SRC / "exact_torus.py").read_text())
    # the helpers' own home is where the guard would look: it finds them there
    assert _lcm_uses(home) and _int64_limits(home)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_residue_helpers_are_not_copied(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _lcm_uses(tree), \
        f"{path.name} uses lcm at lines {_lcm_uses(tree)}; call exact_torus.common_scale"
    assert not _int64_limits(tree), \
        (f"{path.name} writes an int64 limit at lines {_int64_limits(tree)}; "
         "use exact_torus.int_dtype or INT64_MAX")


def _pairs_new_with_dict_update(tree: ast.AST) -> bool:
    """Whether the module calls both object.__new__ and some <x>.__dict__.update."""
    calls = [node.func for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    new = any(f.attr == "__new__" and isinstance(f.value, ast.Name) and f.value.id == "object"
              for f in calls)
    update = any(f.attr == "update" and isinstance(f.value, ast.Attribute)
                 and f.value.attr == "__dict__" for f in calls)
    return new and update


def test_one_getattr_in_the_shared_lazy_base():
    found = [(path.stem, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
    assert [stem for stem, _ in found] == ["exact_torus"], found


def test_reports_imports_no_result_module():
    tree = ast.parse((SRC / "reports.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").removeprefix("gaplab."))
            if not node.module or node.module == "gaplab":
                imported |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.removeprefix("gaplab.") for a in node.names}
    assert "exact_torus" in imported
    assert not imported & {"gap_spectrum", "nn_census", "sumset_engine"}, imported


def test_unread_instances_are_built_in_one_place():
    # the detector finds the shared constructor in its home
    assert _pairs_new_with_dict_update(ast.parse((SRC / "exact_torus.py").read_text()))
    pairing = [path.stem for path in MODULES
               if _pairs_new_with_dict_update(ast.parse(path.read_text()))]
    assert pairing == [], f"{pairing} build instances by hand; call exact_torus._unread"


def _classes():
    """(module stem, class node) for every class defined in src/gaplab."""
    return [(path.stem, node) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]


def _methods(cls: ast.ClassDef) -> dict:
    return {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}


def test_frozenness_and_repr_come_from_dataclasses():
    found = [(path.stem, node.lineno, node.name) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)
             and node.name in ("__setattr__", "__delattr__", "__repr__")]
    assert found == [], found


def test_every_lifting_class_is_a_lazy_fields_dataclass():
    import dataclasses
    import importlib
    from functools import cached_property

    from gaplab.exact_torus import LazyFields

    lifting = [(stem, cls.name) for stem, cls in _classes() if "_lift" in _methods(cls)]
    assert {name for _, name in lifting} >= {"CircularSet", "PointCloud", "CensusReport",
                                             "CoverResult", "FiniteExactSet"}
    for stem, name in lifting:
        cls = getattr(importlib.import_module(f"gaplab.{stem}"), name)
        assert dataclasses.is_dataclass(cls) and issubclass(cls, LazyFields), name
        cached = {key for key, value in vars(cls).items() if isinstance(value, cached_property)}
        assert not cached & set(cls._LAZY), (name, cached & set(cls._LAZY))
