"""The library holds no code that only tests call.

The scan walks the source of every module in src/qsphere.  Each
top-level function and class, each public top-level assignment and each
method other than a dunder must be referenced somewhere in the library
outside its own definition: a top-level name by name or as an attribute,
a method or property only as an attribute (x.name), so that a local
variable of the same name does not count as its caller.  A name kept
without such a caller is listed in KEPT, with its reason.
"""

import ast
import importlib
from pathlib import Path

from conftest import memo_tables

SRC = Path(__file__).resolve().parent.parent / "src" / "qsphere"

KEPT = {
    "lift_iY": "tests/test_acceptance.py imports it",
    "qint_sym": "the Laplace eigenvalues q^2 [L]_q [L+1]_q of the planned "
                "spectrum checks are written in it",
    "LEVI_CIVITA": "perfbench/test_perfbench.py pins LEVI_CIVITA.apply",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """(qualified name, bare name, defining node, is a method) of everything
    the scan covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _dunder(node.name):
            yield f"{module}.{node.name}", node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("_"):
                    yield f"{module}.{name.id}", name.id, node, False


def _uncalled(trees):
    """The qualified and bare names of the definitions no code outside them reads."""
    loads, reads = {}, {}  # bare name -> its Name loads / its attribute reads, library-wide
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, set()).add(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(node)
    out = {}  # qualified name -> bare name
    for module, tree in trees.items():
        for qualname, name, node, method in _definitions(module, tree):
            uses = reads.get(name, set()) | (set() if method else loads.get(name, set()))
            if not uses - set(ast.walk(node)):
                out[qualname] = name
    return out


def test_every_name_has_a_caller_in_the_library():
    uncalled = _uncalled(_trees())
    unexplained = sorted(q for q, name in uncalled.items() if name not in KEPT)
    assert unexplained == [], "referenced by no library code: %s" % ", ".join(unexplained)
    # a kept name that gained a caller, or was deleted, leaves the list
    assert sorted(uncalled.values()) == sorted(KEPT)


def test_the_scan_sees_dead_code():
    tree = ast.parse(
        "def used(l):\n    return l\n\n"
        "def dead():\n    return dead()\n\n"
        "class K:\n    def m(self):\n        return used(1)\n\n"
        "    @property\n    def l(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "CONST = K()\n_private = 1\n"
    )
    # dead() calls only itself, nothing reads m or CONST, and the load of the
    # local variable l in used() is not a read of the property K.l
    assert _uncalled({"mod": tree}) == {
        "mod.dead": "dead", "mod.K.m": "m", "mod.K.l": "l", "mod.CONST": "CONST"}


def test_memo_table_scan_finds_every_table():
    """The fresh_tables fixture clears what memo_tables() finds: every
    lru_cache in the source must be a module global it can see."""
    cached = set()
    for module, tree in _trees().items():
        if module != "__init__":
            importlib.import_module(f"qsphere.{module}")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                "cache" in ast.unparse(dec) for dec in node.decorator_list
            ):
                cached.add(f"{module}.{node.name}")
    found = {f"{t.__module__.rsplit('.', 1)[1]}.{t.__name__}" for t in memo_tables()}
    assert cached and found == cached
