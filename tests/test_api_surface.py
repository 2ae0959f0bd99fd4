"""The library holds no code that only tests call.

The scan walks the source of every module in src/qsphere.  Each
top-level function and class, each public top-level assignment and each
method other than a dunder must be referenced somewhere in the library
outside its own definition: by name, or as an attribute.  A name kept
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
    """(qualified name, bare name, defining node) of everything the scan covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _dunder(node.name):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("_"):
                    yield f"{module}.{name.id}", name.id, node


def _referenced_name(node):
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def _uncalled(trees):
    """The qualified and bare names of the definitions no code outside them reads."""
    uses = {}  # bare name -> the reference nodes, in the whole library
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _referenced_name(node)
            if name is not None:
                uses.setdefault(name, set()).add(node)
    out = {}  # qualified name -> bare name
    for module, tree in trees.items():
        for qualname, name, node in _definitions(module, tree):
            if not uses.get(name, set()) - set(ast.walk(node)):
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
        "def used():\n    return 1\n\n"
        "def dead():\n    return dead()\n\n"
        "class K:\n    def m(self):\n        return used()\n\n"
        "    def __len__(self):\n        return 0\n\n"
        "CONST = K()\n_private = 1\n"
    )
    # dead() calls only itself, and nothing reads m or CONST
    assert _uncalled({"mod": tree}) == {"mod.dead": "dead", "mod.K.m": "m", "mod.CONST": "CONST"}


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
