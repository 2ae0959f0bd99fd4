import sys

import pytest


def memo_tables():
    """Every functools cache defined at the top level of a loaded qsphere
    module: the engine's memoised operator tables."""
    for name, module in list(sys.modules.items()):
        if name.startswith("qsphere."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                    yield value


def _clear_memo_tables():
    for table in memo_tables():
        table.cache_clear()


@pytest.fixture
def fresh_tables():
    """Empty every memo table before and after the test, so that a fault
    injected into the code behind a table is seen by it, and the entries
    built under the fault do not outlive the test."""
    _clear_memo_tables()
    yield
    _clear_memo_tables()
