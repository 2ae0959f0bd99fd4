"""Per-layer tracing of the qsphere engine, installed from outside.

Each of the eight modules of ``qsphere`` is one layer.  A layer's boundary
is its public surface: the module-level functions whose names do not start
with ``_``, and the public methods, constructor and arithmetic operators of
its public classes.  ``install`` wraps each of them once and then rebinds
every reference to the original it can reach: module globals (which covers
``from .algebra import coproduct`` and aliases such as
``_q = Scalar.q_power``), values of module-level dicts, default arguments,
and function-valued attributes of module-level instances.

A wrapped call is a span.  Spans are not stored: the scalars layer alone
makes millions of calls a run.  Instead a stack of open spans gives each
layer its call count, its self time (span time minus the time of its child
spans) and its error count (calls that ended in an exception).  Because
spans nest on one thread, the self times of all layers sum to at most the
wall time of the traced work.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("scalars", "algebra", "calculus", "bundles", "sphere", "riemann", "spin", "cli")

_OPERATORS = frozenset((
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
))

# the unbounded memo caches, read through cache_info() at the end of a run
MEMO_CACHES = {
    "algebra": ("_straighten", "_d_pow_a_pow", "_coproduct_mono"),
    "calculus": ("_d_mono", "_d_word"),
}


class Tracer:
    """Aggregate span counters per layer, plus the scalar-denominator census."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.scalars_built = 0
        self.general_den = 0
        # one entry per open span: the time its child spans have taken
        self._open = []
        self._paused = [False]

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block are not recorded (the benchmark's
        own reference computations)."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def wrap(self, layer, fn):
        calls, self_s, errors, open_spans = self.calls, self.self_s, self.errors, self._open
        paused = self._paused

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                took = perf_counter() - start
                self_s[layer] += took - open_spans.pop()
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += took

        traced.__wrapped__ = fn
        return traced

    def wrap_scalar_init(self, fn):
        """Scalar.__init__ is where normalisation happens; also record
        whether the reduced denominator is a monomial c*s^k."""
        timed = self.wrap("scalars", fn)

        def init(scalar, *args, **kwargs):
            timed(scalar, *args, **kwargs)
            if self._paused[0]:
                return
            self.scalars_built += 1
            if sum(1 for c in scalar.den if c) != 1:
                self.general_den += 1

        init.__wrapped__ = fn
        return init

    def layer_metrics(self):
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = (self.calls[layer], "count")
            out[layer + ".self_s"] = (self.self_s[layer], "s")
            out[layer + ".errors"] = (self.errors[layer], "count")
        built = self.scalars_built
        out["scalars.general_den_ratio"] = (self.general_den / built if built else 0.0, "ratio")
        return out


def memo_cache_metrics():
    """Hit ratio and entry count of the memo caches, summed per layer.

    A cache that no longer exists is skipped and listed under ``missing``,
    so a refactor that removes one shows in the environment record."""
    out, missing = {}, []
    for layer, names in MEMO_CACHES.items():
        module = sys.modules["qsphere." + layer]
        hits = misses = entries = 0
        for name in names:
            info = getattr(getattr(module, name, None), "cache_info", None)
            if info is None:
                missing.append(layer + "." + name)
                continue
            info = info()
            hits, misses, entries = hits + info.hits, misses + info.misses, entries + info.currsize
        looked_up = hits + misses
        out[layer + ".cache_hit_ratio"] = (hits / looked_up if looked_up else 0.0, "ratio")
        out[layer + ".cache_entries"] = (entries, "count")
    return out, missing


def _boundary(module):
    """(owner, attribute name, layer function) for the layer's public surface."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj
        elif inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                if attr.startswith("_") and attr not in _OPERATORS:
                    continue
                fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                if inspect.isfunction(fn):
                    yield obj, attr, member


def install(tracer):
    """Wrap every layer's public surface and rebind every reference to it."""
    modules = [importlib.import_module("qsphere." + layer) for layer in LAYERS]
    wrapped = {}  # original function -> traced function
    for layer, module in zip(LAYERS, modules):
        for owner, attr, member in _boundary(module):
            kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
            fn = member.__func__ if kind else member
            if fn not in wrapped:
                if owner.__name__ == "Scalar" and attr == "__init__":
                    wrapped[fn] = tracer.wrap_scalar_init(fn)
                else:
                    wrapped[fn] = tracer.wrap(layer, fn)
            setattr(owner, attr, kind(wrapped[fn]) if kind else wrapped[fn])

    def swap(value):
        return wrapped.get(value, value) if inspect.isfunction(value) else value

    def rebind_defaults(fn):
        if fn.__defaults__:
            fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)

    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj):
                setattr(module, name, swap(obj))
                rebind_defaults(getattr(obj, "__wrapped__", obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    obj[key] = swap(value)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for member in vars(obj).values():
                    fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                    if inspect.isfunction(fn):
                        rebind_defaults(getattr(fn, "__wrapped__", fn))
            elif type(obj).__module__.startswith("qsphere."):
                for slot in getattr(type(obj), "__slots__", ()):
                    value = getattr(obj, slot, None)
                    if inspect.isfunction(value):
                        setattr(obj, slot, swap(value))
    return wrapped
