"""The three workloads: seeded inputs, one closed-loop client, exact checks.

A workload is an endless iterator of *units*.  A unit is a callable that
does some work and returns one ``(latency_s, ok)`` pair per item it
completed.  Every item is checked against an exact expectation; an item
whose check fails, or that raises, is reported with ``ok`` false and the
run carries on.

The engine is always reached through module attributes (``algebra.coproduct``
rather than a name bound at import), so a tracer installed after import
sees every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from qsphere import algebra, calculus, cli, scalars

ROOT = Path(__file__).resolve().parent.parent

GEOMETRY_SUITES = (
    "calculus", "sphere", "metric", "hodge", "laplace",
    "maxwell", "connection", "curvature", "dirac", "bwb",
)

# Formatted reports of the geometry suites at seed 0, captured from
# ``format_report(run_suite(name, seed=0))``.  A passing report differs
# between seeds only in its "seed:" line.
EXPECTED_REPORTS = json.loads((Path(__file__).parent / "expected_reports.json").read_text())


def _timed(fn, *args):
    start = perf_counter()
    try:
        ok = fn(*args)
    except Exception:
        ok = False
    return perf_counter() - start, ok


# ---------------------------------------------------------------------------
# hopf: one random PBW word per item


def hopf_words(rng):
    """Words of length 1-6 over a b c d with uniform letters, as the hopf
    suite draws them; each round of six holds one word of every length, so
    every run has the same share of the expensive long words."""
    while True:
        lengths = list(range(1, 7))
        rng.shuffle(lengths)
        for n in lengths:
            yield tuple(rng.choice("abcd") for _ in range(n))


def _coassociator(dx):
    """(Delta (x) id) Delta x - (id (x) Delta) Delta x, as a dict of the
    triple tensors that do not cancel."""
    zero = scalars.ZERO
    left, right = {}, {}
    for (m1, m2), co in dx.items():
        for (n1, n2), c2 in algebra.coproduct(algebra.AlgebraElement({m1: scalars.ONE})).items():
            key = (n1, n2, m2)
            left[key] = left.get(key, zero) + co * c2
        for (n1, n2), c2 in algebra.coproduct(algebra.AlgebraElement({m2: scalars.ONE})).items():
            key = (m1, n1, n2)
            right[key] = right.get(key, zero) + co * c2
    return {k: v for k in left.keys() | right.keys()
            if (v := left.get(k, zero) - right.get(k, zero))}


def hopf_check(word):
    """True when every Hopf identity on the word has an empty difference:
    left/right rewrite confluence, coassociativity, the counit axioms and
    the antipode axioms."""
    x = algebra.normalize(word, "left")
    if x - algebra.normalize(word, "right"):
        return False
    dx = algebra.coproduct(x)
    if _coassociator(dx):
        return False

    def unit_counit(u):
        return algebra.one.scale(algebra.counit(u))

    def ident(u):
        return u

    if dx.map_legs(unit_counit, ident) - x or dx.map_legs(ident, unit_counit) - x:
        return False
    target = unit_counit(x)
    return not (dx.map_legs(algebra.antipode, ident) - target
                or dx.map_legs(ident, algebra.antipode) - target)


def hopf(seed, in_process, tracer):
    for word in hopf_words(random.Random("hopf-%d" % seed)):
        yield lambda word=word: [_timed(hopf_check, word)]


# ---------------------------------------------------------------------------
# geometry: the checks of the ten non-Hopf suites, seed after seed


def expected_report(suite, seed):
    return EXPECTED_REPORTS[suite].replace("\nseed: 0\n", "\nseed: %d\n" % seed, 1)


def _time_checks(latencies):
    """Make cli.run_suite time each check it runs, keyed by anchor.

    run_suite looks its suites up in cli._SUITE_BUILDERS, which returns
    (anchor, thunk) pairs; each thunk is wrapped in a timer."""
    def timed_builder(build):
        def build_timed(opts):
            return [(anchor, timed_thunk(anchor, thunk)) for anchor, thunk in build(opts)]
        return build_timed

    def timed_thunk(anchor, thunk):
        def run():
            start = perf_counter()
            try:
                return thunk()
            finally:
                latencies[anchor] = perf_counter() - start
        return run

    builders = cli._SUITE_BUILDERS
    for name in GEOMETRY_SUITES:
        builders[name] = timed_builder(builders[name])


def geometry_unit(suite, seed, latencies):
    latencies.clear()
    try:
        report = cli.run_suite(suite, seed=seed)
        same = cli.format_report(report) == expected_report(suite, seed)
    except Exception:
        # a crash of run_suite itself fails every check the suite holds
        return [(0.0, False)] * EXPECTED_REPORTS[suite].count(": pass\n")
    return [(latencies.get(r["anchor"], 0.0), same and r["status"] == "pass")
            for r in report["results"]]


def geometry(seed, in_process, tracer):
    latencies = {}
    _time_checks(latencies)
    run_seed = seed
    while True:
        for suite in GEOMETRY_SUITES:
            yield lambda suite=suite, s=run_seed: geometry_unit(suite, s, latencies)
        run_seed += 1


# ---------------------------------------------------------------------------
# cli: one `python -m qsphere.cli '<expr>'` process per item
#
# Expressions are well-typed draws from the README grammar.  Each generator
# returns text of one kind; the kinds follow the evaluator's typing rules.

_SCALAR_ATOMS = ("2", "3", "5", "q", "s", "q^-1", "q^2", "s^-1", "s^3")
_SPHERE_ATOMS = ("b0", "bp", "bm")


def _pick(rng, depth, leaves, branches):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(leaves)(rng)
    return rng.choice(branches)(rng, depth - 1)


def gen_scalar(rng, depth=2):
    return _pick(rng, depth, [lambda r: r.choice(_SCALAR_ATOMS)], [
        lambda r, d: "(%s+%s)" % (gen_scalar(r, d), gen_scalar(r, d)),
        lambda r, d: "%s*%s" % (gen_scalar(r, d), gen_scalar(r, d)),
        lambda r, d: "eps(%s)" % gen_element(r, d),
    ])


def gen_element(rng, depth=2):
    """Any algebra element."""
    return _pick(rng, depth, [
        lambda r: r.choice("abcd"),
        lambda r: "%s^%d" % (r.choice("abcd"), r.randint(2, 3)),
    ], [
        lambda r, d: "%s*%s" % (gen_element(r, d), gen_element(r, d)),
        lambda r, d: "%s*%s" % (gen_scalar(r, d), gen_element(r, d)),
        lambda r, d: "(%s+%s)" % (gen_element(r, d), gen_element(r, d)),
        lambda r, d: "S(%s)" % gen_element(r, d),
        lambda r, d: gen_spinor(r, d),
    ])


def gen_sphere(rng, depth=2):
    """A degree-0 element: a function on the sphere."""
    return _pick(rng, depth, [
        lambda r: r.choice(_SPHERE_ATOMS),
        lambda r: "%s^%d" % (r.choice(_SPHERE_ATOMS), r.randint(2, 3)),
    ], [
        lambda r, d: "%s*%s" % (gen_sphere(r, d), gen_sphere(r, d)),
        lambda r, d: "%s*%s" % (gen_scalar(r, d), gen_sphere(r, d)),
        lambda r, d: "(%s-%s)" % (gen_sphere(r, d), gen_sphere(r, d)),
        lambda r, d: "lap(%s)" % gen_sphere(r, d),
    ])


def gen_spinor(rng, depth=2):
    """An element with charge +1 and -1 parts only, the input of dirac()."""
    return _pick(rng, depth, [lambda r: r.choice("abcd")], [
        lambda r, d: "%s*%s" % (gen_sphere(r, d), r.choice("abcd")),
        lambda r, d: "(%s+%s)" % (gen_spinor(r, d), gen_spinor(r, d)),
        lambda r, d: "%s*%s" % (gen_scalar(r, d), gen_spinor(r, d)),
        lambda r, d: "dirac(%s)" % gen_spinor(r, d),
    ])


def gen_sphere_form(rng, depth=2):
    """A one-form on the sphere."""
    return _pick(rng, depth, [
        lambda r: "%s(%s)" % (r.choice(("d", "del", "delbar")), r.choice(_SPHERE_ATOMS)),
    ], [
        lambda r, d: "%s(%s)" % (r.choice(("d", "del", "delbar")), gen_sphere(r, d)),
        lambda r, d: "%s*%s" % (gen_sphere(r, d), gen_sphere_form(r, d)),
        lambda r, d: "(%s+%s)" % (gen_sphere_form(r, d), gen_sphere_form(r, d)),
        lambda r, d: "star(%s)" % gen_sphere_form(r, d),
    ])


def gen_form(rng, depth=2):
    """Any form upstairs."""
    return _pick(rng, depth, [
        lambda r: r.choice(("e0", "ep", "em")),
        lambda r: "d(%s)" % r.choice("abcd"),
    ], [
        lambda r, d: "d(%s)" % gen_element(r, d),
        lambda r, d: "%s*%s" % (gen_element(r, d), gen_form(r, d)),
        lambda r, d: "%s*%s" % (gen_form(r, d), gen_form(r, d)),
        lambda r, d: "d(%s)" % gen_form(r, d),
        lambda r, d: "star(%s)" % gen_sphere_form(r, d),
    ])


def gen_tensor(rng, depth=2):
    return "nabla(%s)" % gen_sphere_form(rng, depth - 1)


CLI_KINDS = (gen_scalar, gen_element, gen_sphere, gen_spinor, gen_sphere_form, gen_form, gen_tensor)


def cli_expressions(rng):
    while True:
        yield rng.choice(CLI_KINDS)(rng)


def cli_expected(expr):
    """The in-process rendering the child must print, after checking that
    it parses back to the same value (tensors excepted: their "(x)"
    marker is display-only)."""
    value = cli.evaluate_text(expr)
    text = cli.render_value(value)
    if not isinstance(value, calculus.TensorForm):
        # the engine's own subtraction lifts both sides to a common kind
        if cli.evaluate_text("(%s) - (%s)" % (text, expr)):
            raise ValueError("%r does not parse back to its value" % text)
    return text + "\n"


def child_env():
    """The environment for cli children: they import the same qsphere
    sources as this process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def cli_child(expr, want, env):
    proc = subprocess.run(
        [sys.executable, "-m", "qsphere.cli", expr],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    return proc.returncode == 0 and proc.stdout == want


def cli_in_process(expr, want):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([expr])
    return code == 0 and out.getvalue() == want


def cli_unit(expr, env, in_process, tracer):
    try:
        # the reference rendering is the benchmark's work, not the item's
        with tracer.paused() if tracer else contextlib.nullcontext():
            want = cli_expected(expr)
    except Exception:
        return [(0.0, False)]
    if in_process:
        return [_timed(cli_in_process, expr, want)]
    return [_timed(cli_child, expr, want, env)]


def cli_workload(seed, in_process, tracer):
    env = child_env()
    for expr in cli_expressions(random.Random("cli-%d" % seed)):
        yield lambda expr=expr: cli_unit(expr, env, in_process, tracer)


WORKLOADS = {"hopf": hopf, "geometry": geometry, "cli": cli_workload}
