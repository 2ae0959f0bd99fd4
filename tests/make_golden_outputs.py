"""Regenerate tests/golden_outputs.json, the corpus that
tests/test_golden_outputs.py compares byte for byte.

    PYTHONPATH=src python tests/make_golden_outputs.py

The corpus is the benchmark's seeded CLI expressions (drawn here from
perfbench/workloads.py and stored literally, so the test does not import
the benchmark), hand-written validator and operator lines, every operator
on one argument of each kind of value, PBW products with both a and d,
and the full suite at two seeds.  Rerun it only when an output is meant
to change, and read the diff of the JSON file.
"""

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

from qsphere.algebra import OPERATORS  # noqa: E402
from test_golden_outputs import GOLDEN, capture  # noqa: E402

DRAWS_PER_SEED = 150
SEEDS = (301, 7919)

# the degree validators, usage errors and one line per operator
HAND_WRITTEN = (
    "star(e0)", "star(a*a*ep)", "star(a*ep)", "star(a)", "nabla(a*a*ep)",
    "nabla(e0)", "nabla(b0)", "del(a)", "lap(a)", "dirac(a*a)", "dirac(b0)",
    "b0^-1", "0^-1", "ep + nabla(d(b0))", "d(", "a b", "q^x", "foo(a)",
    "d(a)", "d(0)", "d(d(a))", "lap(bp)", "lap(b0^3)", "lap(b0*bp)",
    "S(a)", "S(b)", "S(a*b*c*d)", "eps(a)", "eps(b)", "dirac(a)", "dirac(b)",
    "dirac(dirac(a))", "star(1)", "star(ep*em)", "star(d(b0))",
    "del(b0) + delbar(b0)", "nabla(d(b0))", "nabla(del(bp))",
    "q^2*bm*d(bp)+bp*d(bm)-(1+(q+q^-1)*b0)*d(b0)",
    # first uses of the calculus on the paths that load it late
    "a*ep", "e0^2", "ep^0", "ep^-1", "lap(d(a))", "S(e0)", "nabla(0)",
    "d(nabla(d(b0)))", "star(nabla(d(b0)))", "nabla(d(b0))+1", "nabla(d(b0))+0",
    # a tensor scales by a scalar on either side, but not by an element on the right
    "nabla(d(b0))*2", "nabla(d(b0))*a",
)

# one argument of each kind and degree an operator may meet: scalars,
# elements of degree 0, 1 and 2 and of mixed degree, spinors, forms of each
# degree, with and without e0, and a tensor
OPERATOR_ARGUMENTS = (
    "0", "1", "q", "a", "b0", "a*a", "a+1", "b0*a", "e0", "ep", "d(b0)", "d(a)",
    "ep*em", "a*a*ep", "b*b*ep", "nabla(d(b0))", "0*ep", "e0*ep*em", "d(b0)*d(bp)",
    "star(1)", "a*em", "b0+a",
)

PBW_PRODUCTS = ("d^5*a^7", "a^4*d^3", "b^2*c*a^3*d^2", "S(d^4*a^6)", "d^12*a^12")


def corpus():
    """The argument lists of the corpus, in order."""
    from workloads import cli_expressions

    for seed in SEEDS:
        for expr in itertools.islice(cli_expressions(random.Random("cli-%d" % seed)),
                                     DRAWS_PER_SEED):
            yield [expr]
    for expr in HAND_WRITTEN + PBW_PRODUCTS:
        yield [expr]
    for name in OPERATORS:
        for arg in OPERATOR_ARGUMENTS:
            expr = "%s(%s)" % (name, arg)
            if expr not in HAND_WRITTEN:
                yield [expr]
    for seed in (0, 7919):
        yield ["--suite", "all", "--seed", str(seed)]


def main():
    cases = []
    for argv in corpus():
        code, out, err = capture(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print("wrote %d cases to %s" % (len(cases), GOLDEN))


if __name__ == "__main__":
    main()
