"""Byte-for-byte CLI outputs on a fixed corpus.

tests/golden_outputs.json holds, for each argument list, the stdout,
stderr and exit code of qsphere.cli.main: seeded benchmark expressions,
the degree-validator and operator lines, large PBW products and full
suite reports.  A change that alters a printed normal form fails here
even when the printer and the parser change together.  Regenerate the
file with tests/make_golden_outputs.py, and only on purpose.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import qsphere
from qsphere.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
SRC = str(Path(qsphere.__file__).resolve().parents[1])


def capture(argv):
    """(exit code, stdout, stderr) of cli.main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_outputs_match_the_golden_corpus():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(cases) > 300
    mismatches = []
    for case in cases:
        got = capture(case["argv"])
        if got != (case["exit"], case["stdout"], case["stderr"]):
            mismatches.append(case["argv"])
    assert not mismatches, "%d outputs changed, first %r" % (len(mismatches), mismatches[:3])


# The corpus runs in this process, where the calculus is loaded already.
# The CLI imports it late: at a form atom, d, star, nabla, or a check or
# message that names a form or tensor type.  These lines reach it first at
# each of those points, so a missing import there shows in a fresh child.
FIRST_TOUCH_OF_THE_CALCULUS = (
    "star(e0)", "star(a*a*ep)", "star(a*ep)", "star(a)", "nabla(a*a*ep)",
    "nabla(e0)", "nabla(b0)", "ep + nabla(d(b0))", "d(a)", "d(0)", "d(d(a))",
    "star(1)", "star(ep*em)", "star(d(b0))", "nabla(d(b0))", "nabla(del(bp))",
    "q^2*bm*d(bp)+bp*d(bm)-(1+(q+q^-1)*b0)*d(b0)",
    "a*ep", "e0^2", "ep^0", "ep^-1", "lap(d(a))", "S(e0)", "nabla(0)",
    "d(nabla(d(b0)))", "star(nabla(d(b0)))", "nabla(d(b0))+1", "nabla(d(b0))+0",
)


def run_fresh(line):
    """(exit code, stdout, stderr) of qsphere.cli on line, in a new interpreter.

    -S leaves out site-packages, which the library does not need; it more
    than halves the start of each child."""
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "qsphere.cli", line], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_first_use_of_the_calculus_in_a_fresh_interpreter():
    cases = {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    # two children at a time
    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(run_fresh, FIRST_TOUCH_OF_THE_CALCULUS))
    mismatches = [
        (line, out[2][-300:])
        for line, out in zip(FIRST_TOUCH_OF_THE_CALCULUS, got)
        if out != tuple(cases[(line,)][k] for k in ("exit", "stdout", "stderr"))
    ]
    assert not mismatches, "%d lines differ, first %r" % (len(mismatches), mismatches[:2])
