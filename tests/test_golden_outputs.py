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
from pathlib import Path

from qsphere.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")


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
