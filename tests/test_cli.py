import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qsphere
from qsphere.algebra import OPERATORS, AlgebraElement, a, b, c, coproduct, degree_split
from qsphere.algebra import d as gd
from qsphere.calculus import EM, EP, Form, d as dd, tensor, wedge
from qsphere.cli import (
    _DOMAINS,
    CliSyntaxError,
    EvalError,
    _lift,
    _rank,
    evaluate_text,
    format_report,
    main,
    parse,
    render_value,
    run_suite,
)
from qsphere.scalars import ONE, Scalar, two_q
from qsphere.sphere import b0, bm, bp, one
from qsphere.spin import GENERATOR_SPINORS, dirac, spinor_parts

q = Scalar.q_power
GENS = (a, b, c, gd)


def random_scalar(rng):
    out = Scalar.from_int(0)
    for _ in range(rng.randrange(1, 4)):
        out = out + Scalar.s_power(rng.randrange(-4, 5)) * rng.randrange(-5, 6)
    return out


def random_element(rng, maxlen=4):
    out = AlgebraElement.zero()
    for _ in range(rng.randrange(1, 4)):
        term = AlgebraElement.one()
        for _ in range(rng.randrange(maxlen + 1)):
            term = term * rng.choice(GENS)
        out = out + term.scale(random_scalar(rng))
    return out


def random_form(rng):
    out = Form.of(random_element(rng, 2))
    out = out + random_element(rng, 2) * dd(random_element(rng, 2))
    if rng.random() < 0.5:
        out = out + wedge(dd(random_element(rng, 1)), dd(random_element(rng, 1)))
    return out


# non-unit coefficients, among them a true rational function and odd powers of s
SPINOR_COEFFS = (Scalar.from_int(-2), q(3), Scalar.s_power(-1), Scalar.s_power(3),
                 ONE / (ONE + q(-4)), q(-1) / two_q)


def random_spinor(rng):
    out = AlgebraElement.zero()
    for _ in range(rng.randrange(1, 4)):
        f = one
        for _ in range(rng.randrange(3)):
            f = f * rng.choice((b0, bp, bm))
        out = out + (f * rng.choice(GENERATOR_SPINORS)).scale(rng.choice(SPINOR_COEFFS))
    return out


def test_pinned_evaluations():
    assert render_value(evaluate_text("d(a)")) == "a*e0 + q*b*ep"
    sphere_relation = "q^2*bm*d(bp)+bp*d(bm)-(1+(q+q^-1)*b0)*d(b0)"
    assert render_value(evaluate_text(sphere_relation)) == "0"
    assert render_value(evaluate_text("lap(bp)")) == "q^2*(q+q^-1)*bp"


def test_more_evaluations():
    assert render_value(evaluate_text("S(a)")) == "d"
    assert render_value(evaluate_text("S(b)")) == "0 - q*b"
    assert render_value(evaluate_text("eps(a)")) == "1"
    assert render_value(evaluate_text("eps(b)")) == "0"
    assert render_value(evaluate_text("dirac(a)")) == "b"
    assert render_value(evaluate_text("dirac(b)")) == "q*a"
    assert render_value(evaluate_text("star(1)")) == "ep*em"
    assert render_value(evaluate_text("star(ep*em)")) == "1"
    assert render_value(evaluate_text("del(b0) + delbar(b0)")) == render_value(
        evaluate_text("d(b0)")
    )
    # whitespace-insensitive
    assert evaluate_text(" q ^ 2 * b0 ") == evaluate_text("q^2*b0")


def test_syntax_error_positions():
    with pytest.raises(CliSyntaxError) as err:
        parse("d(")
    assert err.value.position == 2
    assert err.value.expected  # a non-empty token set
    with pytest.raises(CliSyntaxError) as err:
        parse("")
    assert err.value.position == 0
    with pytest.raises(CliSyntaxError) as err:
        parse("a b")
    assert err.value.position == 2
    with pytest.raises(CliSyntaxError) as err:
        parse("q^x")
    assert err.value.expected == ("an integer",)
    with pytest.raises(CliSyntaxError):
        parse("foo(a)")
    with pytest.raises(CliSyntaxError):
        parse("a + ?")


def test_eval_type_errors():
    for bad in ("dirac(b0)", "lap(a)", "del(a)", "star(e0)", "nabla(b0)",
                "b0^-1", "ep + nabla(d(b0))", "dirac(a*a)", "dirac(a+1)",
                "nabla(d(b0))*a"):
        with pytest.raises(EvalError):
            evaluate_text(bad)


@pytest.mark.parametrize("expr, line", [
    ("star(e0)", "error: star(): form does not live on the sphere (e0 present)"),
    ("star(a*a*ep)", "error: star(): coefficient of ep must have degree -2"),
    ("nabla(a*a*ep)", "error: nabla(): coefficient of ep must have degree -2"),
    ("nabla(e0)", "error: nabla(): form does not live on the sphere (e0 present)"),
    # two bad words: the first in the printer's order is named, whatever
    # order the form's terms were built in
    ("star(a*ep + b*em + (c*ep - a*ep))", "error: star(): coefficient of em must have degree 2"),
    ("star(c*ep + b*em)", "error: star(): coefficient of em must have degree 2"),
    ("star(e0 + a*a*ep)", "error: star(): form does not live on the sphere (e0 present)"),
    ("star(a*a*ep + e0)", "error: star(): form does not live on the sphere (e0 present)"),
    ("del(a)", "error: del() needs a degree-0 (sphere) element"),
    ("lap(a)", "error: lap() needs a degree-0 (sphere) element"),
    ("dirac(a*a)", "error: dirac() needs components of charge +1 and -1 only"),
])
def test_degree_validator_lines(capsys, expr, line):
    assert main([expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_negative_output_reparses():
    assert render_value(evaluate_text("0-q")) == "0 - q"
    assert evaluate_text("0 - q") == -q(1)
    val = evaluate_text("S(b)*3")
    assert evaluate_text(render_value(val)) == val


def test_roundtrip_scalars():
    rng = random.Random(11)
    for _ in range(100):
        x = random_scalar(rng)
        assert evaluate_text(render_value(x)) == x
        assert repr(x) == render_value(x)
        assert evaluate_text(repr(x)) == x
        assert evaluate_text(repr(-x)) == -x
    assert repr(-q(1)) == "0 - q"


def test_roundtrip_elements():
    rng = random.Random(12)
    for _ in range(100):
        x = random_element(rng)
        got = evaluate_text(render_value(x))
        assert _lift(got, _rank(x)) == x
        assert repr(x) == render_value(x)
        assert _lift(evaluate_text(repr(x)), _rank(x)) == x


def test_roundtrip_forms():
    rng = random.Random(13)
    for _ in range(100):
        x = random_form(rng)
        got = evaluate_text(render_value(x))
        assert _lift(got, _rank(x)) == x
        assert repr(x) == render_value(x)
        assert _lift(evaluate_text(repr(x)), _rank(x)) == x


def random_tensor_form(rng):
    leg = Form.of(random_element(rng, 2), EP) + Form.of(random_element(rng, 2), EM)
    return tensor(random_form(rng), leg)


def test_spinor_repr_reparses():
    # the text dirac() takes: one element, whose degrees +1 and -1 name S- and S+
    rng = random.Random(15)
    spinors = [AlgebraElement.zero()]
    for _ in range(40):
        parts = degree_split(random_element(rng))
        spinors.append(sum((parts[n] for n in (1, -1) if n in parts), AlgebraElement.zero()))
    assert any(all(spinor_parts(s)) for s in spinors)
    for sigma in spinors:
        assert _lift(evaluate_text(repr(sigma)), 1) == sigma
        assert _lift(evaluate_text("dirac(%r)" % sigma), 1) == dirac(sigma)
    assert repr(AlgebraElement.zero()) == "0"


def test_combination_group_laws():
    rng = random.Random(14)
    kinds = (
        random_element,
        random_form,
        lambda r: coproduct(random_element(r, 2)),
        random_tensor_form,
        random_spinor,
    )
    for make in kinds:
        for _ in range(20):
            x, y = make(rng), make(rng)
            assert (x - x).terms == {}
            assert (x + y) - y == x
            assert -(-x) == x
            assert repr(x) == render_value(x)


def test_reports_deterministic():
    first = run_suite("curvature")
    second = run_suite("curvature")
    assert first == second
    assert format_report(first) == format_report(second)


def test_curvature_report_line():
    report = format_report(run_suite("curvature"))
    assert "Prop-riemann: pass" in report


def test_bwb_anchor_per_weight():
    report = run_suite("bwb", max_n=4)
    anchors = [r["anchor"] for r in report["results"]]
    assert anchors == ["bwb-n%02d" % n for n in range(5)]
    assert all(r["status"] == "pass" for r in report["results"])


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_run_suite_rejects_negative_max_n():
    with pytest.raises(ValueError):
        run_suite("bwb", max_n=-3)


def test_run_suite_rejects_negative_sample():
    # a sample of 0 would pass the sampled checks without drawing anything
    for sample in (-2, 0):
        with pytest.raises(ValueError):
            run_suite("hopf", sample=sample)


# --max-n 0 is a real bound (charge 0 only); --sample 0 would sample nothing
BAD_BOUNDS = {"--max-n": ("-3",), "--sample": ("-3", "0")}


@pytest.mark.parametrize("flag", ["--max-n", "--sample"])
def test_main_rejects_negative_bounds(capsys, flag):
    for value in BAD_BOUNDS[flag]:
        with pytest.raises(SystemExit) as err:
            main(["--suite", "bwb", flag, value])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err.splitlines()[-1]


def test_inverting_zero_is_a_usage_error(capsys):
    assert main(["0^-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_unprintable_result_is_a_usage_error(capsys):
    # 2^20000 has more digits than Python converts to text by default
    assert main(["2^20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("expr", ["1" * 5000, "a^" + "1" * 5000], ids=["literal", "exponent"])
def test_overlong_integer_literal_is_a_usage_error(capsys, expr):
    # more digits than Python converts from text by default
    assert main([expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "5000-digit integer" in lines[0]


@pytest.mark.parametrize("expr, out", [
    ("+".join(["a"] * 5000), "5000*a"),
    ("*".join(["b"] * 3000), "b^3000"),
    ("a" + "-a+a" * 1500, "a"),
], ids=["flat-sum", "flat-product", "alternating-sum"])
def test_flat_sums_and_products_do_not_recurse(capsys, expr, out):
    # one node per sum or product, folded left to right: no depth limit
    assert main([expr]) == 0
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize("expr", ["(" * 2000 + "a" + ")" * 2000], ids=["deep-nesting"])
def test_too_large_expression_is_a_usage_error(expr):
    # in a fresh interpreter, at the stack depth a user's shell gives it
    out = run_child("-m", "qsphere.cli", expr)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.splitlines() == ["error: expression too large to evaluate"]


def test_large_pbw_product_stays_small():
    # d^100 a^100 is one row of 101 Gaussian binomials; the traced peak
    # covers evaluating and printing its 4 MB of output
    script = (
        "import sys, tracemalloc\n"
        "tracemalloc.start()\n"
        "from qsphere.cli import main\n"
        "code = main(['d^100*a^100'])\n"
        "print(code, tracemalloc.get_traced_memory()[1], file=sys.stderr)\n"
    )
    out = run_child("-c", script)
    code, peak = out.stderr.split()
    assert code == "0" and out.returncode == 0
    assert out.stdout.startswith("1 + q^100*(") and out.stdout.count(" + ") == 100
    assert int(peak) < 64 * 2 ** 20, "traced peak %.0f MB" % (int(peak) / 2 ** 20)


def test_main_exit_codes(capsys, monkeypatch, tmp_path):
    assert main(["d(a)"]) == 0
    assert capsys.readouterr().out == "a*e0 + q*b*ep\n"

    assert main(["d("]) == 2
    assert "position 2" in capsys.readouterr().err

    assert main(["dirac(b0)"]) == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as err:
        main(["--suite", "nope"])
    assert err.value.code == 2
    capsys.readouterr()

    json_path = tmp_path / "report.json"
    assert main(["--suite", "metric", "--json", str(json_path), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "summary: 3/3 passed" in out
    assert "metric-invariance" not in out  # quiet hides pass lines
    report = json.loads(json_path.read_text())
    assert sorted(report) == ["engine_version", "results", "seed", "suite"]
    assert all(r["millis"] == 0 for r in report["results"])

    # a failing check turns into exit code 1
    import qsphere.cli as cli_mod

    monkeypatch.setitem(
        cli_mod._SUITE_BUILDERS, "metric",
        lambda o: [("always-fails", lambda: "witnessed")],
    )
    assert main(["--suite", "metric"]) == 1
    out = capsys.readouterr().out
    assert "always-fails: fail  [witnessed]" in out


def test_injected_fault_fails_the_suite_under_python_O():
    # library guards raise rather than assert, so stripping asserts
    # cannot turn a wrong lift of the area form into a pass
    script = (
        "import sys\n"
        "from qsphere import cli, sphere\n"
        "from qsphere.scalars import Scalar\n"
        "sphere._ALPHA_GEOMETRIC = Scalar.q_power(-2) / 3\n"
        "sys.exit(cli.main(['--suite', 'all', '--quiet']))\n"
    )
    src = str(Path(qsphere.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "area-lift-family: fail" in proc.stdout


@pytest.mark.parametrize("kind", ["missing directory", "directory"])
def test_unwritable_json_path_is_a_usage_error(capsys, tmp_path, kind):
    path = tmp_path / "nosuch" / "report.json" if kind == "missing directory" else tmp_path
    assert main(["--suite", "metric", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the suite runs
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0]


def test_json_with_an_expression_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as err:
        main(["a", "--json", str(path)])
    assert err.value.code == 2
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("qsphere: error: --json ")


@pytest.mark.parametrize("flags", [["--seed", "3"], ["--quiet"], ["--sample", "5"],
                                   ["--max-n", "2"], ["--seed", "0"], ["--max-n", "-1"]])
def test_suite_option_with_an_expression_is_a_usage_error(capsys, flags):
    with pytest.raises(SystemExit) as err:
        main(["a"] + flags)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "qsphere: error: %s applies to a suite run, not to an expression" % flags[0])


@pytest.mark.parametrize("argv", [["a", "--seed", "3"], ["a", "--json", "x.json"],
                                  ["--suite", "nosuch"], [], ["a", "--bogus"]])
def test_usage_error_is_one_line(capsys, argv):
    # the diagnosis alone, without argparse's usage block
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qsphere: error: ")


def test_engine_fault_is_not_a_usage_error(monkeypatch):
    # only a ValueError is the operator refusing its input; any other
    # exception is a fault of the engine and propagates unchanged
    from qsphere import riemann

    def broken(tau):
        raise ArithmeticError("engine fault")

    monkeypatch.setattr(riemann, "nabla", broken)
    with pytest.raises(ArithmeticError, match="engine fault"):
        evaluate_text("nabla(d(b0))")


def test_suite_runs_keep_their_defaults(monkeypatch):
    from qsphere import cli

    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: calls.append(kw) or {"results": []})
    monkeypatch.setattr(cli, "format_report", lambda report, quiet: "")
    assert main(["--suite", "bwb"]) == 0
    assert calls == [{"seed": 0, "sample": None, "max_n": 6}]


def test_tensor_scales_on_either_side():
    for co in ("2", "q", "(1+q)", "0"):
        left = evaluate_text("%s*nabla(d(b0))" % co)
        assert evaluate_text("nabla(d(b0))*%s" % co) == left


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
def test_failed_json_write_is_one_line(capsys):
    # the path opens, but every write to it fails
    assert main(["--suite", "bwb", "--json", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("suite: bwb\n")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the report: ")


def test_closed_stdout_pipe_exits_1_quietly():
    # about 600 KB of output, far more than a pipe holds, so the child is
    # still writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "qsphere.cli", "d^60*a^60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


# --- what a call loads --------------------------------------------------------
#
# Importing the CLI loads the scalars and the algebra only, with the sphere
# atoms b0, bp, bm; the calculus is imported by the first form atom or
# operator that needs it, each geometry layer likewise, and argparse by main.

SRC = str(Path(qsphere.__file__).resolve().parents[1])
WATCHED = ("qsphere.calculus", "qsphere.sphere", "qsphere.riemann", "qsphere.spin",
           "qsphere.bundles", "argparse", "fractions", "decimal", "json")


def run_child(*args):
    """A fresh interpreter on this checkout's sources, at an 80-column width."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC, "COLUMNS": "80"},
    )


def loaded_by(code):
    """The watched modules a fresh interpreter loads while running code."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        + code + "\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = run_child("-c", script)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split()) & set(WATCHED)


LAYERS = {"qsphere.calculus", "qsphere.sphere", "qsphere.riemann", "qsphere.bundles",
          "qsphere.spin"}


@pytest.mark.parametrize("code, loaded", [
    ("import qsphere.cli", set()),
    ("from qsphere.cli import evaluate_text; evaluate_text('b0*bp - bm^2')", set()),
    ("from qsphere.cli import evaluate_text; evaluate_text('d(a)')",
     {"qsphere.calculus"}),
    ("from qsphere.cli import evaluate_text; evaluate_text('a*ep')",
     {"qsphere.calculus"}),
    ("from qsphere.cli import main; main(['a'])", {"argparse"}),
    ("from qsphere.cli import evaluate_text; evaluate_text('lap(b0)')",
     {"qsphere.calculus", "qsphere.sphere"}),
    ("from qsphere.cli import evaluate_text; evaluate_text('nabla(d(b0))')",
     LAYERS - {"qsphere.spin"}),
    ("from qsphere.cli import evaluate_text; evaluate_text('dirac(b0*a)')", LAYERS),
    ("from qsphere.cli import run_suite; run_suite('laplace')", LAYERS),
    # a usage error prints no usage block, so it builds no --suite choices
    ("from qsphere.cli import main\ntry:\n    main(['a', '--seed', '3'])\n"
     "except SystemExit:\n    pass", {"argparse"}),
], ids=["import", "sphere_atoms", "d", "form_atom", "main", "lap", "nabla", "dirac",
        "run_suite", "usage_error"])
def test_a_call_loads_only_the_layers_it_reaches(code, loaded):
    assert loaded_by(code) == loaded


# one argument per operator: the cold-start test must name every one
OPERATOR_ARGUMENTS = {
    "d": "b0", "del": "b0", "delbar": "b0", "star": "d(b0)", "nabla": "d(b0)",
    "dirac": "b0*a", "lap": "b0", "S": "a", "eps": "a",
}


def test_every_grammar_name_works_from_a_cold_start():
    import qsphere.cli as cli_mod

    assert set(OPERATOR_ARGUMENTS) == set(OPERATORS)
    exprs = ["%s(%s)" % item for item in OPERATOR_ARGUMENTS.items()]
    exprs += list(cli_mod._ATOM_VALUES)
    # one child evaluates all of them in turn, starting from the CLI import alone
    script = (
        "import sys\n"
        "from qsphere.cli import evaluate_text, render_value\n"
        "for expr in sys.argv[1:]:\n"
        "    print(render_value(evaluate_text(expr)))\n"
    )
    proc = run_child("-c", script, *exprs)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [render_value(evaluate_text(e)) for e in exprs]


def test_every_coefficient_is_a_scalar():
    # every kind of value is a flat {key: Scalar}; a form or tensor key ends
    # in the monomial its Scalar multiplies
    from qsphere import riemann, sphere
    from qsphere.algebra import Monomial
    from qsphere.calculus import TensorForm

    values = [op(evaluate_text(OPERATOR_ARGUMENTS[name])) for name, (op, _) in OPERATORS.items()]
    values += [sphere.metric_g(), sphere.einstein_lift(), sphere.geometric_lift()]
    values += [riemann.nabla(sphere.DB[i]) for i in "-0+"]
    values += [riemann.riemann_tensor(sphere.DEL["+"]), riemann.cotorsion()]
    kinds = set()
    for v in values:
        kinds.add(type(v))
        if type(v) is Scalar:
            continue
        assert all(type(co) is Scalar for co in v.terms.values()), v
        monomials = v.terms if type(v) is AlgebraElement else [k[-1] for k in v.terms]
        assert all(type(m) is Monomial for m in monomials), v
    assert kinds == {Scalar, AlgebraElement, Form, TensorForm}


@pytest.mark.parametrize("expr", ["ep^99999999", "e0^3000000", "em^2"])
def test_powers_of_a_form_atom_stop_at_the_first_zero(monkeypatch, expr):
    # a basis one-form squares to zero: one wedge, not k - 1 of them
    from qsphere import calculus

    calls, real = [], calculus.wedge
    monkeypatch.setattr(calculus, "wedge", lambda x, y: calls.append(1) or real(x, y))
    assert evaluate_text(expr) == 0 and len(calls) == 1
    calls.clear()
    assert evaluate_text("ep^1") == Form.of(one, EP) and calls == []


def test_every_domain_has_an_operator_and_every_operator_a_domain():
    # a dead row or a misspelt domain name would otherwise go unnoticed
    assert {domain for _, domain in OPERATORS.values()} == set(_DOMAINS)


SUITE_CHOICES = ("'hopf', 'calculus', 'sphere', 'metric', 'hodge', 'laplace', "
                 "'maxwell', 'connection', 'curvature', 'dirac', 'bwb', 'all'")


def test_suite_choices_read_as_before():
    proc = run_child("-m", "qsphere.cli", "--suite", "nosuch")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        "qsphere: error: argument --suite: invalid choice: 'nosuch' (choose from %s)"
        % SUITE_CHOICES
    )
    proc = run_child("-m", "qsphere.cli", "--help")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[:5] == [
        "usage: qsphere [-h]",
        "               [--suite {hopf,calculus,sphere,metric,hodge,laplace,maxwell,connection,curvature,dirac,bwb,all}]",
        "               [--max-n MAX_N] [--seed SEED] [--sample SAMPLE] [--json PATH]",
        "               [--quiet]",
        "               [expr]",
    ]


GEOMETRY_SUITES = ("calculus", "sphere", "metric", "hodge", "laplace", "maxwell",
                   "connection", "curvature", "dirac", "bwb")


@pytest.mark.parametrize("suite", GEOMETRY_SUITES)
def test_warm_tables_give_the_cold_report(suite):
    # the operator tables fill on the first run and are only read on the
    # second; a table that handed out a shared value some caller mutated
    # would make the two reports, or the report of a fresh process, differ
    first = format_report(run_suite(suite, seed=7919))
    second = format_report(run_suite(suite, seed=7919))
    assert first == second
    proc = run_child("-m", "qsphere.cli", "--suite", suite, "--seed", "7919")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == first
