"""Command-line front end: a small expression language plus check suites.

Two modes share one executable:

    qsphere 'd(a)'              evaluate an expression, print the result
    qsphere --suite curvature   run a named family of exact checks

The grammar is deliberately tiny (sums, products, integer powers of
atoms, nine named operators) and everything the printer emits for
scalars, algebra elements and forms parses back to the same value, so
output doubles as input.

The checks themselves are not defined here.  Each engine module declares
its own as data beside the maths they check (algebra.CHECKS,
calculus.CHECKS, ...); this module groups them into suites by name, runs
them and reports.  Suite reports are deterministic: with the same seed
and engine version the bytes are identical run over run.

Importing this module loads only the scalars and the algebra, which
also defines the sphere atoms b0, bp and bm and the operators
(algebra.OPERATORS).  The calculus is imported by the first form atom
(e0, ep, em) or operator that needs it, and each geometry layer likewise:
an operator loads its layer when called (lap, star, del and delbar load
sphere; nabla loads riemann and bundles; dirac loads spin).  The check
registry, which needs them all, is built on first use, and argparse loads
only in main.

Exit codes: 0 all good, 1 a check failed or stdout was closed early,
2 bad usage, a bad expression or a report that could not be written.
"""

from __future__ import annotations

import re
import sys

from . import __version__
from .algebra import OPERATORS, AlgebraElement, one, render_value
from .algebra import a as _ga, b as _gb, c as _gc, d as _gd
from .algebra import b0 as _gb0, bm as _gbm, bp as _gbp
from .scalars import ONE, Scalar


def _form_atom(name):
    def value():
        from . import calculus
        return calculus.Form.of(one, getattr(calculus, name))
    return value


# atom name -> a function returning its value
_ATOM_VALUES = {
    "a": lambda: _ga,
    "b": lambda: _gb,
    "c": lambda: _gc,
    "d": lambda: _gd,
    "b0": lambda: _gb0,
    "bp": lambda: _gbp,
    "bm": lambda: _gbm,
    "e0": _form_atom("E0"),
    "ep": _form_atom("EP"),
    "em": _form_atom("EM"),
    "q": lambda: Scalar.q_power(1),
    "s": lambda: Scalar.s_power(1),
}


# ---------------------------------------------------------------------------
# parsing


class CliSyntaxError(ValueError):
    """A parse failure, carrying the offset and the acceptable-token set."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = tuple(expected)
        super().__init__(
            "syntax error at position %d: found %s, expected %s"
            % (position, found, " or ".join(self.expected))
        )


class EvalError(ValueError):
    """A well-formed expression that does not type-check."""


_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<int>[0-9]+)|(?P<sym>[-+*^()]))"
)

_FACTOR_EXPECTED = ("'('", "a name", "an integer")
_AFTER_EXPECTED = ("'+'", "'-'", "'*'")


def _lex(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise CliSyntaxError(at, _FACTOR_EXPECTED, repr(text[at]))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_sym(self, chars):
        kind, text, _ = self.peek()
        return kind == "sym" and text in chars

    def fail(self, expected):
        kind, text, pos = self.peek()
        found = "end of input" if kind == "end" else repr(text)
        raise CliSyntaxError(pos, expected, found)

    def expr(self):
        first, rest = self.term(), []
        while self.at_sym("+-"):
            rest.append((self.take()[1], self.term()))
        return ("sum", first, rest) if rest else first

    def term(self):
        first, rest = self.factor(), []
        while self.at_sym("*"):
            self.take()
            rest.append(self.factor())
        return ("product", first, rest) if rest else first

    def factor(self):
        kind, text, pos = self.peek()
        if kind == "sym" and text == "(":
            self.take()
            node = self.expr()
            if not self.at_sym(")"):
                self.fail(_AFTER_EXPECTED + ("')'",))
            self.take()
            return node
        if kind == "int":
            return self.maybe_power(("int", self.integer()))
        if kind == "name":
            self.take()
            if self.at_sym("(") and text in OPERATORS:
                self.take()
                arg = self.expr()
                if not self.at_sym(")"):
                    self.fail(_AFTER_EXPECTED + ("')'",))
                self.take()
                return ("call", text, arg)
            if text in _ATOM_VALUES:
                return self.maybe_power(("atom", text))
            raise CliSyntaxError(pos, _FACTOR_EXPECTED, "unknown name %r" % text)
        self.fail(_FACTOR_EXPECTED)

    def maybe_power(self, node):
        if not self.at_sym("^"):
            return node
        self.take()
        sign = 1
        if self.at_sym("-"):
            self.take()
            sign = -1
        if self.peek()[0] != "int":
            self.fail(("an integer",))
        return ("pow", node, sign * self.integer())

    def integer(self):
        """Take an integer token; one too long for Python's str-to-int
        conversion limit (4,300 digits by default) is a syntax error."""
        _, text, pos = self.take()
        try:
            return int(text)
        except ValueError:
            raise CliSyntaxError(
                pos, ("a shorter integer",), "a %d-digit integer" % len(text)
            ) from None


def parse(text):
    """Parse an expression string into a little tuple AST.

    A sum is one node ("sum", first, [(op, term), ...]) and a product one
    node ("product", first, [factor, ...]), so only parentheses, calls and
    powers nest."""
    parser = _Parser(_lex(text))
    node = parser.expr()
    if parser.peek()[0] != "end":
        parser.fail(_AFTER_EXPECTED + ("end of input",))
    return node


# ---------------------------------------------------------------------------
# evaluation


def _rank(v):
    if isinstance(v, Scalar):
        return 0
    if isinstance(v, AlgebraElement):
        return 1
    # any other value was made by the calculus, which is loaded by now
    from .calculus import Form, TensorForm
    if isinstance(v, Form):
        return 2
    if isinstance(v, TensorForm):
        return 3
    raise EvalError("value of unsupported kind %s" % type(v).__name__)


def _lift(v, rank):
    while _rank(v) < rank:
        if isinstance(v, Scalar):
            v = one.scale(v)
            continue
        # the target is a form or a tensor, so the calculus is loaded by now
        from .calculus import Form, TensorForm
        if isinstance(v, AlgebraElement):
            v = Form.of(v)
        elif not v:
            return TensorForm.zero()
        else:
            raise EvalError("cannot combine a form with a tensor")
    return v


def _add(x, y, op):
    rank = max(_rank(x), _rank(y))
    x, y = _lift(x, rank), _lift(y, rank)
    return x + y if op == "+" else x - y


def _mul(x, y):
    try:
        return x * y
    except TypeError:
        raise EvalError(
            "cannot multiply %s by %s" % (type(x).__name__, type(y).__name__)
        ) from None


def _power(v, k):
    if isinstance(v, Scalar):
        try:
            return v ** k
        except ZeroDivisionError:
            raise EvalError("cannot invert zero") from None
    if k < 0:
        raise EvalError("negative powers exist only for scalars")
    if isinstance(v, AlgebraElement):
        return v ** k
    # a basis one-form; k = 0 collapses to the scalar unit, and the
    # powers stop at the first zero product (a one-form squares to zero)
    if k == 0:
        return ONE
    from .calculus import wedge
    out = v
    while out and k > 1:
        out, k = wedge(out, v), k - 1
    return out


# domain of an operator (algebra.OPERATORS) -> (the ranks of the values it
# takes, the rank a scalar or element is lifted to, the text for a value
# of another kind, the text for a value the operator refuses with
# ValueError).  A row without the last text refuses nothing: a ValueError
# there is a fault of the engine, not of the input.
_NOT_AN_ELEMENT = "{name}() needs an algebra element, got a {kind}"
_DOMAINS = {
    "element": ((0, 1), 1, _NOT_AN_ELEMENT, None),
    "sphere element": ((0, 1), 1, _NOT_AN_ELEMENT, "{name}() needs a degree-0 (sphere) element"),
    "spinor": ((0, 1), 1, _NOT_AN_ELEMENT, "{name}() needs components of charge +1 and -1 only"),
    "element or form": ((0, 1, 2), 1, "{name}() does not act on tensors", None),
    "form": ((0, 1, 2), 2, "{name}() needs a form on the sphere", "{name}(): {error}"),
    "one-form": ((2,), 2, "{name}() needs a one-form on the sphere", "{name}(): {error}"),
}


def _call(name, v):
    """The grammar operator name applied to v, lifted into its domain."""
    operator, domain = OPERATORS[name]
    ranks, lift_to, wrong_kind, refused = _DOMAINS[domain]
    if _rank(v) not in ranks:
        raise EvalError(wrong_kind.format(name=name, kind=type(v).__name__))
    v = _lift(v, lift_to)
    try:
        return operator(v)
    except ValueError as exc:
        if refused is None:
            raise
        raise EvalError(refused.format(name=name, error=exc)) from None


def evaluate(node):
    tag = node[0]
    if tag == "int":
        return Scalar.from_int(node[1])
    if tag == "atom":
        return _ATOM_VALUES[node[1]]()
    if tag == "pow":
        return _power(evaluate(node[1]), node[2])
    if tag == "call":
        return _call(node[1], evaluate(node[2]))
    out = evaluate(node[1])
    if tag == "product":
        for factor in node[2]:
            out = _mul(out, evaluate(factor))
        return out
    for op, term in node[2]:
        out = _add(out, evaluate(term), op)
    return out


def evaluate_text(text):
    return evaluate(parse(text))


# ---------------------------------------------------------------------------
# check suites: each module declares its checks beside the maths as CHECKS


class _Options:
    """What a check reads from the command line."""

    __slots__ = ("seed", "sample", "max_n")

    def __init__(self, seed, sample, max_n):
        self.seed = seed
        self.sample = sample
        self.max_n = max_n

    def n(self, default):
        """The size of a sampled check: --sample when given, else default."""
        return default if self.sample is None else self.sample


def _builder(checks):
    return lambda opts: [pair for check in checks for pair in check.thunks(opts)]


# suite name -> (options -> (anchor, thunk) pairs), read by run_suite per
# call, and the suite names with "all".  The checks live in the geometry
# layers, so both are built once, on first use (see __getattr__), and are
# ordinary module globals from then on.
_SUITE_BUILDERS: dict
SUITE_NAMES: tuple


def _load_registry():
    if "_SUITE_BUILDERS" in globals():
        return
    from . import algebra, bundles, calculus, riemann, sphere, spin
    checks = (
        algebra.CHECKS + calculus.CHECKS + sphere.CHECKS
        + riemann.CHECKS + spin.CHECKS + bundles.CHECKS
    )
    builders = {
        suite: _builder([c for c in checks if c.suite == suite])
        for suite in dict.fromkeys(c.suite for c in checks)
    }
    globals().update(_SUITE_BUILDERS=builders, SUITE_NAMES=tuple(builders) + ("all",))


def __getattr__(name):
    # PEP 562: reached only while a name is not yet a module global
    if name in ("_SUITE_BUILDERS", "SUITE_NAMES"):
        _load_registry()
        return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class _SuiteChoices:
    """The --suite choices for argparse, which only tests membership and
    iterates; the registry is built when it does, not on an expression call."""

    def __contains__(self, name):
        _load_registry()
        return name in SUITE_NAMES

    def __iter__(self):
        _load_registry()
        return iter(SUITE_NAMES)


def _witness(result):
    if result is None or result is True:
        return None
    if isinstance(result, (list, tuple)):
        if not result:
            return None
        shown = "; ".join(
            ": ".join(str(p) for p in item) if isinstance(item, tuple) else str(item)
            for item in result[:4]
        )
        return shown + (" ..." if len(result) > 4 else "")
    return str(result)


def run_suite(name, seed=0, sample=None, max_n=6):
    """Run one named suite (or "all") and return the report dict."""
    _load_registry()
    if name not in SUITE_NAMES:
        raise ValueError("unknown suite %r" % name)
    if max_n < 0 or (sample is not None and sample < 1):
        # a sample of 0 would pass every sampled check without drawing one
        raise ValueError("max_n must not be negative and sample must be positive")
    opts = _Options(seed, sample, max_n)
    names = _SUITE_BUILDERS if name == "all" else (name,)
    results = []
    for anchor, thunk in [p for n in names for p in _SUITE_BUILDERS[n](opts)]:
        try:
            witness = _witness(thunk())
        except Exception as exc:
            witness = "%s: %s" % (type(exc).__name__, exc)
        results.append({
            "anchor": anchor,
            "status": "pass" if witness is None else "fail",
            "witness": witness,
            "millis": 0,
        })
    results.sort(key=lambda r: r["anchor"])
    return {
        "suite": name,
        "engine_version": __version__,
        "seed": seed,
        "results": results,
    }


def format_report(report, quiet=False):
    lines = [
        "suite: %s" % report["suite"],
        "engine_version: %s" % report["engine_version"],
        "seed: %d" % report["seed"],
    ]
    passed = sum(1 for r in report["results"] if r["status"] == "pass")
    for r in report["results"]:
        if quiet and r["status"] == "pass":
            continue
        line = "%s: %s" % (r["anchor"], r["status"])
        if r["witness"]:
            line += "  [%s]" % r["witness"]
        lines.append(line)
    lines.append("summary: %d/%d passed" % (passed, len(report["results"])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    try:
        status = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # a reader closed stdout early: the "Note on SIGPIPE" recipe of the signal docs
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    return status


def _main(argv):
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # one line of diagnosis, without the usage block (--help shows it)
            self.exit(2, "%s: error: %s\n" % (self.prog, message))

    parser = Parser(
        prog="qsphere",
        description="Evaluate an expression or run an exact check suite.",
    )
    parser.add_argument("expr", nargs="?", help="expression to evaluate and print")
    # set after add_argument, which would iterate the choices to check the metavar
    parser.add_argument("--suite", help="check suite to run").choices = _SuiteChoices()
    # suite-only options default to None, so that one given with an expression shows
    parser.add_argument("--max-n", type=int, default=None, dest="max_n",
                        help="bound for the graded families (default 6)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed for samples")
    parser.add_argument("--sample", type=int, default=None,
                        help="override the per-check sample sizes")
    parser.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                        help="also write the report as JSON")
    parser.add_argument("--quiet", action="store_const", const=True, default=None,
                        help="print only failures and the summary")
    args = parser.parse_args(argv)

    if (args.expr is None) == (args.suite is None):
        parser.error("give exactly one of an expression or --suite")
    if args.expr is not None:
        if args.json_path is not None:
            parser.error("--json writes a suite report, not an expression's value")
        for flag in ("max_n", "seed", "sample", "quiet"):
            if getattr(args, flag) is not None:
                parser.error("--%s applies to a suite run, not to an expression"
                             % flag.replace("_", "-"))
    if args.max_n is not None and args.max_n < 0:
        parser.error("--max-n must not be negative")
    if args.sample is not None and args.sample < 1:
        parser.error("--sample must be positive")

    if args.expr is not None:
        try:
            value = evaluate_text(args.expr)
        except (CliSyntaxError, EvalError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except RecursionError:
            # deep nesting: the parser and the evaluator recurse once per
            # parenthesis, call or power, but not along a flat sum or product
            print("error: expression too large to evaluate", file=sys.stderr)
            return 2
        try:
            text = render_value(value)
        except ValueError as exc:
            # an integer past Python's limit on int-to-str conversion
            print("error: cannot print the result: %s" % exc, file=sys.stderr)
            return 2
        print(text)
        return 0

    json_file = None
    if args.json_path:
        # fail before the suite runs, not after
        try:
            json_file = open(args.json_path, "w", encoding="utf-8")
        except OSError as exc:
            print("error: cannot write the report: %s" % exc, file=sys.stderr)
            return 2
    report = run_suite(
        args.suite,
        seed=0 if args.seed is None else args.seed,
        sample=args.sample,
        max_n=6 if args.max_n is None else args.max_n,
    )
    sys.stdout.write(format_report(report, quiet=args.quiet))
    if json_file is not None:
        import json
        try:
            with json_file:
                json_file.write(json.dumps(report, indent=2) + "\n")
        except OSError as exc:
            print("error: cannot write the report: %s" % exc, file=sys.stderr)
            return 2
    return 0 if all(r["status"] == "pass" for r in report["results"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
