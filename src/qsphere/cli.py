"""Command-line front end: a small expression language plus check suites.

Two modes share one executable:

    qsphere 'd(a)'              evaluate an expression, print the result
    qsphere --suite curvature   run a named family of exact checks

The grammar is deliberately tiny (sums, products, integer powers of
atoms, nine named operators) and everything the printer emits for
scalars, algebra elements and forms parses back to the same value, so
output doubles as input.  Suite reports are deterministic: with the
same seed and engine version the bytes are identical run over run.

Exit codes: 0 all good, 1 a check failed, 2 bad usage or a bad
expression.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from math import isqrt

from . import __version__
from .algebra import (
    AlgebraElement,
    antipode,
    counit,
    degree_split,
    normalize,
    render_value,
    verify_hopf_axioms,
)
from .algebra import a as _ga, b as _gb, c as _gc, d as _gd
from .bundles import bwb_check
from .calculus import (
    E0,
    EM,
    EP,
    Form,
    TensorForm,
    monopole_curvature,
    omega_recursion_check,
    render_word,
    wedge,
)
from .calculus import d as _dop
from .riemann import (
    cotorsion,
    einstein_lift,
    geometric_lift,
    nabla,
    projector_checks,
    ricci,
    riemann_tensor,
    torsion,
)
from .scalars import ONE, Scalar, two_q
from .sphere import (
    DB,
    DEL,
    DELBAR,
    F0,
    SphereForm,
    _matmul3,
    b0,
    bm,
    bp,
    coaction_matrix,
    del_split,
    eigenvalue_on,
    g_minus_plus,
    g_plus_minus,
    hodge_star,
    laplacian,
    lift_iY,
    maxwell_check,
    metric_g,
    metric_matrix,
    one,
    one_form_relation_check,
    soldering_check,
    spin_multiplet,
    sphere_relations_check,
    upsilon,
    wedge_tables_check,
)
from .spin import (
    Spinor,
    dirac,
    dirac_commutator_check,
    dirac_first_order_check,
    dirac_square_check,
    gamma_algebra_check,
    trivialisation_checks,
)

_q = Scalar.q_power

_GENERATORS = {"a": _ga, "b": _gb, "c": _gc, "d": _gd}

_ATOM_VALUES = {
    "a": _ga,
    "b": _gb,
    "c": _gc,
    "d": _gd,
    "b0": b0,
    "bp": bp,
    "bm": bm,
    "e0": Form.of(one, E0),
    "ep": Form.of(one, EP),
    "em": Form.of(one, EM),
    "q": Scalar.q_power(1),
    "s": Scalar.s_power(1),
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
        node = self.term()
        while self.at_sym("+-"):
            op = self.take()[1]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.at_sym("*"):
            self.take()
            node = ("*", node, self.factor())
        return node

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
            if self.at_sym("(") and text in _FUNCTIONS:
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
    """Parse an expression string into a little tuple AST."""
    parser = _Parser(_lex(text))
    node = parser.expr()
    if parser.peek()[0] != "end":
        parser.fail(_AFTER_EXPECTED + ("end of input",))
    return node


# ---------------------------------------------------------------------------
# evaluation


def _rank(v):
    for i, t in enumerate((Scalar, AlgebraElement, Form, TensorForm)):
        if isinstance(v, t):
            return i
    raise EvalError("value of unsupported kind %s" % type(v).__name__)


def _kind_name(v):
    return type(v).__name__


def _lift(v, rank):
    while _rank(v) < rank:
        if isinstance(v, Scalar):
            v = one.scale(v)
        elif isinstance(v, AlgebraElement):
            v = Form.of(v)
        else:
            if not v:
                return TensorForm.zero()
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
            "cannot multiply %s by %s" % (_kind_name(x), _kind_name(y))
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
    # a basis one-form; k = 0 collapses to the scalar unit
    if k == 0:
        return ONE
    out = v
    for _ in range(k - 1):
        out = wedge(out, v)
    return out


def _as_element(v, fn):
    if isinstance(v, Scalar):
        return one.scale(v)
    if isinstance(v, AlgebraElement):
        return v
    raise EvalError("%s() needs an algebra element, got a %s" % (fn, _kind_name(v)))


def _as_sphere_element(v, fn):
    x = _as_element(v, fn)
    if any(m.degree() != 0 for m in x.terms):
        raise EvalError("%s() needs a degree-0 (sphere) element" % fn)
    return x


def _fn_d(v):
    if isinstance(v, Form):
        return _dop(v)
    if isinstance(v, TensorForm):
        raise EvalError("d() does not act on tensors")
    return _dop(_as_element(v, "d"))


def _fn_del(v):
    return del_split(_as_sphere_element(v, "del"))[0]


def _fn_delbar(v):
    return del_split(_as_sphere_element(v, "delbar"))[1]


def _fn_star(v):
    if isinstance(v, (Scalar, AlgebraElement)):
        v = Form.of(_as_element(v, "star"))
    if not isinstance(v, Form):
        raise EvalError("star() needs a form on the sphere")
    try:
        SphereForm(v)
    except ValueError as exc:
        raise EvalError("star(): %s" % exc) from None
    return hodge_star(v)


def _fn_nabla(v):
    if not isinstance(v, Form):
        raise EvalError("nabla() needs a one-form on the sphere")
    try:
        return nabla(v)
    except Exception as exc:
        raise EvalError("nabla(): %s" % exc) from None


def _fn_dirac(v):
    x = _as_element(v, "dirac")
    parts = degree_split(x)
    if set(parts) - {1, -1}:
        raise EvalError("dirac() needs components of charge +1 and -1 only")
    out = dirac(
        Spinor(
            minus_part=parts.get(1, AlgebraElement.zero()),
            plus_part=parts.get(-1, AlgebraElement.zero()),
        )
    )
    return out.minus_part + out.plus_part


def _fn_lap(v):
    return laplacian(_as_sphere_element(v, "lap"))


def _fn_antipode(v):
    return antipode(_as_element(v, "S"))


def _fn_counit(v):
    return counit(_as_element(v, "eps"))


_FUNCTIONS = {
    "d": _fn_d,
    "del": _fn_del,
    "delbar": _fn_delbar,
    "star": _fn_star,
    "nabla": _fn_nabla,
    "dirac": _fn_dirac,
    "lap": _fn_lap,
    "S": _fn_antipode,
    "eps": _fn_counit,
}


def evaluate(node):
    tag = node[0]
    if tag == "int":
        return Scalar.from_int(node[1])
    if tag == "atom":
        return _ATOM_VALUES[node[1]]
    if tag == "pow":
        return _power(evaluate(node[1]), node[2])
    if tag == "call":
        return _FUNCTIONS[node[1]](evaluate(node[2]))
    lhs, rhs = evaluate(node[1]), evaluate(node[2])
    if tag == "*":
        return _mul(lhs, rhs)
    return _add(lhs, rhs, tag)


def evaluate_text(text):
    return evaluate(parse(text))


# ---------------------------------------------------------------------------
# check suites


class _Options:
    __slots__ = ("seed", "sample", "max_n", "is_zero")

    def __init__(self, seed, sample, max_n, s0):
        self.seed = seed
        self.sample = sample
        self.max_n = max_n
        self.is_zero = _is_zero_at(s0)

    def n(self, default):
        return default if self.sample is None else self.sample


def _is_zero_at(s0):
    if s0 is None:
        return lambda v: not v
    def num(co):
        return co.specialize(s0) == 0
    def zero(v):
        if isinstance(v, Scalar):
            return num(v)
        if isinstance(v, AlgebraElement):
            return all(num(co) for co in v.terms.values())
        if isinstance(v, (Form, TensorForm)):
            return all(zero(x) for x in v.terms.values())
        if isinstance(v, Spinor):
            return zero(v.minus_part) and zero(v.plus_part)
        return not v
    return zero


def _random_word_element(rng, maxlen=6):
    x = one
    for _ in range(rng.randrange(maxlen + 1)):
        x = x * _GENERATORS[rng.choice("abcd")]
    return x


def _random_sphere_word(rng, maxlen=3):
    x = one
    for _ in range(rng.randrange(maxlen + 1)):
        x = x * rng.choice((bm, b0, bp))
    return x


def _first_failure(items):
    for name, diff in items:
        if diff:
            return "%s: %r" % (name, diff)
    return None


def _suite_hopf(o):
    def axioms():
        verify_hopf_axioms(sample_size=o.n(100), seed=o.seed + 42)

    def confluence():
        rng = random.Random(o.seed + 1)
        for _ in range(o.n(200)):
            word = [rng.choice("abcd") for _ in range(rng.randrange(7))]
            if not o.is_zero(normalize(word, "left") - normalize(word, "right")):
                return "strategies disagree on " + "".join(word)

    return [("hopf-axioms", axioms), ("pbw-confluence", confluence)]


def _suite_calculus(o):
    basis = {w: Form.of(one, w) for w in (E0, EP, EM)}

    def commutation():
        items = []
        for w, shift in ((E0, 2), (EP, 1), (EM, 1)):
            for name, g in _GENERATORS.items():
                k = next(iter(g.terms)).degree()
                items.append((
                    "%s past %s" % (render_word(w), name),
                    basis[w] * g - Form.of(g.scale(_q(shift * k)), w),
                ))
        return _first_failure(items)

    def derivatives():
        want = {
            "a": Form({E0: _ga, EP: _gb.scale(_q(1))}),
            "b": Form({EM: _ga, E0: _gb.scale(-_q(-2))}),
            "c": Form({E0: _gc, EP: _gd.scale(_q(1))}),
            "d": Form({EM: _gc, E0: _gd.scale(-_q(-2))}),
        }
        return _first_failure(
            [("d(%s)" % n, _dop(g) - want[n]) for n, g in _GENERATORS.items()]
        )

    def d_squared():
        rng = random.Random(o.seed + 2)
        for _ in range(o.n(100)):
            x = _random_word_element(rng)
            if not o.is_zero(_dop(_dop(x))):
                return "d^2 != 0 on %r" % x

    def exterior():
        e0, ep, em = basis[E0], basis[EP], basis[EM]
        items = [
            ("ep wedge ep", wedge(ep, ep)),
            ("em wedge em", wedge(em, em)),
            ("e0 wedge e0", wedge(e0, e0)),
            ("em past ep", wedge(ep, em).scale(_q(2)) + wedge(em, ep)),
            ("e0 past ep", wedge(e0, ep) + wedge(ep, e0).scale(_q(4))),
            ("e0 past em", wedge(e0, em) + wedge(em, e0).scale(_q(-4))),
        ]
        return _first_failure(items)

    def monopole_connection():
        omega_recursion_check(o.max_n)

    def monopole_curv():
        for n in range(-o.max_n, o.max_n + 1):
            monopole_curvature(n)

    return [
        ("commutation-rules", commutation),
        ("generator-derivatives", derivatives),
        ("d-squared", d_squared),
        ("exterior-relations", exterior),
        ("monopole-connection", monopole_connection),
        ("monopole-curvature", monopole_curv),
    ]


def _suite_sphere(o):
    def relations_d():
        diff = (bm * DB["+"]).scale(_q(2)) + bp * DB["-"] - F0 * DB["0"]
        if diff:
            return repr(diff)

    return [
        ("sphere-relations", sphere_relations_check),
        ("sphere-relations-d", relations_d),
        ("one-form-bimodule", one_form_relation_check),
        ("soldering", soldering_check),
        ("wedge-tables", wedge_tables_check),
    ]


def _suite_metric(o):
    def wedge_zero():
        folded = metric_g().wedge_in().as_form()
        if folded:
            return repr(folded)

    def chiral_zero():
        g = metric_g()
        for w, l in ((EP, "+"), (EM, "-")):
            if (w, (l,)) in g.terms:
                return "unexpected %s%s component" % (l, l)

    def invariance():
        M, G = coaction_matrix(), metric_matrix()
        Mt = tuple(zip(*M))
        if _matmul3(Mt, _matmul3(G, M)) != G:
            return "M^t G M != G"

    return [
        ("metric-wedge-zero", wedge_zero),
        ("metric-chiral-zero", chiral_zero),
        ("metric-invariance", invariance),
    ]


def _suite_hodge(o):
    def basics():
        items = [
            ("star(1)", hodge_star(Form.of(one)) - upsilon()),
            ("star(area)", hodge_star(upsilon()) - Form.of(one)),
        ]
        for i in "-0+":
            items.append(("star del b%s" % i, hodge_star(DEL[i]) - DEL[i]))
            items.append(("star delbar b%s" % i, hodge_star(DELBAR[i]) + DELBAR[i]))
        return _first_failure(items)

    def star_squared():
        rng = random.Random(o.seed + 3)
        for _ in range(o.n(25)):
            x = Form.of(_random_sphere_word(rng)) + _random_sphere_word(rng) * upsilon()
            for i in "-0+":
                x = x + _random_sphere_word(rng) * DEL[i]
                x = x + _random_sphere_word(rng) * DELBAR[i]
            if not o.is_zero(hodge_star(hodge_star(x)) - x):
                return "star^2 != id on a sample"

    def lift_family():
        for alpha in (_q(-2) / 2, _q(-2) / (ONE + _q(-4)), Scalar.from_int(0)):
            lift_iY(alpha)  # wedging back to the area form is asserted inside

    return [
        ("star-basics", basics),
        ("star-squared", star_squared),
        ("area-lift-family", lift_family),
    ]


_LAM1 = _q(2) * two_q


def _suite_laplace(o):
    def values():
        items = [
            ("box bm", laplacian(bm) - bm.scale(_LAM1)),
            ("box bp", laplacian(bp) - bp.scale(_LAM1)),
            ("box F0", laplacian(F0) - F0.scale(_LAM1)),
            ("box 1", laplacian(one)),
        ]
        return _first_failure(items)

    def spin1():
        lam = eigenvalue_on(spin_multiplet(1))
        if lam != _LAM1:
            return repr(lam)

    def spin2():
        lam = eigenvalue_on(spin_multiplet(2))
        if lam != _LAM1 * (_q(2) + 1 + _q(-2)):
            return repr(lam)

    return [
        ("laplace-values", values),
        ("laplace-spin1", spin1),
        ("laplace-spin2", spin2),
    ]


def _suite_maxwell(o):
    def coulomb():
        for i in "-0+":
            if not maxwell_check(i)["coulomb"]:
                return "source db%s" % i

    def massive():
        want = _q(2) * two_q / 2
        for i in "-0+":
            report = maxwell_check(i)
            if not report["massive"]:
                return "source db%s" % i
            if report["mass_squared"] != want:
                return "mass^2 = %r" % report["mass_squared"]

    return [("maxwell-coulomb", coulomb), ("maxwell-massive", massive)]


def _suite_connection(o):
    def values():
        g = metric_g()
        items = [
            ("nabla db-", nabla(DB["-"]) - two_q * (bm * g)),
            ("nabla db0", nabla(DB["0"]) - F0 * g),
            ("nabla db+", nabla(DB["+"]) - two_q * (bp * g)),
        ]
        return _first_failure(items)

    def torsion_zero():
        rng = random.Random(o.seed + 4)
        for i in "-0+":
            if torsion(DB[i]):
                return "torsion on db%s" % i
        for _ in range(o.n(50)):
            x = _random_sphere_word(rng) * DB[rng.choice("-0+")]
            if not o.is_zero(torsion(x)):
                return "torsion on a sample"

    def cotorsion_zero():
        bad = cotorsion()
        if bad:
            return repr(bad)

    return [
        ("connection-values", values),
        ("torsion-zero", torsion_zero),
        ("cotorsion-zero", cotorsion_zero),
        ("projector-identities", projector_checks),
    ]


def _suite_curvature(o):
    def riemann():
        for i in "-0+":
            riemann_tensor(DEL[i])  # the eigenvalue is verified inside
            riemann_tensor(DELBAR[i])

    def ricci_einstein():
        lam = (Scalar.from_int(2) * _q(-1)) / (ONE + _q(-4))
        diff = ricci(einstein_lift()) - metric_g().scale(lam)
        if diff:
            return repr(diff)

    def ricci_geometric():
        lift = geometric_lift()
        want = metric_g().scale(_q(-1) * (ONE + _q(4)) / 2)
        want += lift.scale(two_q * (ONE - _q(4)) / 2)
        diff = ricci(lift) - want
        if diff:
            return repr(diff)

    def classical_limit():
        s1 = Fraction(1)
        for lift in (einstein_lift(), geometric_lift()):
            diff = ricci(lift) - metric_g()
            for x in diff.terms.values():
                if any(co.specialize(s1) != 0 for co in x.terms.values()):
                    return "Ricci != g at q = 1"

    return [
        ("Prop-riemann", riemann),
        ("ricci-einstein-lift", ricci_einstein),
        ("ricci-geometric-lift", ricci_geometric),
        ("ricci-classical-limit", classical_limit),
    ]


def _suite_dirac(o):
    def generators():
        items = [
            ("dirac a", dirac(Spinor(minus_part=_ga)) - Spinor(plus_part=_gb)),
            ("dirac c", dirac(Spinor(minus_part=_gc)) - Spinor(plus_part=_gd)),
            ("dirac b", dirac(Spinor(plus_part=_gb)) - Spinor(minus_part=_ga.scale(_q(1)))),
            ("dirac d", dirac(Spinor(plus_part=_gd)) - Spinor(minus_part=_gc.scale(_q(1)))),
        ]
        return _first_failure(items)

    def eigen():
        for sign in (1, -1):
            ev = Scalar.s_power(1) * sign
            for m0, p0 in ((_ga, _gb), (_gc, _gd)):
                sig = Spinor(minus_part=m0.scale(ev), plus_part=p0)
                if dirac(sig) != sig.scale(ev):
                    return "sign %+d on (%r, %r)" % (sign, m0, p0)

    def commutator():
        return dirac_commutator_check(sample_size=o.n(50), seed=o.seed + 7)

    return [
        ("dirac-generators", generators),
        ("gamma-algebra", gamma_algebra_check),
        ("dirac-first-order", dirac_first_order_check),
        ("dirac-square", dirac_square_check),
        ("dirac-eigen", eigen),
        ("dirac-commutator", commutator),
        ("trivialisation", trivialisation_checks),
    ]


def _suite_bwb(o):
    def check(n):
        return lambda: bwb_check(n)

    return [("bwb-n%02d" % n, check(n)) for n in range(o.max_n + 1)]


_SUITE_BUILDERS = {
    "hopf": _suite_hopf,
    "calculus": _suite_calculus,
    "sphere": _suite_sphere,
    "metric": _suite_metric,
    "hodge": _suite_hodge,
    "laplace": _suite_laplace,
    "maxwell": _suite_maxwell,
    "connection": _suite_connection,
    "curvature": _suite_curvature,
    "dirac": _suite_dirac,
    "bwb": _suite_bwb,
}

SUITE_NAMES = tuple(_SUITE_BUILDERS) + ("all",)


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


def run_suite(name, seed=0, sample=None, max_n=6, q_spec=None):
    """Run one named suite (or "all") and return the report dict."""
    if name not in SUITE_NAMES:
        raise ValueError("unknown suite %r" % name)
    if max_n < 0 or (sample is not None and sample < 0):
        raise ValueError("max_n and sample must not be negative")
    s0 = None
    if q_spec is not None:
        s0 = _sqrt_of(Fraction(q_spec))
        if s0 is None:
            raise ValueError("q_spec must be a positive square of a rational")
    opts = _Options(seed, sample, max_n, s0)
    if name == "all":
        pairs = [p for n in _SUITE_BUILDERS for p in _SUITE_BUILDERS[n](opts)]
    else:
        pairs = _SUITE_BUILDERS[name](opts)
    results = []
    for anchor, thunk in pairs:
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


def _sqrt_of(q0):
    """The positive rational square root of a Fraction, or None."""
    if q0 <= 0:
        return None
    p, r = q0.numerator, q0.denominator
    sp, sr = isqrt(p), isqrt(r)
    if sp * sp != p or sr * sr != r:
        return None
    return Fraction(sp, sr)


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
    parser = argparse.ArgumentParser(
        prog="qsphere",
        description="Evaluate an expression or run an exact check suite.",
    )
    parser.add_argument("expr", nargs="?", help="expression to evaluate and print")
    parser.add_argument("--suite", choices=SUITE_NAMES, help="check suite to run")
    parser.add_argument("--max-n", type=int, default=6, dest="max_n",
                        help="bound for the graded families (default 6)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for samples")
    parser.add_argument("--sample", type=int, default=None,
                        help="override the per-check sample sizes")
    parser.add_argument("--q-spec", dest="q_spec", default=None, metavar="RAT",
                        help="rational square q value for numeric spot checks")
    parser.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                        help="also write the report as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="print only failures and the summary")
    args = parser.parse_args(argv)

    if (args.expr is None) == (args.suite is None):
        parser.error("give exactly one of an expression or --suite")
    if args.max_n < 0:
        parser.error("--max-n must not be negative")
    if args.sample is not None and args.sample < 0:
        parser.error("--sample must not be negative")

    q_spec = None
    if args.q_spec is not None:
        try:
            q_spec = Fraction(args.q_spec)
        except (ValueError, ZeroDivisionError):
            parser.error("--q-spec must be a rational like 4 or 9/4")
        if _sqrt_of(q_spec) is None:
            parser.error("--q-spec must be a positive square of a rational")

    if args.expr is not None:
        try:
            value = evaluate_text(args.expr)
        except CliSyntaxError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except EvalError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        try:
            text = render_value(value)
        except ValueError as exc:
            # an integer past Python's limit on int-to-str conversion
            print("error: cannot print the result: %s" % exc, file=sys.stderr)
            return 2
        print(text)
        return 0

    report = run_suite(
        args.suite,
        seed=args.seed,
        sample=args.sample,
        max_n=args.max_n,
        q_spec=q_spec,
    )
    sys.stdout.write(format_report(report, quiet=args.quiet))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if all(r["status"] == "pass" for r in report["results"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
