"""The left-covariant 3-d differential calculus on quantum SL(2).

Basis one-forms e+, e-, e0 (left-invariant), with commutation rules

    e+- . x = q^(deg x) x . e+-,      e0 . x = q^(2 deg x) x . e0,

exterior derivative fixed on the generators by

    da = a e0 + q b e+        db = a e- - q^-2 b e0
    dc = c e0 + q d e+        dd = c e- - q^-2 d e0

and exterior algebra

    (e+-)^2 = (e0)^2 = 0,   q^2 e+ ^ e- + e- ^ e+ = 0,
    e0 ^ e+- + q^(+-4) e+- ^ e0 = 0,

    d e0 = q^3 e+ ^ e-,   d e+ = -(q^2+1) e+ ^ e0,   d e- = (q^-2+q^-4) e- ^ e0.

The d e+- values are the unique ones compatible with d^2 = 0 given the
rest; that compatibility is checked at import time, and a failure
raises.  A form is a flat sum of terms co . m . e^w: a Scalar co, a PBW
monomial m on the far left and a basis word e^w, keyed (w, m).  Words
are ordered +, -, 0; e.g. the top form is e+ ^ e- ^ e0.

e+- carry charge +-2 and e0 charge 0; a form descends to the sphere
(is "basic") precisely when coefficient degree and word charge cancel,
and check_sphere_form is that rule for the forms of the sphere.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .algebra import (
    AlgebraElement,
    Check,
    Combination,
    Monomial,
    _mono_product,
    _run_items,
    _unslice,
    accumulate,
    antipode,
    coproduct,
    one,
)
from .algebra import a as _ga, b as _gb, c as _gc, d as _gd
from .scalars import ONE, Scalar, qint

_q = Scalar.q_power

_ORD = {"+": 0, "-": 1, "0": 2}
_CHG = {"+": 2, "-": -2, "0": 0}


class ExteriorWord(tuple):
    """An ordered subset of {+, -, 0}, e.g. ('+','-') for e+ ^ e-."""

    __slots__ = ()

    def __new__(cls, letters=()):
        if isinstance(letters, ExteriorWord):
            return letters  # immutable and already checked
        letters = tuple(letters)
        if not all(x in _ORD for x in letters) or not all(
            _ORD[u] < _ORD[v] for u, v in zip(letters, letters[1:])
        ):
            raise ValueError("not an ordered exterior word: %r" % (letters,))
        return tuple.__new__(cls, letters)

    def charge(self):
        return sum(_CHG[x] for x in self)

    def crossing(self):
        """Number of q^(deg .) factors a coefficient picks up moving past."""
        return sum(1 if x in "+-" else 2 for x in self)


SCALAR_WORD = ExteriorWord(())
EP = ExteriorWord(("+",))
EM = ExteriorWord(("-",))
E0 = ExteriorWord(("0",))
VOL = ExteriorWord(("+", "-"))  # e+ ^ e-, the area form upstairs


@lru_cache(maxsize=None)
def _straighten_word(letters):
    """Sort a letter tuple into canonical order.

    Returns (ExteriorWord, Scalar) or None when a letter repeats.
    """
    letters = list(letters)
    coeff = ONE
    n = len(letters)
    for i in range(n):
        for j in range(n - 1 - i):
            u, v = letters[j], letters[j + 1]
            if u == v:
                return None
            if _ORD[u] > _ORD[v]:
                letters[j], letters[j + 1] = v, u
                if (u, v) == ("-", "+"):
                    coeff = coeff * (-_q(2))
                elif (u, v) == ("0", "+"):
                    coeff = coeff * (-_q(4))
                else:  # ("0", "-")
                    coeff = coeff * (-_q(-4))
    if len(set(letters)) != len(letters):
        return None
    return ExteriorWord(letters), coeff


def _slices(terms):
    """{key without its monomial: the element of the terms under it} of
    flat form or tensor terms, newly built, in order of first appearance."""
    out = {}
    for k, co in terms.items():
        out.setdefault(k[:-1], {})[k[-1]] = co
    return {slot: AlgebraElement._wrap(t) for slot, t in out.items()}


def _wedge_rule(w1, k2):
    """The key prefix and sign of e^w1 ^ e^w2 for the word w2 that opens
    the key k2 (a tensor key keeps its leg), or None when it vanishes."""
    st = _straighten_word(w1 + k2[0])
    return st and ((st[0],) + k2[1:-1], st[1])


def _product(kind, pairs, rule):
    """The one product loop of forms and tensors: the sum of x . y over the
    pairs (x, y), for the terms c1 m1 e^w1 of x and c2 m2 e^k2 of y.
    rule(w1, k2) gives the prefix of the result key and a Scalar, or None;
    m2 crosses e^w1 with q^(crossing(w1) deg m2), and the _mono_product row
    of m1 m2 goes through accumulate into one dict per key prefix."""
    slices = {}
    for x, y in pairs:
        for (w1, m1), c1 in x.terms.items():
            cross = w1.crossing()
            for k2, c2 in y.terms.items():
                st = rule(w1, k2)
                if st is None:
                    continue
                pre, co = st
                m2 = k2[-1]
                c12 = c1 * c2 * co
                if cross:
                    c12 = c12 * _q(cross * m2.degree())
                accumulate(slices.setdefault(pre, {}), _mono_product(m1, m2), c12)
    return kind._wrap(_unslice(slices))


class Form(Combination):
    """A differential form: {(ExteriorWord, Monomial): Scalar}, the term
    co . m . e^w keyed (w, m), its monomial on the far left."""

    __slots__ = ()

    @staticmethod
    def _key(key):
        w, m = key
        return ExteriorWord(w), Monomial(*m)

    @staticmethod
    def of(x: AlgebraElement, word=SCALAR_WORD):
        w = ExteriorWord(word)
        return Form._wrap({(w, m): co for m, co in x.terms.items()})

    def by_word(self):
        """{word: its coefficient}, newly built, in order of first appearance."""
        return {w: x for (w,), x in _slices(self.terms).items()}

    def coefficient(self, word) -> AlgebraElement:
        """The coefficient of e^word, newly built."""
        return self.by_word().get(ExteriorWord(word), AlgebraElement())

    def __mul__(self, other):
        """Right multiplication by a coefficient, or wedge with a form."""
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if isinstance(other, AlgebraElement):
            return wedge(self, Form.of(other))
        if isinstance(other, Form):
            return wedge(self, other)
        return NotImplemented

    def __rmul__(self, other):
        """Left multiplication by a coefficient (or scalar)."""
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if isinstance(other, AlgebraElement):
            return wedge(Form.of(other), self)
        return NotImplemented

    def _pieces(self):
        out = []
        parts = self.by_word()
        for w in sorted(parts, key=_word_order):
            out.extend(parts[w]._pieces(render_word(w)))
        return out


def wedge_sum(kind, pairs):
    """The sum of x ^ y over the pairs (x, y) of a form x and a value y of
    kind: a form, or a tensor whose form x is wedged onto."""
    return _product(kind, pairs, _wedge_rule)


def wedge(x: Form, y):
    """x ^ y for a form y, or x wedged onto the form of a tensor y."""
    return wedge_sum(type(y), ((x, y),))


# ---------------------------------------------------------------------------
# the exterior derivative

_D_GEN = {
    "a": Form.of(_ga, E0) + Form.of(_gb.scale(_q(1)), EP),
    "b": Form.of(_ga, EM) + Form.of(_gb.scale(-_q(-2)), E0),
    "c": Form.of(_gc, E0) + Form.of(_gd.scale(_q(1)), EP),
    "d": Form.of(_gc, EM) + Form.of(_gd.scale(-_q(-2)), E0),
}

_D_WORD_BASE = {
    "0": Form.of(one.scale(_q(3)), VOL),
    "+": Form.of(one.scale(-(_q(2) + ONE)), "+0"),
    "-": Form.of(one.scale(_q(-2) + _q(-4)), "-0"),
}


@lru_cache(maxsize=None)
def _d_mono(m: Monomial) -> Form:
    i, j, k, l = m
    if i + j + k + l == 0:
        return Form()
    if i:
        g, rest = "a", Monomial(i - 1, j, k, l)
    elif j:
        g, rest = "b", Monomial(0, j - 1, k, l)
    elif k:
        g, rest = "c", Monomial(0, 0, k - 1, l)
    else:
        g, rest = "d", Monomial(0, 0, 0, l - 1)
    return _D_GEN[g] * AlgebraElement({rest: ONE}) + AlgebraElement.gen(g) * _d_mono(rest)


@lru_cache(maxsize=None)
def _d_word(w: ExteriorWord) -> Form:
    # the Leibniz rule, letter by letter, with the sign of each letter's place
    return Form.combine(
        (wedge(wedge(Form.of(one, w[:r]), _D_WORD_BASE[x]), Form.of(one, w[r + 1:])),
         -ONE if r % 2 else ONE)
        for r, x in enumerate(w))


@lru_cache(maxsize=None)
def _d_basis(key) -> Form:
    """d(m e^w) = d(m) ^ e^w + m d(e^w) for the basis form of key = (w, m),
    the key of that term in a Form: the memoised table behind d on forms.
    Its values are read only through Form.extend."""
    w, m = key
    return wedge(_d_mono(m), Form.of(one, w)) + AlgebraElement._wrap({m: ONE}) * _d_word(w)


def d(x) -> Form:
    """Exterior derivative of an algebra element or a form."""
    if isinstance(x, AlgebraElement):
        return Form.extend(_d_mono, x.terms.items())
    if isinstance(x, Form):
        return Form.extend(_d_basis, x.terms.items())
    raise TypeError("d() needs an algebra element or a form")


# ---------------------------------------------------------------------------
# the charge-n monopole connection


def monopole_omega(n: int) -> Form:
    """Connection form of the charge-n monopole: a q-integer multiple of e0."""
    return Form.of(AlgebraElement.one().scale(qint(n, _q(2))), E0)


def monopole_curvature(n: int) -> Form:
    """Curvature d(omega) + omega ^ omega, checked against its closed form."""
    om = monopole_omega(n)
    f = d(om) + wedge(om, om)
    expected = Form.of(AlgebraElement.one().scale(_q(3) * qint(n, _q(2))), VOL)
    if f != expected:
        raise ArithmeticError(
            "curvature of the charge-%d monopole is not q^3 [n] e+ ^ e-" % n
        )
    return f


def _sweedler_omega(x: AlgebraElement) -> Form:
    """omega on the group-like image of x: sum S(x(1)) d(x(2))."""
    return wedge_sum(Form, ((Form.of(antipode(AlgebraElement._wrap({m1: co}))),
                             d(AlgebraElement._wrap({m2: ONE})))
                            for (m1, m2), co in coproduct(x).items()))


def omega_recursion_check(nmax: int) -> bool:
    """The two Sweedler routes to omega(t^n) for 0 <= |n| <= nmax."""
    for n in range(nmax + 1):
        if _sweedler_omega(_ga ** n) != monopole_omega(n):
            raise ArithmeticError("the Sweedler omega of a^%d is not omega(%d)" % (n, n))
        if _sweedler_omega(_gd ** n) != monopole_omega(-n):
            raise ArithmeticError("the Sweedler omega of d^%d is not omega(%d)" % (n, -n))
    return True


# ---------------------------------------------------------------------------
# algebra-valued tensor products of forms (over the underlying algebra)


class TensorForm(Combination):
    """Sum of co . m . e^word (x) e^leg with the monomial m on the far left:
    a form tensored with one charged basis one-form, stored flat as
    {(word, leg, monomial): Scalar}.

    The form may be any exterior word; the leg is "+" or "-" (the
    charged directions).  Coefficients cross the tensor sign because
    the tensor product is over the algebra.
    """

    __slots__ = ()

    @staticmethod
    def _key(key):
        w, leg, m = key
        if leg not in ("+", "-"):
            raise ValueError("a tensor leg must be '+' or '-', not %r" % (leg,))
        return ExteriorWord(w), leg, Monomial(*m)

    def by_slot(self):
        """{(word, leg): its coefficient}, newly built, in order of first appearance."""
        return _slices(self.terms)

    __rmul__ = Form.__rmul__

    def __mul__(self, other):
        """Right multiplication by a scalar, which is central."""
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def is_basic(self):
        """Total charge zero in every term: such tensors descend."""
        return all(m.degree() + w.charge() + _CHG[leg] == 0 for w, leg, m in self.terms)

    def wedge_in(self) -> Form:
        """The form with the tensor sign collapsed to a wedge."""
        items = [((st[0], m), co * st[1]) for (w, leg, m), co in self.terms.items()
                 if (st := _straighten_word(w + (leg,)))]
        return Form._wrap(accumulate({}, items))

    def _pieces(self):
        out = []
        parts = self.by_slot()
        for w, leg in sorted(parts, key=lambda k: (len(k[0]), render_word(k[0]), k[1])):
            tail = "%s(x)%s" % (render_word(w) or "1", _WORD_NAMES[leg])
            out.extend(parts[(w, leg)]._pieces(tail))
        return out


def tensor_sum(pairs) -> TensorForm:
    """The sum of x (x) y over the pairs (x, y) of a form x and a one-form y
    with charged components only."""
    pairs = list(pairs)
    if any({k[0] for k in y.terms} - {EP, EM} for _, y in pairs):
        raise ValueError("second leg must be a charged basis one-form")
    # the key prefix of e^w1 (x) e^leg, the leg the one letter of y's word
    return _product(TensorForm, pairs, lambda w1, k2: ((w1, k2[0][0]), ONE))


def tensor(x: Form, y: Form) -> TensorForm:
    """x (x) y for a one-form y with charged components only."""
    return tensor_sum(((x, y),))


# ---------------------------------------------------------------------------
# word names, shared with the printer

_WORD_NAMES = {"+": "ep", "-": "em", "0": "e0"}


def render_word(w) -> str:
    return "*".join(_WORD_NAMES[x] for x in w)


def _word_order(w):  # the printer's order of exterior words: by length, then name
    return len(w), render_word(w)


def check_sphere_form(form: Form):
    """form.by_word() when form lives on the sphere: no e0, and every term
    basic, its coefficient of degree minus its word's charge (-2 on e+,
    +2 on e-, 0 on the 0-form and area parts).  Otherwise ValueError,
    naming the first bad word in the printer's order."""
    parts = form.by_word()
    bad = [w for w, x in parts.items() if "0" in w or {m.degree() for m in x.terms} - {-w.charge()}]
    if bad:
        w = min(bad, key=_word_order)
        if "0" in w:
            raise ValueError("form does not live on the sphere (e0 present)")
        part = "coefficient of " + render_word(w) if w else "the 0-form part"
        raise ValueError("%s must have degree %d" % (part, -w.charge()))
    return parts


_GENERATORS = {"a": _ga, "b": _gb, "c": _gc, "d": _gd}


def _check_d_squared():
    """The stated d e+- values are the unique ones closing the calculus:
    d^2 must kill the generators."""
    for g in _GENERATORS.values():
        if d(d(g)):
            raise ArithmeticError("exterior derivative does not square to zero")


_check_d_squared()


# ---------------------------------------------------------------------------
# the calculus suite


def _commutation_witness(opts):
    """e . x = q^(c deg x) x . e, with c = 2 for e0 and 1 for e+-."""
    items = []
    for w, shift in ((E0, 2), (EP, 1), (EM, 1)):
        for name, g in _GENERATORS.items():
            k = next(iter(g.terms)).degree()
            items.append((
                "%s past %s" % (render_word(w), name),
                Form.of(one, w) * g - Form.of(g.scale(_q(shift * k)), w),
            ))
    return _run_items(items)


def _random_word_element(rng, maxlen=6):
    x = one
    for _ in range(rng.randrange(maxlen + 1)):
        x = x * _GENERATORS[rng.choice("abcd")]
    return x


def _generator_derivatives_witness(opts):
    """dT = T Omega for T = ((a, b), (c, d)), with Omega = ((e0, e-), (q e+,
    -q^-2 e0)) built here from the frame forms, not read from _D_GEN."""
    e0, ep, em = (Form.of(one, w) for w in (E0, EP, EM))
    T, omega = ((_ga, _gb), (_gc, _gd)), ((e0, em), (ep.scale(_q(1)), e0.scale(-_q(-2))))
    return _run_items([("d(%s)" % "abcd"[2 * i + j],
                        d(T[i][j]) - T[i][0] * omega[0][j] - T[i][1] * omega[1][j])
                       for i in range(2) for j in range(2)])


def _d_squared_witness(opts):
    rng = random.Random(opts.seed + 2)
    for _ in range(opts.n(100)):
        x = _random_word_element(rng)
        if d(d(x)):
            return "d^2 != 0 on %r" % x


def _exterior_witness(opts):
    e0, ep, em = (Form.of(one, w) for w in (E0, EP, EM))
    return _run_items([
        ("ep wedge ep", wedge(ep, ep)),
        ("em wedge em", wedge(em, em)),
        ("e0 wedge e0", wedge(e0, e0)),
        ("em past ep", wedge(ep, em).scale(_q(2)) + wedge(em, ep)),
        ("e0 past ep", wedge(e0, ep) + wedge(ep, e0).scale(_q(4))),
        ("e0 past em", wedge(e0, em) + wedge(em, e0).scale(_q(-4))),
    ])


def _monopole_curvature_family(opts):
    for n in range(-opts.max_n, opts.max_n + 1):
        monopole_curvature(n)


CHECKS = (
    Check("commutation-rules", "calculus", _commutation_witness),
    Check("generator-derivatives", "calculus", _generator_derivatives_witness),
    Check("d-squared", "calculus", _d_squared_witness),
    Check("exterior-relations", "calculus", _exterior_witness),
    Check("monopole-connection", "calculus", lambda o: omega_recursion_check(o.max_n)),
    Check("monopole-curvature", "calculus", _monopole_curvature_family),
)
