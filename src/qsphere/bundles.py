"""Charged line bundles over the q-sphere, realized inside quantum SL(2).

The degree-n component of the algebra serves as the module of sections
of the charge-n bundle: a section is a plain homogeneous AlgebraElement,
and its degree is its charge.  The monopole connection differentiates a
section f of degree n by its connection form (calculus.monopole_omega)

    D f = d f - f omega_n,   omega_n = [n; q^2] e^0,

which lands in the horizontal (e^+, e^-) directions; the e^0 part of df
is exactly [n; q^2] f, and that cancellation is checked once per
monomial, when its image enters the memoised table behind covariant_D.

Every charge n has a partition of unity: a finite dual basis of (x_r,
y_r) pairs exhibiting the bundle as a direct summand of a free module,
read off the engine's own coproduct and antipode.  basic_pairs inserts
one to split a charged form into basic form (x) section pairs (the legs
of the Levi-Civita tensors, the spinor tails of the Dirac operator);
such expansions are not unique, so each partition is built once, in a
fixed order.  extract_coeffs reads its weights off the charge -+2
partitions too: the x_r, rescaled to the e+- parts of the db_i.  Each
partition's matrix (y_r x_s) is an idempotent, projector(n); the two
spinor idempotents e and 1 - e are projector(-1) and projector(1).
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import AlgebraElement, Check, Monomial, _multiply_into, antipode, coproduct
from .algebra import a as _a, b as _b, b0, bm, bp, c as _c, d as _d, proportionality, require_degree
from .calculus import E0, EM, EP, Form, check_sphere_form, d, monopole_omega
from .scalars import ONE, Scalar, qint

_q = Scalar.q_power
_q2 = _q(2)


@lru_cache(maxsize=None)
def _covariant_D_mono(m: Monomial) -> Form:
    """D of the single monomial m as a section of charge deg m: the memoised
    table behind covariant_D.  Its values are read only through
    Form.extend."""
    x = AlgebraElement({m: ONE})
    out = d(x) - x * monopole_omega(m.degree())
    if E0 in out.by_word():
        raise ArithmeticError("covariant derivative failed to be horizontal")
    return out


def covariant_D(f: AlgebraElement) -> Form:
    """Monopole covariant derivative of a homogeneous element, a section of
    the charge-(deg f) bundle; the result is horizontal and newly built.
    """
    f.degree()  # raises unless f is homogeneous
    return Form.extend(_covariant_D_mono, f.terms.items())


@lru_cache(maxsize=None)
def partition_of_unity(n: int):
    """The charge-n partition: pairs (x_r, y_r) with deg x_r = -n, deg y_r = n
    and sum x_r y_r = 1, built and verified once.  It is the antipode axiom
    m(S (x) id) Delta(t) = 1 for t = a^n or d^-n: y_r runs over the right
    legs of Delta(t), in descending order (the frame order db-, db0, db+ at
    +-2), and x_r sums S(co x1) over the terms co x1 (x) y_r."""
    t = _a ** n if n >= 0 else _d ** -n
    groups = coproduct(t).by_leg(1)
    pairs = [(antipode(groups[y]), AlgebraElement._wrap({y: ONE}))
             for y in sorted(groups, reverse=True)]
    return check_partition(n, pairs)


def check_partition(n: int, pairs):
    """The pairs as a tuple if they are a charge-n partition of unity, else ValueError."""
    message = f"partition pairs must have degrees ({-n}, {n})"
    total = AlgebraElement.zero()
    for x, y in pairs:
        require_degree(x, -n, message)
        require_degree(y, n, message)
        total = total + x * y
    if total != AlgebraElement.one():
        raise ValueError("partition does not sum to 1")
    return tuple(pairs)


@lru_cache(maxsize=None)
def projector(n: int):
    """The charge-n idempotent (y_r x_s) over partition_of_unity(n), as row
    tuples, built once; it squares to itself because sum x_s y_s = 1."""
    part = partition_of_unity(n)
    return tuple(tuple(y * x for x, _ in part) for _, y in part)


def basic_pairs(h: Form, n: int):
    """Split a form whose coefficients carry surplus charge n into
    (basic form, y_r) pairs with h = sum omega_r y_r.

    Inserting 1 = sum x_r y_r of the charge-n partition moves the
    surplus degree out of each coefficient and onto y_r: omega_r is
    h x_r, where x_r crosses each exterior word and picks up its
    crossing factor.
    """
    return [(omega, yr) for xr, yr in partition_of_unity(n) if (omega := h * xr)]


@lru_cache(maxsize=None)
def _frame_weights(w):
    """The weights x_r / kappa_r of extract_coeffs on the word w (e+ or e-):
    (x_r, y_r) runs over the charge -(charge w) partition in frame order,
    and kappa_r y_r is the e^w coefficient of d(b_r)."""
    weights = []
    for (x, y), g in zip(partition_of_unity(-w.charge()), (bm, b0, bp), strict=True):
        kappa = proportionality(d(g).coefficient(w), y)
        if not kappa:  # None, or zero when d(g) has no e^w part
            raise ArithmeticError("partition leg %r is not the e%s coefficient of d(%r)"
                                  % (y, w[0], g))
        weights.append(x.scale(ONE / kappa))
    return tuple(weights)


def extract_coeffs(h: Form):
    """Canonical sphere-valued coefficients (f_-, f_0, f_+) of a sphere one-form.

    h must pass check_sphere_form (e^+ coefficients of degree -2, e^-
    ones of +2) and have no 0-form or area part; the returned triple
    recombines against the derivatives of the sphere generators:
    f_- db_- + f_0 db_0 + f_+ db_+ = h.
    """
    fs = ({}, {}, {})
    for w, x in check_sphere_form(h).items():
        if w not in (EP, EM):
            raise ValueError("form has a component outside e+ and e-")
        for f, wt in zip(fs, _frame_weights(w)):
            _multiply_into(f, x.terms, wt.terms)
    return tuple(AlgebraElement._wrap(f) for f in fs)


def bwb_check(n: int):
    """Derivative formula and holomorphy for the weight-n section basis c^s a^t.

    Returns the list of failing (s, t, what) triples; empty means the
    whole n+1-dimensional family checks out.
    """
    if n < 0:
        raise ValueError("the weight n must not be negative")
    failures = []
    e0_1 = Form.of(AlgebraElement.one(), E0)
    ep_1 = Form.of(AlgebraElement.one(), EP)
    for s in range(n + 1):
        t = n - s
        x = _c ** s * _a ** t
        if s == 0 and t == 0:
            expected = Form.zero()
        elif s == 0 or t == 0:  # a power of a (of c), differentiated through da (dc)
            g, h, k = (_a, _b, t) if s == 0 else (_c, _d, s)
            expected = (g ** (k - 1)).scale(qint(k, _q2)) * (g * e0_1 + h.scale(_q(1)) * ep_1)
        else:
            head = x.scale(qint(n, _q2)) * e0_1
            inner = AlgebraElement.one().scale(_q(1) * qint(s, _q2)) + (_b * _c).scale(qint(n, _q2))
            tail = (_c ** (s - 1) * _a ** (t - 1) * inner).scale(_q(t)) * ep_1
            expected = head + tail
        if d(x) != expected:
            failures.append((s, t, "derivative formula"))
        Dx = covariant_D(x).by_word()
        if EM in Dx:
            failures.append((s, t, "holomorphy (e- component)"))
        if E0 in Dx:
            failures.append((s, t, "horizontality (e0 component)"))
    return failures


CHECKS = (Check("bwb-n%02d", "bwb", lambda o, n: bwb_check(n)),)
