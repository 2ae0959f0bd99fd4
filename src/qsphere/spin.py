"""Spinors and the Dirac operator on the q-sphere.

Sections of the two spinor bundles are the degree +-1 subspaces
upstairs: S- is degree +1 (spanned over the sphere by a, c) and S+ is
degree -1 (spanned by b, d).  A spinor is a plain AlgebraElement whose
monomials all have degree +1 or -1, so the degree of a monomial names
its part; spinor_parts splits one into (S- part, S+ part) and refuses
any other degree.  The Clifford action gamma eats a basic one-form and
a spinor: the e+ coefficient maps S- to S+, the e- coefficient maps S+
to S-, and the two cross pairings act by zero.
The Dirac operator is gamma composed with the charge +-1 monopole
covariant derivative; it anticommutes with the Z_2 grading, has
eigen-spinors with eigenvalues +-q^(1/2), and its square is the scalar
Laplacian plus a curvature correction on each spin-1 multiplet.

Both spinor bundles are trivial.  The 2x2 idempotent (y_r x_s) over the
charge -1 partition of unity, e = bundles.projector(-1) (1 - e is
projector(1), the same construction at charge +1; a check ties the two)

    e = [[-q^-1 b0, q b-], [-b+, 1 + q b0]]

splits the free rank-2 module into S+ (the image of e) and S- (the
image of 1-e).  A row is a plain pair (f, g) of sphere elements, and
transporting the Dirac operator through row_to_spinor,
(f, g) |-> f(a + L b) + g(c + L d) with L = q^(-1/2), turns it into an
explicit matrix of right-acting difference operators.  The coefficient
triple of df used there is not unique; the canonical extraction from
the charge +-2 partitions of unity is used throughout, and the total
transported operator is checked to be independent of that choice.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .algebra import AlgebraElement, Check, Monomial, _multiply_into, _run_items
from .algebra import a as _a, b as _b, c as _c, d as _d, degree_split, require_degree
from .bundles import basic_pairs, covariant_D, extract_coeffs, projector
from .calculus import _GENERATORS, EM, EP, TensorForm, check_sphere_form, d
from .riemann import decompose_legs
from .scalars import ONE, Scalar, two_q
from .sphere import (
    DB,
    DEL,
    DELBAR,
    F0,
    GENS,
    _matmul,
    _matrix_items,
    _matsub,
    _random_sphere_word,
    b0,
    bm,
    bp,
    del_split,
    g_minus_plus,
    g_plus_minus,
    hodge_star,
    laplacian,
    metric_g,
    one,
)

_q = Scalar.q_power
LAMBDA = Scalar.s_power(-1)  # the trivialisation twist q^(-1/2)
LAMBDA_INV = Scalar.s_power(1)

_zero = AlgebraElement.zero()

# e+ and e- coefficients of the chiral halves of db_i
DELC = {i: DEL[i].coefficient(EP) for i in GENS}
DELBARC = {i: DELBAR[i].coefficient(EM) for i in GENS}
_GENS_SQ = {i: GENS[i] * GENS[i] for i in GENS}


def spinor_parts(sigma: AlgebraElement):
    """(S- part, S+ part) of a spinor: its monomials of degree +1 and -1.

    Raises ValueError unless every monomial has degree +1 or -1.
    """
    parts = degree_split(sigma)
    if parts.keys() - {1, -1}:
        raise ValueError("a spinor has components of degree +1 and -1 only")
    return parts.get(1, AlgebraElement()), parts.get(-1, AlgebraElement())


GENERATOR_SPINORS = (_a, _c, _b, _d)


def _gamma_into(acc, omega, sigma):
    """Add gamma(omega, sigma) into the dict acc; returns acc."""
    parts = check_sphere_form(omega)
    if parts.keys() - {EP, EM}:
        raise ValueError("gamma acts on one-forms")
    minus, plus = spinor_parts(sigma)
    for w, part in ((EM, plus), (EP, minus)):
        if w in parts:
            _multiply_into(acc, parts[w].terms, part.terms)
    return acc


def gamma(omega, sigma: AlgebraElement) -> AlgebraElement:
    """Clifford action of a one-form: chirality-matched multiplication."""
    return AlgebraElement._wrap(_gamma_into({}, omega, sigma))


def gamma_gamma(tf: TensorForm, sigma: AlgebraElement) -> AlgebraElement:
    """gamma applied twice through a two-legged tensor (inner leg first)."""
    out = {}
    for omega, eta in decompose_legs(tf):
        _gamma_into(out, omega, gamma(eta, sigma))
    return AlgebraElement._wrap(out)


@lru_cache(maxsize=None)
def _dirac_mono(m: Monomial) -> AlgebraElement:
    """dirac of the spinor m (in S- for deg m = 1, in S+ for deg m = -1):
    the memoised table behind dirac.  Its values are read only through
    AlgebraElement.extend."""
    x = AlgebraElement({m: ONE})
    spinor_parts(x)  # raises unless deg m = +-1
    out = {}
    for omega, y in basic_pairs(covariant_D(x), m.degree()):
        _gamma_into(out, omega, y)
    return AlgebraElement._wrap(out)


def dirac(sigma: AlgebraElement) -> AlgebraElement:
    """gamma composed with the monopole covariant derivative at charge +-1,
    newly built from the per-monomial table."""
    return AlgebraElement.extend(_dirac_mono, sigma.terms.items())


def gamma_algebra_check():
    """The composition table and Clifford-type relations of the gamma action.

    All gammas act by left multiplication, so the composition table is
    a family of algebra identities; the operator statements are then
    spot-applied to the generator spinors.
    """
    hp, hm, h0 = DELC["+"], DELC["-"], DELC["0"]
    ap, am, a0 = DELBARC["+"], DELBARC["-"], DELBARC["0"]
    items = [
        ("gamma-comp-m", hm * am - _q(3) * _GENS_SQ["-"]),
        ("gamma-comp-m-rev", am * hm - _q(-1) * _GENS_SQ["-"]),
        ("gamma-comp-p", hp * ap - _q(3) * _GENS_SQ["+"]),
        ("gamma-comp-p-rev", ap * hp - _q(-1) * _GENS_SQ["+"]),
        ("gamma-comp-0", h0 * a0 - _q(2) * ((one + _q(1) * b0) * b0)),
        ("gamma-comp-0-rev", a0 * h0 - (one + _q(-1) * b0) * b0),
        ("gamma-comp-pm", hp * am - (one + _q(3) * b0) * (one + _q(1) * b0)),
        ("gamma-comp-pm-rev", am * hp - (one + _q(-3) * b0) * (one + _q(-1) * b0)),
        ("gamma-comp-mp", hm * ap - _GENS_SQ["0"]),
        ("gamma-comp-mp-rev", ap * hm - _GENS_SQ["0"]),
        (
            "gamma-gamma-scalar",
            _q(2) * _GENS_SQ["0"]
            + (one + _q(3) * b0) * (one + _q(1) * b0)
            - (two_q * _q(2)) * ((one + _q(1) * b0) * b0)
            - one,
        ),
    ]
    g = metric_g()
    for k, sigma in enumerate(GENERATOR_SPINORS):
        minus, plus = spinor_parts(sigma)
        for i in "-+":
            db, sdb = DB[i], hodge_star(DB[i])
            sq = gamma(db, gamma(db, sigma))
            ssq = gamma(sdb, gamma(sdb, sigma))
            want = _q(-1) * (_GENS_SQ[i] * minus) + _q(3) * (_GENS_SQ[i] * plus)
            items.append((f"gamma-sq-{i}{k}", sq - want))
            items.append((f"gamma-star-sq-{i}{k}", ssq + want))
            anti = gamma(db, gamma(sdb, sigma)) + gamma(sdb, gamma(db, sigma))
            items.append((f"gamma-anti-{i}{k}", anti))
        items.append((f"gamma-gamma-{k}", gamma_gamma(g, sigma) - (_q(2) * minus + plus)))
        items.append((f"gamma-gamma-pm-{k}", gamma_gamma(g_plus_minus(), sigma) - plus))
        items.append((f"gamma-gamma-mp-{k}", gamma_gamma(g_minus_plus(), sigma) - _q(2) * minus))
    return _run_items(items)


def dirac_first_order_check():
    """dirac on b_i times each generator spinor, against the evaluated table."""
    heads = {
        "a": (_q(1) * two_q, _b),
        "b": (two_q, _a),
        "c": (_q(1) * two_q, _d),
        "d": (two_q, _c),
    }
    corrections = {
        "a": (_zero, _q(1) * _b, _d),
        "b": (_zero, _zero, -(_q(-1) * _c)),
        "c": (-(_q(1) * _b), _zero, _zero),
        "d": (_a, _c, _zero),
    }
    items = []
    for name, comp in _GENERATORS.items():
        co, image = heads[name]
        for k, f in enumerate((bm, b0, bp)):
            got = dirac(f * comp)
            want = co * (f * image) + corrections[name][k]
            items.append((f"dirac-first-{name}{k}", got - want))
    return _run_items(items)


def dirac_square_check():
    """The twelve values of the squared Dirac operator on spin-1 times generators.

    dirac applied twice to f times a generator spinor is q^-1 [2]_q
    times the scalar Laplacian of f times the same spinor, plus a fixed
    curvature correction.
    """
    corrections = {
        "a": (_zero, -(_q(-1) * _a), -(_q(-1) * _c)),
        "b": (_zero, _q(1) * _b, _q(1) * _d),
        "c": (_a, _q(1) * _c, _zero),
        "d": (-(_q(2) * _b), -(_q(3) * _d), _zero),
    }
    items = []
    for name, comp in _GENERATORS.items():
        for k, f in enumerate((bm, F0, bp)):
            got = dirac(dirac(f * comp))
            head = (_q(-1) * two_q) * (laplacian(f) * comp)
            want = head + corrections[name][k]
            items.append((f"dirac-sq-{name}{k}", got - want))
    return _run_items(items)


def dirac_commutator_check(sample_size=50, seed=7):
    """[dirac, multiplication by f] equals gamma of df, on seeded samples."""
    rng = random.Random(seed)
    pool = [bm, b0, bp, one]
    items = []
    for t in range(sample_size):
        f = pool[t] if t < 4 else _random_sphere_word(rng)
        sigma = GENERATOR_SPINORS[rng.randrange(4)]
        diff = dirac(f * sigma) - f * dirac(sigma) - gamma(d(f), sigma)
        items.append((f"dirac-com-{t}", diff))
    return _run_items(items)


# ---------------------------------------------------------------------------
# the trivialisation


# the column (a + L b, c + L d) of row_to_spinor and the 2 x 2 matrix of spinor_to_row
_TO_SPINOR = [[_a + _b.scale(LAMBDA)], [_c + _d.scale(LAMBDA)]]
_TO_ROW = [[_d, -_b.scale(_q(1))], [-_c.scale(LAMBDA_INV * _q(-1)), _a.scale(LAMBDA_INV)]]


def row_to_spinor(row) -> AlgebraElement:
    """The spinor f(a + L b) + g(c + L d) of a row (f, g) over the sphere."""
    for x in row:
        require_degree(x, 0, "row entries must be sphere elements")
    return _matmul([row], _TO_SPINOR)[0][0]


def spinor_to_row(sigma: AlgebraElement):
    """The row (f, g) of a spinor, inverse to row_to_spinor."""
    return tuple(_matmul([spinor_parts(sigma)], _TO_ROW)[0])


def canonical_coefficients(f):
    """A fixed coefficient triple (f_-, f_0, f_+) with df = f_i db_i.

    The same triple expands both chiral halves -- f_i del b_i = del f
    and f_i delbar b_i = delbar f -- which the transported Dirac
    operator below needs.
    """
    return extract_coeffs(d(f))


def transported_dirac(row, coeffs=canonical_coefficients):
    """The Dirac operator on rows (f, g) in the trivialisation, as a row.

    Matrices multiply from the right; the coefficient extraction plays
    the part of the right-acting derivative entries.
    """
    e, f1 = projector(-1), projector(1)
    f, g = row
    fm, f0, fp = coeffs(f)
    gm, g0, gp = coeffs(g)

    u = [x for (x,) in _matmul([(fm, f0, fp), (gm, g0, gp)], [[bm], [b0], [bp]])]
    (ue,) = _matmul([u], e)
    (third,) = _matmul([(f0 - gm, fp.scale(_q(-1)))], e)
    (fourth,) = _matmul([(-gm, fp.scale(_q(-1)) - g0)], f1)
    weights = (LAMBDA * _q(1), LAMBDA * _q(-1), LAMBDA * _q(-1) * (_q(4) - 1),
               LAMBDA * _q(2), -LAMBDA)
    return tuple(AlgebraElement.combine(zip(parts, weights))
                 for parts in zip(row, u, ue, third, fourth))


def trivialisation_checks(sample_size=10, seed=7):
    """Everything the trivialisation promises, itemized.

    Covers the two idempotents, their sum and their kernels, the chiral
    derivatives of e, the covariant derivative in projector form, and
    agreement of the transported Dirac operator with the upstairs one
    through the isomorphism, on the two unit rows and sample_size seeded
    random ones.
    """
    e, f1 = projector(-1), projector(1)
    de = [[d(x) for x in r] for r in e]
    dele = [[del_split(x)[0] for x in r] for r in e]
    delbare = [[del_split(x)[1] for x in r] for r in e]
    ac, bd = [[_a], [_c]], [[_b], [_d]]  # the columns of S- and S+ generators
    Dac = [[covariant_D(_a)], [covariant_D(_c)]]
    Dbd = [[covariant_D(_b)], [covariant_D(_d)]]
    ede, dee = _matmul(e, de), _matmul(de, e)

    items = [
        *_matrix_items("triv-idem", _matsub(_matmul(e, e), e)),
        # e + f1 = 1, as e - (1 - f1) = 0
        *_matrix_items("triv-sum", _matsub(e, _matsub(((one, _zero), (_zero, one)), f1))),
        *_matrix_items("triv-ker-minus", _matmul(e, ac)),
        *_matrix_items("triv-ker-plus", _matmul(f1, bd)),
        *_matrix_items("triv-del", _matsub(dele, ede)),
        *_matrix_items("triv-delbar", _matsub(delbare, dee)),
        *_matrix_items("triv-delbar-alt", _matsub(delbare, _matmul(f1, de))),
        *_matrix_items("triv-D-minus", _matsub(Dac, _matmul(ede, [[-_a], [-_c]]))),
        *_matrix_items("triv-D-plus", _matsub(Dbd, _matmul(dee, bd))),
        *_matrix_items("triv-del-plus", _matmul(dele, bd)),
        *_matrix_items("triv-delbar-minus", _matmul(delbare, ac)),
    ]

    rng = random.Random(seed)
    rows = [(one, _zero), (_zero, one)] + [
        (_random_sphere_word(rng), _random_sphere_word(rng)) for _ in range(sample_size)
    ]
    for t, row in enumerate(rows):
        back = spinor_to_row(dirac(row_to_spinor(row)))
        for part, got, want in zip("fg", transported_dirac(row), back):
            items.append((f"triv-dirac-{t}-{part}", got - want))

    sigma = row_to_spinor((one, _zero))
    items.append(("triv-eigenrow", dirac(sigma) - sigma.scale(LAMBDA_INV)))

    return _run_items(items)


# ---------------------------------------------------------------------------
# the dirac suite


def _dirac_generators_witness(opts):
    return _run_items([
        ("dirac a", dirac(_a) - _b),
        ("dirac c", dirac(_c) - _d),
        ("dirac b", dirac(_b) - _a.scale(_q(1))),
        ("dirac d", dirac(_d) - _c.scale(_q(1))),
    ])


def _dirac_eigen_witness(opts):
    """The eigen-spinors with eigenvalues +-q^(1/2)."""
    for sign in (1, -1):
        ev = LAMBDA_INV * sign
        for m0, p0 in ((_a, _b), (_c, _d)):
            sig = m0.scale(ev) + p0
            if dirac(sig) != sig.scale(ev):
                return "sign %+d on (%r, %r)" % (sign, m0, p0)


CHECKS = (
    Check("dirac-generators", "dirac", _dirac_generators_witness),
    Check("gamma-algebra", "dirac", lambda o: gamma_algebra_check()),
    Check("dirac-first-order", "dirac", lambda o: dirac_first_order_check()),
    Check("dirac-square", "dirac", lambda o: dirac_square_check()),
    Check("dirac-eigen", "dirac", _dirac_eigen_witness),
    Check("dirac-commutator", "dirac",
          lambda o: dirac_commutator_check(sample_size=o.n(50), seed=o.seed + 7)),
    Check("trivialisation", "dirac",
          lambda o: trivialisation_checks(sample_size=o.n(10), seed=o.seed + 7)),
)
