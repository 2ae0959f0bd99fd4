"""The standard q-sphere: functions, forms, metric, Hodge star, Laplacian.

The sphere sits inside quantum SL(2) as the degree-0 subalgebra,
generated by

    b0 = bc,   b+ = cd,   b- = ab,

and its 2-dimensional exterior calculus is the horizontal part of the
3-d calculus upstairs: one-forms have only e+ and e- components, the
top form is Y = e+ ^ e-.  Working upstairs makes every identity here
decidable by the PBW normal form.  A function on the sphere is a plain
degree-0 AlgebraElement and a sphere form a plain Form whose terms are
basic: calculus.check_sphere_form asks each coefficient for the degree
minus the charge of its word, where an operator needs it.

The derivative splits as d = del + delbar (e+ and e- components); on
one-forms del kills the holomorphic part and delbar the antiholomorphic
part, and d of a basic one-form is automatically a multiple of Y (the
e0-containing words cancel) -- several checks below lean on that.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .algebra import AlgebraElement, Check, _multiply_into, _run_items, _zero_or_witness
from .algebra import a as _a, b as _b, c as _c, d as _d
from .algebra import b0, bm, bp, coproduct, one, proportionality, require_degree
from .calculus import (
    E0,
    EM,
    EP,
    SCALAR_WORD,
    VOL,
    Form,
    TensorForm,
    check_sphere_form,
    d,
    tensor_sum,
    wedge,
    wedge_sum,
)
from .scalars import ONE, Scalar, mu, qint, two_q

_q = Scalar.q_power

F0 = one + two_q * b0  # the degree-zero partner of b+- in the spin-1 multiplet

GENS = {"-": bm, "0": b0, "+": bp}


def chiral_split(tau: Form):
    """(e+ part, e- part) of a one-form: its del and delbar halves."""
    return tuple(Form.of(tau.coefficient(w), w) for w in (EP, EM))


def del_split(f):
    """(del f, delbar f): the e+ and e- parts of df for a sphere function."""
    require_degree(f, 0, "del_split() needs a sphere element")
    df = d(f)
    if E0 in df.by_word():
        raise RuntimeError("df acquired an e0 part on a degree-0 element")
    return chiral_split(df)


DB = {i: d(GENS[i]) for i in GENS}
DEL = {i: del_split(GENS[i])[0] for i in GENS}
DELBAR = {i: del_split(GENS[i])[1] for i in GENS}


def upsilon() -> Form:
    return Form.of(one, VOL)


def sphere_relations_check():
    """The defining relations of the sphere generators; returns failures."""
    items = [
        ("bp-b0", bp * b0 - _q(2) * (b0 * bp)),
        ("bm-b0", bm * b0 - _q(-2) * (b0 * bm)),
        (
            "bm-bp",
            _q(2) * (bm * bp) - _q(-2) * (bp * bm) - (ONE - _q(-2)) * b0,
        ),
        ("sphere-eq", b0 * (one + _q(1) * b0) - bp * bm),
        ("sphere-eq-alt", b0 * (one + _q(-1) * b0) - _q(2) * (bm * bp)),
    ]
    return _run_items(items)


def soldering_check():
    """The frame/soldering identities expressing e+- downstairs."""
    ep_form = Form.of(one, EP)
    em_form = Form.of(one, EM)
    theta_p = (
        (_a * _a) * DB["+"]
        + _q(-2) * ((_c * _c) * DB["-"])
        - qint(2, _q(-2)) * ((_a * _c) * DB["0"])
    )
    theta_m = (
        (_d * _d) * DB["-"]
        + _q(2) * ((_b * _b) * DB["+"])
        - qint(2, _q(2)) * ((_b * _d) * DB["0"])
    )
    theta_0 = (
        b0 * d(one + _q(1) * b0)
        - _q(2) * (bm * DB["+"])
        - bp * DB["-"]
        + (one + _q(-1) * b0) * DB["0"]
    )
    items = [
        ("soldering-plus", theta_p - ep_form),
        ("soldering-minus", theta_m - em_form),
        ("soldering-zero", theta_0),
    ]
    return _run_items(items)


# the sphere relation differentiated, q^2 bm db+ + bp db- - F0 db0 = 0, as
# a row on the frame (db-, db0, db+); its chiral halves hold as well, and
# riemann.E_ROW is minus it
DSREL_ROW = {"-": bp, "0": -F0, "+": _q(2) * bm}


def _dsrel_on(forms):
    """The row DSREL_ROW applied to forms keyed like GENS."""
    return _matmul([[DSREL_ROW[i] for i in GENS]], [[forms[i]] for i in GENS])[0][0]


def one_form_relation_check():
    """The sphere one-form relation, its chiral halves, and the full
    bimodule commutation table, all verified upstairs."""
    db0, dbp, dbm = DB["0"], DB["+"], DB["-"]
    items = [
        ("dSrel-left", _dsrel_on(DB)),
        ("dSrel-right", _q(2) * (dbm * bp) + dbp * bm - db0 * F0),
        ("dShol-del", _dsrel_on(DEL)),
        ("dShol-delbar", _dsrel_on(DELBAR)),
    ]

    def rel(name, lhs, rhs):
        items.append((name, lhs - rhs))

    rel(
        "dbbimod-00",
        db0 * b0,
        (_q(2) * b0 + _q(1) * mu * (b0 * b0)) * db0 - mu * (b0 * bp) * dbm,
    )
    # db0 . b+- = q^(-+2)(1 -+ q^(+-1) mu b0) b+- db0 - (1 - q^(+-2) -+ q^(+-1) mu b0) b0 db+-
    rel(
        "dbbimod-0p",
        db0 * bp,
        _q(-2) * ((one - _q(1) * mu * b0) * bp) * db0
        - ((ONE - _q(2)) * b0 - _q(1) * mu * (b0 * b0)) * dbp,
    )
    rel(
        "dbbimod-0m",
        db0 * bm,
        _q(2) * ((one + _q(-1) * mu * b0) * bm) * db0
        - ((ONE - _q(-2)) * b0 + _q(-1) * mu * (b0 * b0)) * dbm,
    )
    # db+- . b0 = (q^(+-4) +- q^(+-3) mu b0) b0 db+- -+ q^(+-1) mu b0 b+- db0
    rel(
        "dbbimod-p0",
        dbp * b0,
        (_q(4) * b0 + _q(3) * mu * (b0 * b0)) * dbp - _q(1) * mu * (b0 * bp) * db0,
    )
    rel(
        "dbbimod-m0",
        dbm * b0,
        (_q(-4) * b0 - _q(-3) * mu * (b0 * b0)) * dbm + _q(-1) * mu * (b0 * bm) * db0,
    )
    # db+- . b-+ = q^(+-2)(1 +- q^(+-1) mu b0) b-+ db+- -+ q^(+-1) mu q^-1 b0^2 db0
    rel(
        "dbbimod-pm",
        dbp * bm,
        _q(2) * ((one + _q(1) * mu * b0) * bm) * dbp - mu * (b0 * b0) * db0,
    )
    rel(
        "dbbimod-mp",
        dbm * bp,
        _q(-2) * ((one - _q(-1) * mu * b0) * bp) * dbm + _q(-2) * mu * (b0 * b0) * db0,
    )
    # db+- . b+- = q^(+-2)(1 +- q^(+-1) mu b0) b+- db+- -+ q^(-+1) mu b+-^2 db0
    rel(
        "dbbimod-pp",
        dbp * bp,
        _q(2) * ((one + _q(1) * mu * b0) * bp) * dbp - _q(-1) * mu * (bp * bp) * db0,
    )
    rel(
        "dbbimod-mm",
        dbm * bm,
        _q(-2) * ((one - _q(-1) * mu * b0) * bm) * dbm + _q(1) * mu * (bm * bm) * db0,
    )
    # consequences recorded alongside the table
    rel(
        "dbbimod-cross1",
        _q(-1) * (dbp * bm) - db0 * b0,
        -_q(-2) * (b0 * db0) + _q(1) * (bm * dbp),
    )
    rel(
        "dbbimod-cross2",
        _q(1) * (dbm * bp) - _q(-2) * (db0 * b0),
        -(b0 * db0) + _q(-1) * (bp * dbm),
    )
    rel(
        "dbbimod-cross3p",
        dbp * b0 - _q(2) * (db0 * bp),
        _q(2) * (b0 * dbp) - bp * db0,
    )
    rel(
        "dbbimod-cross3m",
        dbm * b0 - _q(-2) * (db0 * bm),
        _q(-2) * (b0 * dbm) - bm * db0,
    )
    return _run_items(items)


# ---------------------------------------------------------------------------
# metric and Hodge theory


def _matmul(X, Y):
    """The product XY of matrices of elements or forms given as row lists, as
    a list of row lists, each entry summed in one dict by _dot; a row vector
    is a 1 x n matrix and a column vector an n x 1 matrix."""
    return [[_dot(row, col) for col in zip(*Y)] for row in X]


def _dot(xs, ys):
    """The sum of x * y over the pairs of xs and ys: a form when a factor is
    one, an element otherwise."""
    if any(type(v) is Form for v in (*xs, *ys)):
        xs, ys = ([v if type(v) is Form else Form.of(v) for v in vs] for vs in (xs, ys))
        return wedge_sum(Form, zip(xs, ys, strict=True))
    acc = {}
    for x, y in zip(xs, ys, strict=True):
        _multiply_into(acc, x.terms, y.terms)
    return AlgebraElement._wrap(acc)


def _matrix_items(name, X):
    """The check items (name-ij, X[i][j]) of a matrix, or (name-i, X[i][0]) of a column."""
    for i, row in enumerate(X):
        for j, x in enumerate(row):
            yield (f"{name}-{i}{j}" if len(row) > 1 else f"{name}-{i}"), x


def _matsub(X, Y):
    """X - Y for two matrices of one shape, as a list of row lists."""
    return [[x - y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]


def coaction_matrix():
    """Left-coaction matrix M on the frame (db-, db0, db+), read off the coproduct:
    M_ij sums the left legs of Delta(b_i) whose right leg is b_j (d kills the rest)."""
    frame = [next(iter(g.terms)) for g in GENS.values()]  # the monomials ab, bc, cd
    rows = [coproduct(g).by_leg(1) for g in GENS.values()]
    return [[row.get(m, AlgebraElement.zero()) for m in frame] for row in rows]


def metric_matrix():
    """Coefficients G of the metric in the frame (db-, db0, db+), from G_PRESENTATION."""
    coeffs = {(i, j): co for co, i, j in G_PRESENTATION}
    return [[one.scale(coeffs.get((i, j), 0)) for j in GENS] for i in GENS]


# the metric as a sum of basic (x) basic pairs, coefficients out front
G_PRESENTATION = ((_q(2), "-", "+"), (ONE, "+", "-"), (-two_q, "0", "0"))


def _metric_over(left, right) -> TensorForm:
    """sum co . left_i (x) right_j over the terms (co, i, j) of G_PRESENTATION."""
    return tensor_sum((left[i].scale(co), right[j]) for co, i, j in G_PRESENTATION)


def _metric_sum() -> TensorForm:
    return _metric_over(DB, DB)


def _symmetry_witness(g):
    """None when g wedges to zero (is q-symmetric)."""
    return _zero_or_witness(g.wedge_in())


_MIXED = frozenset(((EP, "-"), (EM, "+")))


def _chiral_witness(g):
    """None when g has only the mixed e+ (x) e- and e- (x) e+ components."""
    extra = sorted("".join(w + (leg,)) for w, leg in g.by_slot().keys() - _MIXED)
    if extra:
        return "unexpected %s component" % ", ".join(extra)


def _invariance_witness():
    """None when the metric coefficients are invariant under the coaction."""
    M, G = coaction_matrix(), metric_matrix()
    Mt = [[M[j][i] for j in range(3)] for i in range(3)]
    if _matmul(Mt, _matmul(G, M)) != G:
        return "M^t G M != G"


# the entries of _metric_table, in order
_G, _G_PM, _G_MP, _EINSTEIN, _GEOMETRIC = range(5)


@lru_cache(maxsize=None)
def _metric_table():
    """The metric, its chiral halves g_{+-} and g_{-+}, and the Einstein and
    geometric lifts of the area form, read only through _metric_entry.
    Built once per process, so the metric's four guards run once; the
    metric-* checks run their witnesses on a fresh _metric_sum() instead."""
    g = _metric_sum()
    if _symmetry_witness(g):
        raise ArithmeticError("metric is not q-symmetric")
    if not g.is_basic():
        raise ArithmeticError("metric does not descend")
    if _chiral_witness(g):
        raise ArithmeticError("metric has chiral components")
    if _invariance_witness():
        raise ArithmeticError("metric coefficients not invariant")
    # the Einstein lift has Ricci an exact multiple of g; the geometric
    # lift is minus the second-leg star of g, normalized
    sg = star_second_leg(g)
    ratio = (1 - _q(-4)) / (1 + _q(-4))
    einstein = (-sg + g.scale(ratio)).scale(_q(-1) / two_q)
    geometric = sg.scale(-(_q(-1) / two_q))
    return g, _metric_over(DEL, DELBAR), _metric_over(DELBAR, DEL), einstein, geometric


def _metric_entry(i) -> TensorForm:
    """A newly built copy of entry i of _metric_table."""
    return _metric_table()[i].copy()


def metric_g() -> TensorForm:
    """The q-metric q^2 db- (x) db+ + db+ (x) db- - [2]_q db0 (x) db0."""
    return _metric_entry(_G)


def g_plus_minus() -> TensorForm:
    return _metric_entry(_G_PM)


def g_minus_plus() -> TensorForm:
    return _metric_entry(_G_MP)


def einstein_lift() -> TensorForm:
    """The lift of the area form whose Ricci (riemann.ricci) is an exact
    multiple of the metric."""
    return _metric_entry(_EINSTEIN)


def geometric_lift() -> TensorForm:
    """The symmetric lift: minus the second-leg star of the metric, normalized."""
    return _metric_entry(_GEOMETRIC)


# the Hodge star on the basis words: the image word, with sign -1 on e- alone
_STAR = {EP: EP, EM: EM, VOL: SCALAR_WORD, SCALAR_WORD: VOL}


def hodge_star(x):
    """The Hodge star of a sphere form (check_sphere_form raises on any
    other): +1 on e+, -1 on e-, *1 = Y and *Y = 1."""
    check_sphere_form(x)
    return Form._wrap({(_STAR[w], m): -c if w == EM else c for (w, m), c in x.terms.items()})


# Wedging either chiral half of the metric gives +-q^2 Y (the e+ ^ e-
# crossing factors conspire to a clean scalar), so the lifts of the area
# form are exactly the combinations with alpha - beta = q^-2.  The
# symmetric member alpha = q^-2/2 is proportional to (* (x) id)(g).
_ALPHA_GEOMETRIC = _q(-2) / 2


def _lift_sum(alpha):
    return alpha * g_plus_minus() + (alpha - 2 * _ALPHA_GEOMETRIC) * g_minus_plus()


def _lift_witness(lift):
    """None when the lift wedges back to the area form."""
    return _zero_or_witness(lift.wedge_in() - upsilon())


def lift_iY(alpha: Scalar) -> TensorForm:
    """The family of lifts of the area form: alpha g_{+-} + beta g_{-+}."""
    lift = _lift_sum(alpha)
    if _lift_witness(lift):
        raise ArithmeticError("lift does not wedge to the area form")
    return lift


def _scale_by_leg(tf: TensorForm, by) -> TensorForm:
    """Each term of tf scaled by the Scalar by[leg] of its leg."""
    return TensorForm._wrap({k: co * by[k[1]] for k, co in tf.terms.items()})


def star_second_leg(tf: TensorForm) -> TensorForm:
    """Hodge star applied to the tensor leg."""
    return _scale_by_leg(tf, {"+": ONE, "-": -ONE})


@lru_cache(maxsize=None)
def _lap_mono(m) -> AlgebraElement:
    """The Laplacian of the monomial m via (box m) Y = del delbar m, checked
    against the -1/2 d*d route: the memoised table behind laplacian.  Its
    values are read only through AlgebraElement.extend."""
    f = AlgebraElement({m: ONE})
    _, dbarf = del_split(f)
    two_form = d(dbarf)
    if two_form.by_word().keys() - {VOL}:
        raise RuntimeError("del delbar f is not proportional to the area form")
    h = two_form.coefficient(VOL)
    # the -1/2 d*d route must agree
    check = d(hodge_star(d(f))).scale(Scalar.from_int(-1) / 2)
    if check != two_form:
        raise ArithmeticError("Laplacian routes disagree")
    return h


def laplacian(f) -> AlgebraElement:
    """The scalar Laplacian, newly built from the per-monomial table."""
    if not isinstance(f, AlgebraElement):
        raise TypeError("laplacian() needs a sphere element")
    require_degree(f, 0, "laplacian() needs a sphere element")
    return AlgebraElement.extend(_lap_mono, f.terms.items())


def maxwell_check(i):
    """Spin-off of the Laplacian: the massive Maxwell operator on A ~ db_i.

    Checks the Coulomb gauge *d*A = 0 and that -1/4 *d*dA is an exact
    Scalar multiple of A; the proportionality (the mass squared) is
    computed and reported, not assumed.
    """
    if i not in GENS:
        raise ValueError("generator index must be one of '-', '0', '+'")
    delf, dbarf = del_split(GENS[i])
    coef = _q(2) / (2 * two_q)
    A = (dbarf - delf).scale(coef)
    coulomb = hodge_star(d(hodge_star(A)))
    dA = d(A)
    lhs = hodge_star(d(hodge_star(dA))).scale(Scalar.from_int(-1) / 4)
    m2 = proportionality(lhs, A)
    return {
        "coulomb": not coulomb,
        "massive": m2 is not None,
        "mass_squared": m2,
    }


# ---------------------------------------------------------------------------
# the displayed two-form tables


def wedge_tables_check():
    """Every displayed 2-form identity: the chiral wedge table, the
    db_i ^ db_j table, and the two volume-form presentations."""
    Y = upsilon()
    dp, dm, d0 = DEL["+"], DEL["-"], DEL["0"]
    bp_, bm_, b0_ = DELBAR["+"], DELBAR["-"], DELBAR["0"]
    items = []

    def rel(name, lhs, rhs):
        items.append((name, lhs - rhs))

    # the four headline relations
    rel(
        "delbardel-line1",
        wedge(dp, bm_) + _q(6) * wedge(bm_, dp),
        ((_q(4) * mu) * (b0 * b0 - one)) * Y,
    )
    rel("delbardel-line2a", wedge(dm, bp_), (_q(2) * (b0 * b0)) * Y)
    rel("delbardel-line2b", wedge(dm, bp_), -_q(2) * wedge(bp_, dm))
    rel("delbardel-line3a", wedge(dm, bm_), ((_q(5)) * (bm * bm)) * Y)
    rel("delbardel-line3b", wedge(dm, bm_), -_q(6) * wedge(bm_, dm))
    rel("delbardel-line4a", wedge(dp, bp_), ((_q(5)) * (bp * bp)) * Y)
    rel("delbardel-line4b", wedge(dp, bp_), -_q(6) * wedge(bp_, dp))
    # the auxiliary table from the same proof
    rel("delbardel-aux-00a", wedge(d0, b0_), (_q(4) * ((one + _q(1) * b0) * b0)) * Y)
    rel("delbardel-aux-00b", wedge(b0_, d0), (-((one + _q(-1) * b0) * b0)) * Y)
    rel("delbardel-aux-0m-a", wedge(d0, bm_), (_q(4) * ((one + _q(1) * b0) * bm)) * Y)
    rel("delbardel-aux-0m-b", wedge(bm_, d0), (-((one + _q(-3) * b0) * bm)) * Y)
    rel("delbardel-aux-p0-a", wedge(dp, b0_), (_q(4) * (bp * (one + _q(1) * b0))) * Y)
    rel("delbardel-aux-p0-b", wedge(b0_, dp), (-(bp * (one + _q(-3) * b0))) * Y)
    rel("delbardel-aux-0p-a", wedge(d0, bp_), (_q(3) * (bp * b0)) * Y)
    rel("delbardel-aux-0p-b", wedge(d0, bp_), -_q(4) * wedge(bp_, d0))
    rel("delbardel-aux-m0-a", wedge(dm, b0_), (_q(5) * (bm * b0)) * Y)
    rel("delbardel-aux-m0-b", wedge(dm, b0_), -_q(4) * wedge(b0_, dm))
    rel(
        "delbardel-aux-sym0",
        _q(-4) * wedge(d0, b0_) + wedge(b0_, d0),
        ((_q(1) - _q(-1)) * (b0 * b0)) * Y,
    )
    rel(
        "delbardel-aux-symm",
        wedge(d0, bm_) + _q(8) * wedge(bm_, d0),
        (-(_q(6) * mu) * bm) * Y,
    )
    rel(
        "delbardel-aux-symp",
        wedge(dp, b0_) + _q(8) * wedge(b0_, dp),
        (-(_q(6) * mu) * bp) * Y,
    )
    # the db_i ^ db_j table
    db0, dbp, dbm = DB["0"], DB["+"], DB["-"]
    three_q = _q(2) + ONE + _q(-2)
    rel(
        "dbdb-mp",
        wedge(dbm, dbp),
        (-(one + (_q(-2) * two_q) * b0 - (_q(-1) * (_q(1) - _q(-1)) * three_q) * (b0 * b0))) * Y,
    )
    rel(
        "dbdb-00",
        wedge(db0, db0),
        (((_q(1) - _q(-1)) * _q(2)) * ((two_q * one + three_q * b0) * b0)) * Y,
    )
    rel("dbdb-0p", wedge(db0, dbp), (((_q(5) - _q(-1)) * b0 - one) * bp) * Y)
    rel("dbdb-p0", wedge(dbp, db0), (((_q(7) - _q(1)) * b0 + _q(4) * one) * bp) * Y)
    rel("dbdb-m0", wedge(dbm, db0), (bm * ((_q(5) - _q(-1)) * b0 - one)) * Y)
    rel("dbdb-0m", wedge(db0, dbm), (bm * ((_q(7) - _q(1)) * b0 + _q(4) * one)) * Y)
    # volume-form presentations in the two charts
    rel(
        "volume-F0",
        wedge(dbp, dbm) - _q(4) * wedge(dbm, dbp),
        ((_q(3) * two_q) * F0) * Y,
    )
    rel(
        "volume-b0",
        _q(1) * (bm * wedge(db0, dbp)) - _q(-1) * (b0 * wedge(dbm, dbp)),
        (_q(2) * (b0 * b0)) * Y,
    )
    return _run_items(items)


# ---------------------------------------------------------------------------
# Laplacian spectral helpers


def spin_multiplet(ell: int):
    """The 2*ell+1 sphere elements obtained by bucketing the coproduct of
    b+^ell over its first-leg monomials (highest-weight matrix elements)."""
    buckets = coproduct(bp ** ell).by_leg(0)
    out = [buckets[m] for m in sorted(buckets, key=lambda m: -m[2])]
    if len(out) != 2 * ell + 1:
        raise ArithmeticError("spin-%d multiplet has %d members" % (ell, len(out)))
    if any(m.degree() for v in out for m in v.terms):
        raise ArithmeticError("spin-%d multiplet leaves the sphere" % ell)
    return out


def eigenvalue_on(elements):
    """The single Scalar by which the Laplacian acts on the span; raises
    if any element fails to be an exact eigenvector or values differ."""
    lam = None
    for v in elements:
        if not v:
            raise ValueError("the zero vector has no eigenvalue")
        cand = proportionality(laplacian(v), v)
        if cand is None:
            raise ArithmeticError("not an exact eigenvector")
        if lam is None:
            lam = cand
        elif lam != cand:
            raise ArithmeticError("eigenvalue is not uniform on the multiplet")
    if lam is None:
        raise ValueError("an empty span has no eigenvalue")
    return lam


# ---------------------------------------------------------------------------
# the sphere, metric, hodge, laplace and maxwell suites


@lru_cache(maxsize=39)
def _sphere_word(letters):
    """The product of the sphere generators GENS[i] for the letters i."""
    x = one
    for i in letters:
        x = x * GENS[i]
    return x


def _random_sphere_word(rng, maxlen=3):
    """A product of 1 to maxlen sphere generators, drawn from (b0, bp, bm):
    a random sphere function, a new copy of its memoised product (3 + 9 +
    27 = 39 products at maxlen 3)."""
    n = rng.randrange(1, maxlen + 1)
    return _sphere_word(tuple([rng.choice("0+-") for _ in range(n)])).copy()


def _star_basics_witness(opts):
    items = [
        ("star(1)", hodge_star(Form.of(one)) - upsilon()),
        ("star(area)", hodge_star(upsilon()) - Form.of(one)),
    ]
    for i in "-0+":
        items.append(("star del b%s" % i, hodge_star(DEL[i]) - DEL[i]))
        items.append(("star delbar b%s" % i, hodge_star(DELBAR[i]) + DELBAR[i]))
    return _run_items(items)


def _star_squared_witness(opts):
    rng = random.Random(opts.seed + 3)
    forms = [[Form.of(one)], [upsilon()]] + [[h[i]] for i in "-0+" for h in (DEL, DELBAR)]
    for _ in range(opts.n(25)):
        x = _matmul([[_random_sphere_word(rng) for _ in forms]], forms)[0][0]
        if hodge_star(hodge_star(x)) - x:
            return "star^2 != id on a sample"


def _lift_family_witness(opts):
    for alpha in (_q(-2) / 2, _q(-2) / (ONE + _q(-4)), Scalar.from_int(0)):
        w = _lift_witness(_lift_sum(alpha))
        if w:
            return "alpha = %r: %s" % (alpha, w)


_LAM1 = _q(2) * two_q  # the Laplace eigenvalue on spin 1


def _laplace_values_witness(opts):
    return _run_items([
        ("box bm", laplacian(bm) - bm.scale(_LAM1)),
        ("box bp", laplacian(bp) - bp.scale(_LAM1)),
        ("box F0", laplacian(F0) - F0.scale(_LAM1)),
        ("box 1", laplacian(one)),
    ])


def _spin_witness(ell, want):
    lam = eigenvalue_on(spin_multiplet(ell))
    if lam != want:
        return repr(lam)


def _coulomb_witness(opts):
    for i in "-0+":
        if not maxwell_check(i)["coulomb"]:
            return "source db%s" % i


def _massive_witness(opts):
    want = _LAM1 / 2
    for i in "-0+":
        report = maxwell_check(i)
        if not report["massive"]:
            return "source db%s" % i
        if report["mass_squared"] != want:
            return "mass^2 = %r" % report["mass_squared"]


CHECKS = (
    Check("sphere-relations", "sphere", lambda o: sphere_relations_check()),
    Check("sphere-relations-d", "sphere", lambda o: _zero_or_witness(_dsrel_on(DB))),
    Check("one-form-bimodule", "sphere", lambda o: one_form_relation_check()),
    Check("soldering", "sphere", lambda o: soldering_check()),
    Check("wedge-tables", "sphere", lambda o: wedge_tables_check()),
    Check("metric-wedge-zero", "metric", lambda o: _symmetry_witness(_metric_sum())),
    Check("metric-chiral-zero", "metric", lambda o: _chiral_witness(_metric_sum())),
    Check("metric-invariance", "metric", lambda o: _invariance_witness()),
    Check("star-basics", "hodge", _star_basics_witness),
    Check("star-squared", "hodge", _star_squared_witness),
    Check("area-lift-family", "hodge", _lift_family_witness),
    Check("laplace-values", "laplace", _laplace_values_witness),
    Check("laplace-spin1", "laplace", lambda o: _spin_witness(1, _LAM1)),
    Check("laplace-spin2", "laplace",
          lambda o: _spin_witness(2, _LAM1 * (_q(2) + 1 + _q(-2)))),
    Check("maxwell-coulomb", "maxwell", _coulomb_witness),
    Check("maxwell-massive", "maxwell", _massive_witness),
)
