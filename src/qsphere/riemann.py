"""Riemannian structure of the q-sphere: connection, curvature, Ricci.

The Levi-Civita connection is computed upstairs.  A basic one-form
u e+ + w e- has coefficients of degree -+2, minus the charge of their
word (nabla checks this with calculus.check_sphere_form, the one charge
rule for sphere forms), and the monopole covariant
derivative of those coefficients assembles into a two-legged tensor
over the sphere algebra:

    nabla(u e+ + w e-) = D(u) (x) e+  +  D(w) (x) e-.

Torsion and cotorsion both vanish, the curvature collapses to the area
form times a chirality-dependent scalar, and contracting a lift of the
area form through the curvature produces Ricci.  Two lifts matter: the
Einstein one, whose Ricci is an exact multiple of the metric, and the
symmetric one, whose Ricci picks up a correction proportional to the
lift itself.

Decomposing a two-legged tensor into sums of honest form (x) form pairs
(needed to differentiate the second leg) is not canonical; it is done
by bundles.basic_pairs, which inserts the fixed partitions of unity of
the charge -+2 bundles and so keeps every curvature computation
deterministic.
"""

from __future__ import annotations

import random

from .algebra import Check, _run_items, _zero_or_witness
from .bundles import basic_pairs, covariant_D
from .calculus import EM, EP, Form, TensorForm, check_sphere_form, d, tensor, tensor_sum, wedge_sum
from .scalars import ONE, Scalar, two_q
from .sphere import (
    DB,
    DEL,
    DELBAR,
    DSREL_ROW,
    F0,
    G_PRESENTATION,
    _matmul,
    _matrix_items,
    _matsub,
    _random_sphere_word,
    _scale_by_leg,
    bm,
    bp,
    chiral_split,
    del_split,
    einstein_lift,
    geometric_lift,
    metric_g,
    one,
    upsilon,
)

_q = Scalar.q_power


def decompose_legs(tf: TensorForm):
    """Rewrite a tensor as a list of (omega_r, eta_r) form pairs.

    The leg e^b is padded with 1 = sum x_r y_r at charge -+2 so that
    eta_r = y_r e^b is basic (bundles.basic_pairs).
    """
    return [(omega, Form.of(yr, leg)) for (w, leg), x in tf.by_slot().items()
            for omega, yr in basic_pairs(Form.of(x, w), -2 if leg == "+" else 2)]


def nabla(tau) -> TensorForm:
    """The Levi-Civita connection on basic one-forms.

    The covariant derivative D(x) of each coefficient x becomes the
    form of a tensor whose leg is x's basis one-form; the e+ and e-
    terms have different legs, so they share no key.
    """
    parts = check_sphere_form(tau)  # e+ (e-) coefficients have charge -2 (+2)
    if parts.keys() - {EP, EM}:
        raise ValueError("the connection applies to one-forms")
    return TensorForm._wrap({
        (v, w[0], m): co for w, x in parts.items() for (v, m), co in covariant_D(x).terms.items()
    })


class Connection1:
    """A left connection on one-forms; defaults to the Levi-Civita nabla."""

    __slots__ = ("apply",)

    def __init__(self, apply=nabla):
        self.apply = apply

    def __call__(self, tau) -> TensorForm:
        return self.apply(tau)


LEVI_CIVITA = Connection1()


def torsion(tau) -> Form:
    """Wedge of the connection minus the exterior derivative; always 0 here."""
    return nabla(tau).wedge_in() - d(tau)


def cotorsion() -> TensorForm:
    """(id wedge nabla)(g) on the metric g = sum co db_i (x) db_j.

    The other half of the cotorsion, (nabla wedge id)(g), is
    dd(b_i) (x) db_j term by term and so vanishes with the torsion; the
    cotorsion is zero exactly when this half is."""
    return wedge_sum(TensorForm, ((DB[i].scale(co), nabla(DB[j])) for co, i, j in G_PRESENTATION))


# the 3x3 idempotent E presenting the one-forms as a summand of a free
# module, stored as column (x) row: the single dot product row . column = 1
# makes E^2 = E one engine identity instead of nine.  The row is minus the
# differentiated sphere relation, so row . db = 0 is that relation
E_COL = (two_q * bm, F0, two_q * bp)
E_ROW = tuple(-DSREL_ROW[i] for i in "-0+")


def projector_checks():
    """Itemized identities tying the projector to the connection."""
    db = (DB["-"], DB["0"], DB["+"])
    row, col, dbcol = [E_ROW], [[x] for x in E_COL], [[t] for t in db]
    M = _matmul(col, row)
    items = [
        ("rowcol", _matmul(row, col)[0][0] - one),
        ("rowdb", _matmul(row, dbcol)[0][0]),
    ]

    items += _matrix_items("EE", _matsub(_matmul(M, M), M))
    items += _matrix_items("Edb", _matmul(M, dbcol))

    # -E dE reproduces the connection on the generators' differentials
    for j in range(3):
        recomb = tensor_sum((d(M[j][i]), db[i]) for i in range(3))
        items.append((f"nablaE-{j}", nabla(db[j]) + recomb))

    # the same recombination on the bare row gives minus the metric
    drow = tensor_sum((d(E_ROW[j]), db[j]) for j in range(3))
    items.append(("drowdb", drow + metric_g()))

    # each chirality of dE annihilates the matching chirality of db
    halves = [chiral_split(t) for t in db]
    for j in range(3):
        dE = [del_split(M[j][i]) for i in range(3)]
        items.append((f"holE-{j}", tensor_sum((dE[i][0], halves[i][0]) for i in range(3))))
        items.append((f"aholE-{j}", tensor_sum((dE[i][1], halves[i][1]) for i in range(3))))

    return _run_items(items)


# the curvature acts on an e- leg by [2]_q and on an e+ leg by -q^4 [2]_q
_CHIRALITY = {"-": two_q, "+": -(_q(4) * two_q)}


def riemann_tensor(tau) -> TensorForm:
    """Curvature of the connection: (id ^ nabla - d (x) id) applied to nabla(tau).

    Both halves are computed on one shared decomposition of nabla(tau)
    into form (x) form pairs (each half separately depends on the
    choice; the difference does not).  The result is verified to be the
    area form tensor a chirality scalar times the input before it is
    returned.
    """
    pairs = decompose_legs(nabla(tau))
    total = (wedge_sum(TensorForm, ((omega, nabla(eta)) for omega, eta in pairs))
             - tensor_sum((d(omega), eta) for omega, eta in pairs))
    if total != _scale_by_leg(tensor(upsilon(), tau), _CHIRALITY):
        raise RuntimeError("curvature is not the area form times the chirality scalar")
    return total


def ricci(lift: TensorForm) -> TensorForm:
    """Contract the curvature through a lift of the area form.

    The curvature acts on the second leg of the lift by the chirality
    scalars [2]_q (e- leg) and -q^4 [2]_q (e+ leg); closing the loop
    with the area form leaves exactly that rescaling of the lift.
    """
    if not lift.is_basic():
        raise ValueError("the lift must be basic to cross the curvature")
    return _scale_by_leg(lift, _CHIRALITY)


# ---------------------------------------------------------------------------
# the connection and curvature suites


def _connection_values_witness(opts):
    g = metric_g()
    return _run_items([
        ("nabla db-", nabla(DB["-"]) - two_q * (bm * g)),
        ("nabla db0", nabla(DB["0"]) - F0 * g),
        ("nabla db+", nabla(DB["+"]) - two_q * (bp * g)),
    ])


def _torsion_witness(opts):
    rng = random.Random(opts.seed + 4)
    for i in "-0+":
        if torsion(DB[i]):
            return "torsion on db%s" % i
    for _ in range(opts.n(50)):
        x = _random_sphere_word(rng) * DB[rng.choice("-0+")]
        if torsion(x):
            return "torsion on a sample"


def _riemann_family(opts):
    for i in "-0+":
        riemann_tensor(DEL[i])  # raises unless the chirality scalar comes out
        riemann_tensor(DELBAR[i])


def _ricci_einstein_witness(opts):
    lam = (Scalar.from_int(2) * _q(-1)) / (ONE + _q(-4))
    return _zero_or_witness(ricci(einstein_lift()) - metric_g().scale(lam))


def _ricci_geometric_witness(opts):
    lift = geometric_lift()
    want = metric_g().scale(_q(-1) * (ONE + _q(4)) / 2)
    want += lift.scale(two_q * (ONE - _q(4)) / 2)
    return _zero_or_witness(ricci(lift) - want)


def _classical_limit_witness(opts):
    for lift in (einstein_lift(), geometric_lift()):
        diff = ricci(lift) - metric_g()
        if any(co.specialize(1) != 0 for co in diff.terms.values()):
            return "Ricci != g at q = 1"


CHECKS = (
    Check("connection-values", "connection", _connection_values_witness),
    Check("torsion-zero", "connection", _torsion_witness),
    Check("cotorsion-zero", "connection", lambda o: _zero_or_witness(cotorsion())),
    Check("projector-identities", "connection", lambda o: projector_checks()),
    Check("Prop-riemann", "curvature", _riemann_family),
    Check("ricci-einstein-lift", "curvature", _ricci_einstein_witness),
    Check("ricci-geometric-lift", "curvature", _ricci_geometric_witness),
    Check("ricci-classical-limit", "curvature", _classical_limit_witness),
)
