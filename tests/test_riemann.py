import random
from fractions import Fraction

import pytest

from qsphere import riemann
from qsphere.algebra import Monomial, a
from qsphere.calculus import EP, ExteriorWord, Form, TensorForm, d, tensor
from qsphere.riemann import (
    Connection1,
    cotorsion,
    decompose_legs,
    einstein_lift,
    geometric_lift,
    nabla,
    projector_checks,
    ricci,
    riemann_tensor,
    torsion,
)
from qsphere.scalars import ONE, Scalar, qint, two_q
from qsphere.sphere import (
    DB,
    DEL,
    DELBAR,
    F0,
    _random_sphere_word as random_sphere_element,
    bm,
    bp,
    g_minus_plus,
    g_plus_minus,
    metric_g,
    one,
    star_second_leg,
    upsilon,
)

q = Scalar.q_power


def vanishes_at_one(tf):
    return all(co.specialize(Fraction(1)) == 0 for co in tf.terms.values())


def test_nabla_closed_forms():
    g = metric_g()
    assert nabla(DB["-"]) == (two_q * bm) * g
    assert nabla(DB["+"]) == (two_q * bp) * g
    assert nabla(DB["0"]) == F0 * g
    assert nabla(DEL["+"]) == (two_q * bp) * g_minus_plus()
    assert nabla(DEL["-"]) == (two_q * bm) * g_minus_plus()
    assert nabla(DELBAR["+"]) == (two_q * bp) * g_plus_minus()
    assert nabla(DELBAR["-"]) == (two_q * bm) * g_plus_minus()


# non-unit coefficients, among them a true rational function and odd powers of s
COEFFS = (
    Scalar.from_int(-2), q(3), Scalar.s_power(-1), Scalar.s_power(3),
    ONE / (ONE + q(-4)), q(-1) / two_q,
)


def reference_nabla(tau):
    """The whole-element formula: D of each coefficient, tensored with its leg."""
    out = TensorForm()
    for w, x in tau.by_word().items():
        n = -2 if w == EP else 2
        Dx = d(x) - Form.of(x.scale(qint(n, q(2))), "0")
        for (v, m), co in Dx.terms.items():
            out = out + TensorForm({(v, w[0], m): co})
    return out


def test_nabla_table_matches_whole_element_formula():
    rng = random.Random(50)
    inputs = [DB[i] for i in "-0+"] + [DEL["+"], DELBAR["-"]]
    for _ in range(12):
        tau = Form.zero()
        for _ in range(3):
            f = random_sphere_element(rng)
            tau = tau + (f * DB[rng.choice("-0+")]).scale(rng.choice(COEFFS))
        inputs.append(tau)
    for tau in inputs:
        want = reference_nabla(tau)
        got = nabla(tau)
        assert got == want
        # every result is built afresh: mutating one leaves the next intact
        assert got.terms
        got.terms.clear()
        assert nabla(tau) == want


def test_nabla_rejects_bad_input():
    with pytest.raises(ValueError):
        nabla(Form.of(a, "+"))  # wrong coefficient degree
    with pytest.raises(ValueError):
        nabla(Form.of(one, "0"))
    with pytest.raises(ValueError):
        nabla(Form.of(one))  # a function, not a one-form


def test_nabla_leibniz():
    rng = random.Random(51)
    samples = [
        (random_sphere_element(rng), DB[rng.choice("+-0")]) for _ in range(25)
    ]
    for f, tau in samples:
        assert nabla(f * tau) == tensor(d(f), tau) + f * nabla(tau)


def test_torsion_vanishes():
    rng = random.Random(52)
    for i in "-0+":
        assert torsion(DB[i]) == 0
        assert torsion(DEL[i]) == 0
        assert torsion(DELBAR[i]) == 0
    for _ in range(50):
        f = random_sphere_element(rng)
        assert torsion(f * DB[rng.choice("+-0")]) == 0


def test_cotorsion_vanishes():
    # the (nabla wedge id) half is dd(b_i) (x) db_j, zero with the torsion
    for i in "-0+":
        assert nabla(DB[i]).wedge_in() == 0
    assert cotorsion() == 0


def test_projector():
    assert projector_checks() == []
    col, row = riemann.E_COL, riemann.E_ROW
    dot = row[0] * col[0] + row[1] * col[1] + row[2] * col[2]
    assert dot == one
    # (1 - E) applied to the column of differentials reproduces them
    db = (DB["-"], DB["0"], DB["+"])
    M = [[col[i] * row[j] for j in range(3)] for i in range(3)]
    for i in range(3):
        recomb = db[i] - sum((M[i][k] * db[k] for k in range(3)), Form.zero())
        assert recomb == db[i]


def test_decompose_legs_recombines():
    for tau in (DB["-"], DB["0"], DB["+"], DEL["+"], DELBAR["-"]):
        nt = nabla(tau)
        back = TensorForm()
        for omega, eta in decompose_legs(nt):
            back = back + tensor(omega, eta)
        assert back == nt


def test_riemann_is_area_times_chirality_scalar():
    up = upsilon()
    for i in "-0+":
        assert riemann_tensor(DELBAR[i]) == tensor(up, DELBAR[i]).scale(two_q)
        assert riemann_tensor(DEL[i]) == tensor(up, DEL[i]).scale(
            -(q(4) * two_q)
        )
        # mixed chirality input passes the internal verification too
        riemann_tensor(DB[i])
    assert two_q.specialize(Fraction(1)) == 2
    assert (-(q(4) * two_q)).specialize(Fraction(1)) == -2


def test_riemann_left_module():
    rng = random.Random(53)
    for _ in range(10):
        f = random_sphere_element(rng)
        tau = DB[rng.choice("+-0")]
        assert riemann_tensor(f * tau) == f * riemann_tensor(tau)


def test_ricci_einstein_lift():
    g = metric_g()
    assert ricci(einstein_lift()) == g.scale(2 * q(-1) / (1 + q(-4)))


def test_ricci_geometric_lift():
    g = metric_g()
    lift = geometric_lift()
    r = ricci(lift)
    assert r == g_plus_minus().scale(q(-1)) + g_minus_plus().scale(q(3))
    assert r == g.scale(q(-1) * (1 + q(4)) / 2) + lift.scale(two_q * (1 - q(4)) / 2)


def test_every_tensor_key_is_a_word_and_one_charged_leg(monkeypatch):
    # the library builds its tensors through _wrap, which skips the key check
    # of the TensorForm constructor
    g = metric_g()
    tensors = [g, g_plus_minus(), g_minus_plus(), einstein_lift(), geometric_lift()]
    tensors += [nabla(table[i]) for table in (DB, DEL, DELBAR) for i in "-0+"]
    tensors += [riemann_tensor(DEL["+"]), star_second_leg(g)]
    # the cotorsion vanishes on the metric; doubling one term of the
    # presentation leaves terms whose keys can be read
    (co, i, j), *rest = riemann.G_PRESENTATION
    monkeypatch.setattr(riemann, "G_PRESENTATION", ((2 * co, i, j), *rest))
    tensors.append(cotorsion())
    for tf in tensors:
        assert tf.terms
        for w, leg, m in tf.terms:
            assert type(w) is ExteriorWord and leg in ("+", "-") and type(m) is Monomial


def test_ricci_classical_limit():
    g = metric_g()
    for lift in (einstein_lift(), geometric_lift()):
        diff = ricci(lift) - g
        assert diff and vanishes_at_one(diff)


def test_ricci_linearity_and_guards():
    g = metric_g()
    c = q(3)
    lift = geometric_lift()
    assert ricci(lift + g.scale(c)) == ricci(lift) + ricci(g).scale(c)
    with pytest.raises(ValueError):
        ricci(TensorForm({((), "+", Monomial(0, 0, 0, 0)): ONE}))  # charge does not cancel


def test_connection_wrapper():
    custom = Connection1(nabla)
    assert custom(DB["0"]) == nabla(DB["0"])


# One fault injected into the data behind each check body: the check must
# report it (a failure list entry, a nonzero tensor or a raise).


def test_projector_fault_is_reported(monkeypatch):
    col = riemann.E_COL
    monkeypatch.setattr(riemann, "E_COL", (col[0].scale(2),) + col[1:])
    names = [name for name, _ in projector_checks()]
    assert "rowcol" in names
    assert "EE-00" in names


def test_cotorsion_fault_is_reported(monkeypatch):
    (co, i, j), *rest = riemann.G_PRESENTATION
    monkeypatch.setattr(riemann, "G_PRESENTATION", ((2 * co, i, j), *rest))
    assert cotorsion() != 0


def test_riemann_splitter_fault_raises(monkeypatch):
    real = riemann.basic_pairs
    monkeypatch.setattr(riemann, "basic_pairs", lambda h, n: real(h, n)[1:])
    with pytest.raises(RuntimeError, match="chirality scalar"):
        riemann_tensor(DB["+"])
