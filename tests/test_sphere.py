import random
from fractions import Fraction

import pytest

from qsphere import sphere
from qsphere.riemann import einstein_lift, geometric_lift
from qsphere.algebra import AlgebraElement, TensorSquare, a, b, c, d
from qsphere.calculus import EM, EP, VOL, Form, TensorForm, d as dd, tensor, wedge
from qsphere.scalars import Scalar, mu, two_q
from qsphere.sphere import (
    DB,
    DEL,
    DELBAR,
    F0,
    GENS,
    _random_sphere_word as random_sphere_element,
    b0,
    bm,
    bp,
    check_sphere_form,
    del_split,
    eigenvalue_on,
    g_minus_plus,
    g_plus_minus,
    hodge_star,
    laplacian,
    lift_iY,
    maxwell_check,
    metric_g,
    one,
    one_form_relation_check,
    proportionality,
    soldering_check,
    sphere_relations_check,
    spin_multiplet,
    star_second_leg,
    upsilon,
    wedge_tables_check,
)

q = Scalar.q_power


def test_check_functions_all_pass():
    assert sphere_relations_check() == []
    assert soldering_check() == []
    assert one_form_relation_check() == []
    assert wedge_tables_check() == []


def test_types_validate():
    check_sphere_form(Form.of(b0 * bp))  # a function on the sphere
    with pytest.raises(ValueError):
        check_sphere_form(Form.of(a))  # degree 1 is not a function on the sphere
    check_sphere_form(DB["+"])
    check_sphere_form(upsilon())
    with pytest.raises(ValueError):
        check_sphere_form(Form.of(one, "0"))  # vertical direction
    with pytest.raises(ValueError):
        check_sphere_form(Form.of(a * a, "+"))  # wrong coefficient degree


def test_del_split_values():
    assert DEL["-"] == Form.of(b * b, "+")
    assert DEL["0"] == Form.of(q(1) * (b * d), "+")
    assert DEL["+"] == Form.of(d * d, "+")
    assert DELBAR["-"] == Form.of(a * a, "-")
    assert DELBAR["0"] == Form.of(q(1) * (a * c), "-")
    assert DELBAR["+"] == Form.of(c * c, "-")
    for i in GENS:
        assert DEL[i] + DELBAR[i] == DB[i]


def test_del_in_terms_of_d():
    # each chiral derivative is a combination of the one-forms db_i
    db0, dbp, dbm = DB["0"], DB["+"], DB["-"]
    assert DEL["-"] == q(1) * (bm * db0) - q(-1) * (b0 * dbm)
    assert DEL["+"] == (one + q(1) * b0) * dbp - q(-1) * (bp * db0)
    assert DEL["0"] == q(2) * (bm * dbp) - q(-1) * (b0 * db0)
    assert DELBAR["0"] == bp * dbm - q(1) * (b0 * db0)
    assert DELBAR["-"] == (one + q(-1) * b0) * dbm - q(1) * (bm * db0)
    assert DELBAR["+"] == q(-1) * (bp * db0) - q(1) * (b0 * dbp)


def test_chiral_commutation_table():
    # moving a generator across a chiral one-form
    cases = [
        (DEL["-"] * bp, q(-2) * (bp * DEL["-"])),
        (DEL["-"] * bm, q(2) * (bm * DEL["-"])),
        (DEL["-"] * b0, b0 * DEL["-"]),
        (DEL["+"] * bp, q(2) * (bp * DEL["+"])),
        (DEL["+"] * bm, q(2) * (bm * DEL["+"]) + mu * (bp * DEL["-"])),
        (DEL["+"] * b0, q(4) * (b0 * DEL["+"])),
        (DELBAR["-"] * bp, q(-2) * (bp * DELBAR["-"]) - mu * (bm * DELBAR["+"])),
        (DELBAR["-"] * bm, q(-2) * (bm * DELBAR["-"])),
        (DELBAR["-"] * b0, q(-4) * (b0 * DELBAR["-"])),
        (DELBAR["+"] * bp, q(-2) * (bp * DELBAR["+"])),
        (DELBAR["+"] * bm, q(2) * (bm * DELBAR["+"])),
        (DELBAR["+"] * b0, b0 * DELBAR["+"]),
        (DEL["0"] * bp, bp * DEL["0"]),
        (DEL["0"] * bm, q(4) * (bm * DEL["0"]) + (q(1) - q(3)) * DEL["-"]),
        (DEL["0"] * b0, q(2) * (b0 * DEL["0"])),
        (DELBAR["0"] * bp, q(-4) * (bp * DELBAR["0"]) + (q(-1) - q(-3)) * DELBAR["+"]),
        (DELBAR["0"] * bm, bm * DELBAR["0"]),
        (DELBAR["0"] * b0, q(-2) * (b0 * DELBAR["0"])),
    ]
    for lhs, rhs in cases:
        assert lhs == rhs


def test_chiral_collapse_identities():
    # the middle chiral derivative in terms of the others, and the
    # quadratic collapse relations
    assert DEL["0"] == q(2) * (bm * DEL["+"]) - q(-2) * (bp * DEL["-"])
    assert DELBAR["0"] == bp * DELBAR["-"] - q(4) * (bm * DELBAR["+"])
    assert bp * DEL["-"] == q(1) * (b0 * DEL["0"])
    assert bm * DEL["+"] == q(-2) * ((one + q(-1) * b0) * DEL["0"])
    assert bm * DELBAR["+"] == q(-3) * (b0 * DELBAR["0"])
    assert bp * DELBAR["-"] == (one + q(1) * b0) * DELBAR["0"]
    assert bp * DEL["0"] == q(2) * (b0 * DEL["+"])
    assert bm * DEL["0"] == q(-1) * ((one + q(-1) * b0) * DEL["-"])
    assert bm * DELBAR["0"] == q(-2) * (b0 * DELBAR["-"])
    assert bp * DELBAR["0"] == q(1) * ((one + q(1) * b0) * DELBAR["+"])
    assert (b0 * bm) * DEL["+"] == q(-3) * (((one + q(-1) * b0) * bp) * DEL["-"])
    assert (b0 * bp) * DELBAR["-"] == q(3) * (((one + q(1) * b0) * bm) * DELBAR["+"])
    assert (bm * bm) * DELBAR["+"] == q(-7) * ((b0 * b0) * DELBAR["-"])
    assert (bp * bp) * DELBAR["-"] == (
        ((one + q(3) * b0) * (one + q(1) * b0)) * DELBAR["+"]
    ).scale(q(1))


def test_second_order_exactness():
    # d of either chiral part is a pure area-form multiple, and the two
    # add to zero (nilpotence and anticommutation downstairs)
    rng = random.Random(41)
    samples = [bm, b0, bp, F0] + [random_sphere_element(rng) for _ in range(50)]
    for f in samples:
        delf, dbarf = del_split(f)
        dp, dm = dd(delf), dd(dbarf)
        assert dp.by_word().keys() <= {VOL}
        assert dm.by_word().keys() <= {VOL}
        assert dp + dm == 0


def test_chiral_leibniz():
    rng = random.Random(42)
    for _ in range(25):
        f = random_sphere_element(rng)
        g = random_sphere_element(rng)
        delf, dbarf = del_split(f)
        delg, dbarg = del_split(g)
        delfg, dbarfg = del_split(f * g)
        assert delfg == delf * g + f * delg
        assert dbarfg == dbarf * g + f * dbarg


def test_two_form_derivative_identities():
    # d of each chiral derivative against the db wedge table
    db0, dbp, dbm = DB["0"], DB["+"], DB["-"]
    assert dd(DEL["+"]) == wedge(db0, dbp).scale(q(1)) - wedge(dbp, db0).scale(q(-1))
    assert dd(DEL["-"]) == wedge(dbm, db0).scale(q(1)) - wedge(db0, dbm).scale(q(-1))
    assert dd(DEL["0"]) == wedge(dbm, dbp).scale(q(2)) - wedge(db0, db0).scale(q(-1))


def test_metric():
    g = metric_g()
    assert g.is_basic()
    assert {(w, leg) for w, leg, _ in g.terms} == {(EP, "-"), (EM, "+")}
    assert g == g_plus_minus() + g_minus_plus()
    assert g.wedge_in() == 0
    # the chiral halves wedge to opposite multiples of the area form
    assert g_plus_minus().wedge_in() == upsilon().scale(q(2))
    assert g_minus_plus().wedge_in() == upsilon().scale(-q(2))


def test_sphere_form_check_names_the_first_bad_word_in_printer_order():
    # star(a*ep + b*em + (c*ep - a*ep)) is star(c*ep + b*em), built in the
    # other order: a*ep cancels, and c*ep comes back after b*em
    x = Form.of(a, EP) + Form.of(b, EM) + (Form.of(c, EP) - Form.of(a, EP))
    y = Form.of(c, EP) + Form.of(b, EM)
    assert x == y and list(x.by_word()) == [EM, EP] and list(y.by_word()) == [EP, EM]
    for f in (x, y):
        with pytest.raises(ValueError, match="^coefficient of em must have degree 2$"):
            hodge_star(f)
    # the 0-form part comes first, and e0 before the charged words
    for f in (Form.of(b, VOL) + Form.of(a), Form.of(a) + Form.of(b, VOL)):
        with pytest.raises(ValueError, match="^the 0-form part must have degree 0$"):
            hodge_star(f)
    for f in (Form.of(a * a, EP) + Form.of(one, "0"), Form.of(one, "0") + Form.of(a * a, EP)):
        with pytest.raises(ValueError, match="e0 present"):
            hodge_star(f)


def test_hodge_star():
    f1 = Form.of(one)
    assert hodge_star(f1) == upsilon()
    assert hodge_star(upsilon()) == f1
    rng = random.Random(43)
    for _ in range(20):
        f = random_sphere_element(rng)
        delf, dbarf = del_split(f)
        assert hodge_star(delf) == delf
        assert hodge_star(dbarf) == -dbarf
        x = delf + dbarf + Form.of(f) + f * upsilon()
        assert hodge_star(hodge_star(x)) == x
    # the star builds its own terms: clearing them, or a coefficient read off
    # them, leaves the input intact
    before, star = repr(x), hodge_star(x)
    star.coefficient(VOL).terms.clear()
    star.terms.clear()
    assert x and repr(x) == before
    with pytest.raises(ValueError):
        hodge_star(Form.of(one, "0"))
    # a word of the sphere whose coefficient has the wrong degree
    with pytest.raises(ValueError, match="must have degree -2"):
        hodge_star(Form.of(a * a, "+"))


def test_hodge_star_bimodule():
    rng = random.Random(44)
    for _ in range(15):
        f = random_sphere_element(rng, 2)
        h = random_sphere_element(rng, 2)
        x = DB[rng.choice("+-0")]
        assert hodge_star(f * (x * h)) == f * (hodge_star(x) * h)


def test_lift_family():
    for alpha in (q(-2) / 2, q(-2) / (1 + q(-4)), Scalar.from_int(0), q(3)):
        lift = lift_iY(alpha)
        assert lift.wedge_in() == upsilon()
        assert lift.is_basic()
    # the symmetric member is the difference of the chiral halves of the
    # metric, normalized by q^-2/2
    sym = lift_iY(q(-2) / 2)
    assert sym == (g_plus_minus() - g_minus_plus()).scale(q(-2) / 2)
    assert star_second_leg(metric_g()) == g_minus_plus() - g_plus_minus()


def test_laplacian_values():
    assert laplacian(bp) == bp.scale(q(2) * two_q)
    assert laplacian(bm) == bm.scale(q(2) * two_q)
    assert laplacian(F0) == F0.scale(q(2) * two_q)
    assert laplacian(one) == AlgebraElement.zero()
    # the affine shift on b0 alone
    assert laplacian(b0) == b0.scale(q(2) * two_q) + one.scale(q(2))


def reference_laplacian(f):
    """The Laplacian of a whole element by both routes, as laplacian
    computed it before the per-monomial table."""
    _, dbarf = del_split(f)
    two_form = dd(dbarf)
    assert two_form.by_word().keys() <= {VOL}
    h = two_form.coefficient(VOL)
    assert dd(hodge_star(dd(f))).scale(Scalar.from_int(-1) / 2) == Form.of(h, VOL)
    return h


def test_laplacian_table_matches_the_whole_element_routes():
    rng = random.Random(45)
    coeffs = (Scalar.from_int(1), Scalar.from_int(-2), q(3), 1 / (1 + q(-4)))
    inputs = [AlgebraElement.zero(), one, bp]
    for _ in range(25):
        x = AlgebraElement.zero()
        for _ in range(rng.randint(1, 3)):
            x = x + random_sphere_element(rng).scale(rng.choice(coeffs))
        inputs.append(x)
    for x in inputs:
        want = reference_laplacian(x)
        got = laplacian(x)
        assert got == want
        # every result is built afresh: mutating one leaves the next intact
        got.terms.clear()
        assert laplacian(x) == want
    # a non-sphere element is refused before its e0 part can reach the table
    for bad in (a, b0 + a):
        with pytest.raises(ValueError, match="laplacian\\(\\) needs a sphere element"):
            laplacian(bad)
        with pytest.raises(ValueError, match="del_split\\(\\) needs a sphere element"):
            del_split(bad)
        with pytest.raises(ValueError, match="needs a sphere element"):
            eigenvalue_on([bad])


def uncached_metric_builds():
    """The five metric tensors built from their formulas, without the table."""
    g = sphere._metric_sum()
    sg = star_second_leg(g)
    ratio = (1 - q(-4)) / (1 + q(-4))
    return {
        metric_g: g,
        g_plus_minus: sphere._metric_over(DEL, DELBAR),
        g_minus_plus: sphere._metric_over(DELBAR, DEL),
        einstein_lift: (-sg + g.scale(ratio)).scale(q(-1) / two_q),
        geometric_lift: sg.scale(-(q(-1) / two_q)),
    }


def test_metric_table_matches_uncached_builds():
    for fn, want in uncached_metric_builds().items():
        got = fn()
        assert got == want
        # every result is built afresh: clearing it leaves the next call intact
        assert got.terms
        got.terms.clear()
        assert fn() == want


def test_spin_multiplets():
    v1 = spin_multiplet(1)
    assert v1 == [bm, F0, bp]
    assert eigenvalue_on(v1) == q(2) * two_q
    three_q = q(2) + 1 + q(-2)
    v2 = spin_multiplet(2)
    lam2 = eigenvalue_on(v2)
    assert lam2 == q(2) * two_q * three_q
    assert lam2.specialize(Fraction(1)) == 6
    assert eigenvalue_on(v1).specialize(Fraction(1)) == 2
    assert eigenvalue_on(spin_multiplet(0)) == 0


def test_maxwell():
    for i in "-0+":
        report = maxwell_check(i)
        assert report["coulomb"]
        assert report["massive"]
        assert report["mass_squared"] == q(2) * two_q / 2
    with pytest.raises(ValueError):
        maxwell_check("x")


def test_proportionality_helper():
    assert proportionality(DB["+"].scale(q(5)), DB["+"]) == q(5)
    assert proportionality(DB["+"], DB["-"]) is None
    # 0 = 0 . y, so the zero form has ratio zero; y = 0 gives no ratio
    assert proportionality(Form.zero(), DB["+"]) == 0
    assert proportionality(DB["+"], Form.zero()) is None
    # one helper serves every kind: flat elements and nested tensors too
    assert proportionality(b0.scale(q(3)), b0) == q(3)
    assert proportionality(b0 + one, b0) is None
    assert proportionality(metric_g().scale(two_q), metric_g()) == two_q


# Each library guard raises ArithmeticError when its identity fails, so it
# still fires under python -O; each test below injects one fault.


@pytest.mark.parametrize("fault, message", [
    (lambda g: g + tensor(DB["+"], DB["-"]), "not q-symmetric"),
    (lambda g: a * g, "does not descend"),
    (lambda g: g + b ** 4 * tensor(Form.of(one, EP), Form.of(one, EP)), "chiral components"),
], ids=["symmetry", "basic", "chiral"])
def test_metric_guards_raise(monkeypatch, fresh_tables, fault, message):
    # the guards run when _metric_table is built, so it is emptied around
    # the fault
    real = sphere._metric_sum
    monkeypatch.setattr(sphere, "_metric_sum", lambda: fault(real()))
    with pytest.raises(ArithmeticError, match=message):
        metric_g()


def test_metric_invariance_guard_raises(monkeypatch, fresh_tables):
    real = sphere.metric_matrix

    def skewed():
        G = real()
        G[1][1] = G[1][1].scale(2)
        return G

    monkeypatch.setattr(sphere, "metric_matrix", skewed)
    with pytest.raises(ArithmeticError, match="not invariant"):
        metric_g()


def test_lift_guard_raises(monkeypatch):
    monkeypatch.setattr(sphere, "_ALPHA_GEOMETRIC", q(-2) / 3)
    with pytest.raises(ArithmeticError, match="area form"):
        lift_iY(q(-2) / 2)


def test_laplacian_guard_raises(monkeypatch, fresh_tables):
    # the routes are compared when a monomial enters _lap_mono, so the
    # table is emptied around the fault
    real = sphere.hodge_star
    monkeypatch.setattr(sphere, "hodge_star", lambda x: real(x).scale(2))
    with pytest.raises(ArithmeticError, match="routes disagree"):
        laplacian(bp)


@pytest.mark.parametrize("fault, message", [
    (lambda t: TensorSquare._wrap(dict(list(t.terms.items())[:1])), "members"),
    (lambda t: t * TensorSquare.of(one, a), "leaves the sphere"),
], ids=["count", "degree"])
def test_spin_multiplet_guards_raise(monkeypatch, fault, message):
    real = sphere.coproduct
    monkeypatch.setattr(sphere, "coproduct", lambda x: fault(real(x)))
    with pytest.raises(ArithmeticError, match=message):
        spin_multiplet(1)


def test_eigenvalue_guards_raise():
    with pytest.raises(ArithmeticError, match="not an exact eigenvector"):
        eigenvalue_on([b0])
    with pytest.raises(ArithmeticError, match="not uniform"):
        eigenvalue_on([bp, bp * bp])
    with pytest.raises(ValueError, match="empty span"):
        eigenvalue_on([])
    with pytest.raises(ValueError, match="zero vector"):
        eigenvalue_on([AlgebraElement()])
    with pytest.raises(ValueError, match="zero vector"):
        eigenvalue_on([bp, AlgebraElement()])


def test_sphere_word_draws_match_the_product_loop():
    def old_draw(rng, maxlen=3):
        x = one
        for _ in range(rng.randrange(1, maxlen + 1)):
            x = x * rng.choice((b0, bp, bm))
        return x

    for maxlen in (3, 2, 1):
        new, old = random.Random(7919 + maxlen), random.Random(7919 + maxlen)
        for _ in range(300):
            got = random_sphere_element(new, maxlen)
            assert got == old_draw(old, maxlen)
            got.terms.clear()  # a copy: the next equal draw is intact
        assert new.getstate() == old.getstate()
    assert sphere._sphere_word.cache_info().currsize <= 3 + 9 + 27
