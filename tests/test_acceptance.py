"""The acceptance gate: one test per suite-level guarantee, all exact.

Every assertion is an identity of canonical forms, zero tolerance.  The
sampled checks are seeded, so a pass here is reproducible bit for bit.
"""

import random
import time
from fractions import Fraction

from qsphere.algebra import AlgebraElement, a, b, c, normalize, verify_hopf_axioms
from qsphere.algebra import d as gd
from qsphere.bundles import bwb_check
from qsphere.calculus import (
    E0,
    EM,
    EP,
    VOL,
    Form,
    d as dd,
    monopole_curvature,
    monopole_omega,
    omega_recursion_check,
    tensor,
    wedge,
)
from qsphere.cli import (
    CliSyntaxError,
    evaluate_text,
    format_report,
    parse,
    render_value,
    run_suite,
)
from qsphere.riemann import (
    cotorsion,
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
    _matmul,
    b0,
    bm,
    bp,
    coaction_matrix,
    eigenvalue_on,
    hodge_star,
    laplacian,
    lift_iY,
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
from qsphere.spin import (
    dirac,
    dirac_commutator_check,
    dirac_first_order_check,
    dirac_square_check,
    gamma_algebra_check,
    trivialisation_checks,
)

q = Scalar.q_power
GENERATORS = {"a": a, "b": b, "c": c, "d": gd}


def random_sphere_element(rng, maxlen=3):
    x = one
    for _ in range(rng.randrange(maxlen + 1)):
        x = x * rng.choice((bm, b0, bp))
    return x


def test_hopf_axioms_and_confluence():
    # antipode/counit axioms and coassociativity: generators + 100 words
    assert verify_hopf_axioms(sample_size=100, seed=42)
    # dual-strategy confluence of the straightening rewrite on 200 words
    rng = random.Random(7)
    for _ in range(200):
        word = [rng.choice("abcd") for _ in range(rng.randrange(7))]
        assert normalize(word, "left") == normalize(word, "right")


def test_first_order_calculus_and_monopole():
    basis = {w: Form.of(one, w) for w in (E0, EP, EM)}
    # commutation rules between the invariant one-forms and the generators
    for w, shift in ((E0, 2), (EP, 1), (EM, 1)):
        for g in GENERATORS.values():
            k = next(iter(g.terms)).degree()
            assert basis[w] * g == Form.of(g.scale(q(shift * k)), w)
    # the four generator derivatives
    assert dd(a) == Form.of(a, E0) + Form.of(b.scale(q(1)), EP)
    assert dd(b) == Form.of(a, EM) + Form.of(-(q(-2)) * b, E0)
    assert dd(c) == Form.of(c, E0) + Form.of(gd.scale(q(1)), EP)
    assert dd(gd) == Form.of(c, EM) + Form.of(-(q(-2)) * gd, E0)
    # d squared kills 100 random words
    rng = random.Random(8)
    for _ in range(100):
        x = one
        for _ in range(rng.randrange(7)):
            x = x * GENERATORS[rng.choice("abcd")]
        assert dd(dd(x)) == Form.zero()
    # exterior-algebra relations
    e0, ep, em = basis[E0], basis[EP], basis[EM]
    assert wedge(ep, ep) == 0 and wedge(em, em) == 0 and wedge(e0, e0) == 0
    assert wedge(em, ep) == -(wedge(ep, em).scale(q(2)))
    assert wedge(e0, ep) == -(wedge(ep, e0).scale(q(4)))
    assert wedge(e0, em) == -(wedge(em, e0).scale(q(-4)))
    # monopole connection values, re-derived through the coproduct route
    assert omega_recursion_check(6)
    q2 = q(2)
    for n in range(-6, 7):
        assert monopole_omega(n) == Form.of(one.scale(qint(n, q2)), E0)
        expected = Form.of(one.scale(q(3) * qint(n, q2)), VOL)
        assert monopole_curvature(n) == expected


def test_sphere_relation_tables():
    assert sphere_relations_check() == []
    # the derived relation among the db_i
    assert (bm * DB["+"]).scale(q(2)) + bp * DB["-"] == F0 * DB["0"]
    assert one_form_relation_check() == []
    assert soldering_check() == []
    # holomorphic/antiholomorphic wedge tables and the volume identities
    assert wedge_tables_check() == []


def test_metric_and_hodge_identities():
    g = metric_g()
    assert g.wedge_in() == Form.zero()
    assert g.terms
    for w, l in ((EP, "+"), (EM, "-")):
        # no ++ or -- components: no key opens with that (word, leg)
        assert all(key[:2] != (w, l) for key in g.terms)
    M, G = coaction_matrix(), metric_matrix()
    assert _matmul(tuple(zip(*M)), _matmul(G, M)) == G
    # the star squares to the identity on seeded mixed forms
    rng = random.Random(9)
    for _ in range(25):
        x = Form.of(random_sphere_element(rng))
        x = x + random_sphere_element(rng) * upsilon()
        for i in "-0+":
            x = x + random_sphere_element(rng) * DEL[i]
            x = x + random_sphere_element(rng) * DELBAR[i]
        assert hodge_star(hodge_star(x)) == x
    # three members of the area-form lift family wedge back to the area
    for alpha in (q(-2) / 2, q(-2) / (ONE + q(-4)), Scalar.from_int(0)):
        assert lift_iY(alpha).wedge_in() == upsilon()


def test_laplacian_values_and_multiplets():
    lam1 = q(2) * two_q
    assert F0 == one + two_q * b0
    assert laplacian(bm) == bm.scale(lam1)
    assert laplacian(bp) == bp.scale(lam1)
    assert laplacian(F0) == F0.scale(lam1)
    assert laplacian(one) == AlgebraElement.zero()
    # spin-1 and spin-2 multiplets close with a single eigenvalue each
    assert eigenvalue_on(spin_multiplet(1)) == lam1
    lam2 = eigenvalue_on(spin_multiplet(2))
    assert lam2 == lam1 * (q(2) + 1 + q(-2))
    assert lam2.specialize(Fraction(1)) == 6


def test_connection_torsion_free():
    g = metric_g()
    assert nabla(DB["-"]) == two_q * (bm * g)
    assert nabla(DB["0"]) == F0 * g
    assert nabla(DB["+"]) == two_q * (bp * g)
    rng = random.Random(10)
    for i in "-0+":
        assert torsion(DB[i]) == Form.zero()
    for _ in range(50):
        x = random_sphere_element(rng) * DB[rng.choice("-0+")]
        assert torsion(x) == Form.zero()
    assert not cotorsion()
    # idempotence and the two dot-product identities of the projector
    assert projector_checks() == []


def test_riemann_and_ricci():
    up = upsilon()
    for i in "-0+":
        assert riemann_tensor(DELBAR[i]) == tensor(up, DELBAR[i]).scale(two_q)
        assert riemann_tensor(DEL[i]) == tensor(up, DEL[i]).scale(
            -(q(4) * two_q)
        )
    g = metric_g()
    assert ricci(einstein_lift()) == g.scale(2 * q(-1) / (1 + q(-4)))
    lift = geometric_lift()
    assert ricci(lift) == g.scale(q(-1) * (1 + q(4)) / 2) + lift.scale(
        two_q * (1 - q(4)) / 2
    )
    # both recover Ricci = g in the classical limit
    s1 = Fraction(1)
    for choice in (einstein_lift(), geometric_lift()):
        diff = ricci(choice) - g
        assert diff and all(co.specialize(s1) == 0 for co in diff.terms.values())


def test_dirac_operator_identities():
    assert dirac(a) == b
    assert dirac(c) == gd
    assert dirac(b) == a.scale(q(1))
    assert dirac(gd) == c.scale(q(1))
    # composition table, anticommutators, and the diag(q^2, 1) square
    assert gamma_algebra_check() == []
    # the twelve first-order and twelve squared table entries
    assert dirac_first_order_check() == []
    assert dirac_square_check() == []
    # eigen-spinors with eigenvalues +-s (s^2 = q)
    for sign in (1, -1):
        ev = Scalar.s_power(1) * sign
        for m0, p0 in ((a, b), (c, gd)):
            sig = m0.scale(ev) + p0
            assert dirac(sig) == sig.scale(ev)
        assert ev.specialize(Fraction(1)) == sign
    assert dirac_commutator_check(sample_size=50, seed=7) == []
    # idempotent trivialisation and transported-operator agreement
    assert trivialisation_checks() == []


def test_holomorphic_section_families():
    start = time.monotonic()
    for n in range(7):
        assert bwb_check(n) == []
    assert time.monotonic() - start < 10.0


def test_cli_contract():
    assert render_value(evaluate_text("d(a)")) == "a*e0 + q*b*ep"
    relation = "q^2*bm*d(bp)+bp*d(bm)-(1+(q+q^-1)*b0)*d(b0)"
    assert render_value(evaluate_text(relation)) == "0"
    assert render_value(evaluate_text("lap(bp)")) == "q^2*(q+q^-1)*bp"
    try:
        parse("d(")
    except CliSyntaxError as err:
        assert err.position == 2 and err.expected
    else:
        raise AssertionError("unterminated call must not parse")
    report = run_suite("curvature")
    assert report == run_suite("curvature")  # byte-for-byte reproducible
    assert "Prop-riemann: pass" in format_report(report)


def test_full_suite_is_exact_and_fast():
    start = time.monotonic()
    report = run_suite("all")
    elapsed = time.monotonic() - start
    failures = [r for r in report["results"] if r["status"] != "pass"]
    assert failures == []
    assert elapsed < 120.0
