import random
from fractions import Fraction

import pytest

from qsphere import spin
from qsphere.algebra import a, b, c, d
from qsphere.bundles import basic_pairs, covariant_D, projector
from qsphere.calculus import EP, Form, d as dd
from qsphere.riemann import nabla
from qsphere.scalars import ONE, Scalar, qint, two_q
from qsphere.sphere import DB, DEL, F0, _matmul, b0, bm, bp, del_split, one
from qsphere.sphere import _random_sphere_word as random_sphere_element
from qsphere.spin import (
    GENERATOR_SPINORS,
    LAMBDA,
    LAMBDA_INV,
    canonical_coefficients,
    dirac,
    dirac_commutator_check,
    dirac_first_order_check,
    dirac_square_check,
    gamma,
    gamma_algebra_check,
    gamma_gamma,
    row_to_spinor,
    spinor_parts,
    spinor_to_row,
    transported_dirac,
    trivialisation_checks,
)

q = Scalar.q_power


# non-unit coefficients, among them a true rational function and odd powers of s
COEFFS = (Scalar.from_int(-2), q(3), LAMBDA, LAMBDA_INV * q(1), ONE / (ONE + q(-4)), q(-1) / two_q)


def reference_dirac(sigma):
    """The whole-element formula that the dirac table applies per monomial."""
    out = one.zero()
    for part, n in zip(spinor_parts(sigma), (1, -1)):
        D = dd(part) - Form.of(part.scale(qint(n, q(2))), "0")
        for omega, y in basic_pairs(D, n):
            out = out + gamma(omega, y)
    return out


def rnd_spinor(rng):
    out = one.zero()
    for _ in range(4):
        f = random_sphere_element(rng)
        out = out + (f * rng.choice(GENERATOR_SPINORS)).scale(rng.choice(COEFFS))
    return out


def test_dirac_table_matches_whole_element_formula():
    rng = random.Random(60)
    for sigma in list(GENERATOR_SPINORS) + [rnd_spinor(rng) for _ in range(12)]:
        want = reference_dirac(sigma)
        got = dirac(sigma)
        assert got == want
        # every result is built afresh: mutating one leaves the next intact
        got.terms.clear()
        assert dirac(sigma) == want


def test_check_functions_all_pass():
    assert gamma_algebra_check() == []
    assert dirac_first_order_check() == []
    assert dirac_square_check() == []
    assert dirac_commutator_check() == []
    assert trivialisation_checks() == []


def test_spinor_types_validate():
    # a spinor is an element whose monomials have degree +1 (S-) or -1 (S+)
    assert spinor_parts(a + q(1) * d) == (a, q(1) * d)
    assert spinor_parts(one.zero()) == (0, 0)
    for bad in (one, a * a, a + one):
        with pytest.raises(ValueError):
            spinor_parts(bad)
        with pytest.raises(ValueError):
            dirac(bad)
        with pytest.raises(ValueError):
            gamma(DB["+"], bad)
        with pytest.raises(ValueError):
            spinor_to_row(bad)
    # the coefficient of e+ must have degree -2 whatever the spinor
    with pytest.raises(ValueError):
        gamma(Form.of(a, EP), a)
    # a row is a plain pair of sphere elements
    with pytest.raises(ValueError, match="row entries must be sphere elements"):
        row_to_spinor((a, one))
    row = (bp, b0 * b0)
    sig = row_to_spinor(row)
    back = spinor_to_row(sig)
    assert type(back) is tuple and back == row and back != (b0 * b0, bp)
    with pytest.raises(ValueError):
        gamma(Form.of(one, "0"), GENERATOR_SPINORS[0])
    with pytest.raises(ValueError):
        gamma(Form.of(b0), GENERATOR_SPINORS[0])


def test_dirac_on_generators():
    assert dirac(a) == b
    assert dirac(c) == d
    assert dirac(b) == q(1) * a
    assert dirac(d) == q(1) * c
    # the monopole derivative pieces behind the first two values
    Da = covariant_D(a)
    Dc = covariant_D(c)
    assert Da == Form.of(q(1) * b, "+")
    assert Da == (DEL["0"] * a).scale(q(-1)) - (DEL["-"] * c).scale(q(1))
    assert Dc == Form.of(q(1) * d, "+")
    assert Dc == DEL["+"] * a - (DEL["0"] * c).scale(q(1))


def test_dirac_eigen_spinors():
    for sign in (1, -1):
        ev = LAMBDA_INV * sign
        for m0, p0 in ((a, b), (c, d)):
            sig = m0.scale(ev) + p0
            assert dirac(sig) == sig.scale(ev)
        assert ev.specialize(Fraction(1)) == sign


def test_z2_grading():
    rng = random.Random(61)
    for _ in range(8):
        f = random_sphere_element(rng)
        minus, plus = spinor_parts(dirac(f * rng.choice([a, c])))
        assert not minus and plus
        minus, plus = spinor_parts(dirac(f * rng.choice([b, d])))
        assert not plus and minus


def test_dirac_leibniz():
    rng = random.Random(62)
    for _ in range(10):
        f = random_sphere_element(rng)
        holo, antiholo = del_split(f)
        for sigma in GENERATOR_SPINORS[:2]:
            assert dirac(f * sigma) == f * dirac(sigma) + gamma(holo, sigma)
        for sigma in GENERATOR_SPINORS[2:]:
            assert dirac(f * sigma) == f * dirac(sigma) + gamma(antiholo, sigma)


def test_dirac_commutator():
    rng = random.Random(63)
    for _ in range(10):
        f = random_sphere_element(rng)
        for sigma in GENERATOR_SPINORS:
            assert dirac(f * sigma) - f * dirac(sigma) == gamma(dd(f), sigma)


def test_dirac_general_square():
    rng = random.Random(64)
    for f in [one, F0, bm, b0, bp] + [random_sphere_element(rng) for _ in range(5)]:
        fm, f0, fp = canonical_coefficients(f)
        fib = fm * bm + f0 * b0 + fp * bp
        holo = del_split(f)[0]
        got_a = dirac(dirac(f * a))
        want_a = (q(1) * (f * a) + q(-1) * (fib * a) - q(-1) * (fp * c)
                  + gamma_gamma(nabla(holo), a))
        assert got_a == want_a
        got_c = dirac(dirac(f * c))
        want_c = (q(1) * (f * c) + q(-1) * (fib * c) + fm * a + f0 * c
                  + gamma_gamma(nabla(holo), c))
        assert got_c == want_c


def test_dirac_of_gamma_del():
    for i in "-0+":
        for sigma in (a, c):
            start = gamma(DEL[i], sigma)
            assert not spinor_parts(start)[0]
            want = (q(2) * two_q) * ({"-": bm, "0": b0, "+": bp}[i] * sigma)
            if i == "0":
                want = want + q(2) * sigma
            assert dirac(start) == want


def test_row_spinor_roundtrip():
    rng = random.Random(65)
    e = projector(-1)
    one_minus_e = tuple(
        tuple((one if i == j else one.zero()) - e[i][j] for j in range(2))
        for i in range(2)
    )
    for _ in range(8):
        row = (random_sphere_element(rng), random_sphere_element(rng))
        assert spinor_to_row(row_to_spinor(row)) == row
        f = random_sphere_element(rng)
        sig = f * rng.choice(GENERATOR_SPINORS)
        assert row_to_spinor(spinor_to_row(sig)) == sig
        # chirality summands land in the matching idempotent summand
        minus_row = spinor_to_row(f * rng.choice([a, c]))
        assert not any(_matmul([minus_row], e)[0])
        plus_row = spinor_to_row(f * rng.choice([b, d]))
        assert not any(_matmul([plus_row], one_minus_e)[0])


def test_transported_coefficient_independence():
    rng = random.Random(66)
    null_row = (-bp, F0, -(q(2) * bm))
    assert sum((x * DB[i] for x, i in zip(null_row, "-0+")), Form.zero()) == 0

    def shifted(f):
        h = random_sphere_element(rng)
        base = canonical_coefficients(f)
        return tuple(x + h * y for x, y in zip(base, null_row))

    for t in range(10):
        row = (random_sphere_element(rng), random_sphere_element(rng))
        assert transported_dirac(row, coeffs=shifted) == transported_dirac(row)


def skew_projector(monkeypatch, charge):
    """Make spin read a projector(charge) whose 00 entry is doubled."""
    real = spin.projector

    def skewed(n):
        x = [list(r) for r in real(n)]
        if n == charge:
            x[0][0] = x[0][0].scale(2)
        return x

    monkeypatch.setattr(spin, "projector", skewed)


def test_trivialisation_fault_is_reported(monkeypatch):
    skew_projector(monkeypatch, -1)
    names = [name for name, _ in trivialisation_checks()]
    assert "triv-idem-00" in names


def test_skewed_complement_breaks_the_sum(monkeypatch):
    # 1 - e is built as projector(1), not from e, so a skew in it alone must
    # break the sum e + (1 - e) = 1
    skew_projector(monkeypatch, 1)
    names = [name for name, _ in trivialisation_checks()]
    assert "triv-sum-00" in names and "triv-idem-00" not in names


def test_trivialisation_honours_seed_and_sample(monkeypatch):
    from qsphere.cli import run_suite

    calls = []
    monkeypatch.setattr(spin, "trivialisation_checks", lambda **kw: calls.append(kw) or [])
    run_suite("dirac")
    run_suite("dirac", seed=5, sample=3)
    assert calls == [{"sample_size": 10, "seed": 7}, {"sample_size": 3, "seed": 12}]
    assert trivialisation_checks(sample_size=3, seed=12) == []
