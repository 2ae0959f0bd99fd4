import itertools
import random

import pytest

from qsphere import calculus
from qsphere.algebra import (
    AlgebraElement,
    Monomial,
    a,
    b,
    c,
    coproduct,
    d as gd,
    degree_split,
    normalize,
    one,
)
from qsphere.calculus import (
    E0,
    EM,
    EP,
    SCALAR_WORD,
    VOL,
    ExteriorWord,
    Form,
    TensorForm,
    _d_mono,
    _d_word,
    _straighten_word,
    d,
    monopole_curvature,
    monopole_omega,
    omega_recursion_check,
    tensor,
    wedge,
)
from qsphere.scalars import ONE, Scalar, q, qint

q2 = Scalar.q_power
TOP = ExteriorWord("+-0")  # e+ ^ e- ^ e0, the top form upstairs
UNIT = Monomial(0, 0, 0, 0)


def rnd_word(rng, nmax=5):
    return tuple(rng.choice("abcd") for _ in range(rng.randint(1, nmax)))


def basis(word):
    return Form.of(one, word)


def test_word_validity():
    with pytest.raises(ValueError):
        ExteriorWord(("-", "+"))
    with pytest.raises(ValueError):
        ExteriorWord(("+", "+"))
    with pytest.raises(ValueError):
        ExteriorWord(("x",))
    assert ExteriorWord(TOP) is TOP
    assert TOP == ExteriorWord(("+", "-", "0"))
    assert EP.charge() == 2 and EM.charge() == -2 and E0.charge() == 0


def test_generator_derivatives():
    assert d(a) == Form.of(a, E0) + Form.of(q * b, EP)
    assert d(b) == Form.of(a, EM) + Form.of(-(q ** -2) * b, E0)
    assert d(c) == Form.of(c, E0) + Form.of(q * gd, EP)
    assert d(gd) == Form.of(c, EM) + Form.of(-(q ** -2) * gd, E0)


def test_commutation_rules():
    # e+- x = q^(deg x) x e+-,  e0 x = q^(2 deg x) x e0
    for x, deg in [(a, 1), (b, -1), (c, 1), (gd, -1)]:
        assert basis(EP) * x == Form.of(q2(deg) * x, EP)
        assert basis(EM) * x == Form.of(q2(deg) * x, EM)
        assert basis(E0) * x == Form.of(q2(2 * deg) * x, E0)
    # a coefficient crosses each letter of the word, left and right products agree
    assert basis(EP) * a == q * a * basis(EP) == Form.of(q * a, EP)
    assert basis(E0) * a == Form.of(q ** 2 * a, E0)
    assert basis(E0) * (b * gd) == Form.of(q ** -4 * (b * gd), E0)
    assert basis(VOL) * a == a * basis(VOL).scale(q ** 2) != basis(VOL) * b
    assert basis(TOP) * (a * a) == Form.of(q ** 8 * (a * a), TOP)


def test_exterior_relations():
    for w in (EP, EM, E0):
        assert wedge(basis(w), basis(w)) == 0
    assert q ** 2 * wedge(basis(EP), basis(EM)) + wedge(basis(EM), basis(EP)) == 0
    assert wedge(basis(E0), basis(EP)) + q ** 4 * wedge(basis(EP), basis(E0)) == 0
    assert wedge(basis(E0), basis(EM)) + q ** -4 * wedge(basis(EM), basis(E0)) == 0
    # canonical top form: e- ^ e+ ^ e0 = -q^2 e+ ^ e- ^ e0
    lhs = wedge(basis(EM), wedge(basis(EP), basis(E0)))
    assert lhs == Form.of(-(q ** 2) * one, TOP)


def test_d_of_basis_forms():
    assert d(basis(E0)) == Form.of(q2(3) * one, VOL)
    assert d(basis(EP)) == Form.of(-(q ** 2 + ONE) * one, "+0")
    assert d(basis(EM)) == Form.of((q ** -2 + q ** -4) * one, "-0")


def test_d_squared_zero():
    rng = random.Random(2024)
    for g in (a, b, c, gd):
        assert not d(d(g))
    for _ in range(60):
        x = normalize(rnd_word(rng))
        assert not d(d(x))
    # and on coefficiented one-forms
    for w in (EP, EM, E0):
        for _ in range(10):
            x = normalize(rnd_word(rng, 3))
            assert not d(d(Form.of(x, w)))


def rnd_element(rng):
    x = normalize(())
    for _ in range(rng.randint(1, 3)):
        co = Scalar.from_int(rng.choice((-2, -1, 1, 3))) * q2(rng.randint(-3, 3))
        x = x + normalize(rnd_word(rng, 4)).scale(co)
    return x


WORDS = [ExteriorWord(w) for n in range(4) for w in itertools.combinations("+-0", n)]


def test_combination_extend_and_copy():
    """Linear extension of a table, for an element and a form."""
    elements = {1: a + b, 2: b}
    forms = {1: Form.of(a + b, EP) + Form.of(c, EM), 2: Form.of(b, EP) + Form.of(c, EM)}
    for kind, table in ((AlgebraElement, elements), (Form, forms)):
        want = {k: v.copy() for k, v in table.items()}
        # b (and, for the form, the whole e- word) cancels: no key is left
        # behind, and no zero coefficient either
        got = kind.extend(table.get, [(1, ONE), (2, -ONE)])
        assert got == (a if kind is AlgebraElement else Form.of(a, EP))
        assert len(got.terms) == 1 and all(got.terms.values())
        # clearing a result, a copy or a coefficient read off a form leaves
        # the table intact
        got = kind.extend(table.get, [(1, ONE)])
        assert got == table[1] and got.terms is not table[1].terms
        got.terms.clear()
        assert table == want and table[1]
        copied = table[1].copy()
        assert copied == table[1] and copied.terms is not table[1].terms
        copied.terms.clear()
        assert table == want and table[1]
        if kind is Form:
            part = table[1].coefficient(EP)
            assert part == a + b
            part.terms.clear()
            assert table == want and table[1].coefficient(EP) == a + b
        # no pairs: the zero of the kind
        zero = kind.extend(table.get, ())
        assert type(zero) is kind and zero == kind.zero()


def test_d_matches_reference_sums():
    rng = random.Random(77)
    for _ in range(30):
        x = rnd_element(rng)
        expected = Form()
        for m, co in x.terms.items():
            expected = expected + _d_mono(m).scale(co)
        assert d(x) == expected
        f = sum((Form.of(rnd_element(rng), w) for w in rng.sample(WORDS, rng.randint(1, 4))),
                Form())
        expected = Form()
        for w, coeff in f.by_word().items():
            expected = expected + wedge(d(coeff), basis(w)) + coeff * _d_word(w)
        assert d(f) == expected
        assert not d(d(x)) and not d(d(f))


def reference_d_form(f):
    """d of a form term by term, as d computed it before the _d_basis table:
    each word of d(coeff) straightened against w, plus coeff . d(e^w)."""
    out = Form()
    for w, coeff in f.by_word().items():
        for w1, y in d(coeff).by_word().items():
            st = _straighten_word(w1 + w)
            if st is not None:
                out = out + Form.of(y.scale(st[1]), st[0])
        out = out + coeff * _d_word(w)
    return out


# among them a true rational function, which takes the general scalar path
FORM_COEFFS = (ONE, Scalar.from_int(-3), q2(3), ONE / (ONE + q2(-4)))


def test_d_basis_table_matches_the_term_formula():
    rng = random.Random(91)
    for n in range(4):
        for w in (ExteriorWord(x) for x in itertools.combinations("+-0", n)):
            for _ in range(4):
                x = rnd_element(rng).scale(rng.choice(FORM_COEFFS))
                f = Form.of(x, w)  # one word of length n
                closed = d(f)  # exact, so closed
                for form in (f, closed):
                    assert d(form) == reference_d_form(form)
                assert not d(closed)
    cleared = 0
    for _ in range(30):
        f = sum((
            Form.of(rnd_element(rng).scale(rng.choice(FORM_COEFFS)), w)
            for w in rng.sample(WORDS, rng.randint(1, 5))
        ), Form())
        want = reference_d_form(f)
        got = d(f)
        assert got == want
        # every result is built afresh: mutating one leaves the next intact
        cleared += bool(got)
        got.terms.clear()
        assert d(f) == want
    assert cleared > 20


def test_straighten_word_matches_uncached():
    for n in range(5):
        for letters in itertools.product("+-0", repeat=n):
            assert _straighten_word(letters) == _straighten_word.__wrapped__(letters)


def test_leibniz():
    rng = random.Random(31)
    for _ in range(40):
        x = normalize(rnd_word(rng, 4))
        y = normalize(rnd_word(rng, 4))
        assert d(x * y) == d(x) * y + x * d(y)


def test_super_leibniz_on_one_forms():
    rng = random.Random(32)
    words = [EP, EM, E0]
    for _ in range(25):
        w = rng.choice(words)
        xi = Form.of(normalize(rnd_word(rng, 3)), w)
        w = rng.choice(words)
        eta = Form.of(normalize(rnd_word(rng, 3)), w)
        assert d(wedge(xi, eta)) == wedge(d(xi), eta) - wedge(xi, d(eta))


def test_d_preserves_charge():
    rng = random.Random(33)
    for _ in range(30):
        x = normalize(rnd_word(rng, 5))
        for g, part in degree_split(x).items():
            # total charge: coefficient degree plus word charge, per term
            charges = {m.degree() + w.charge() for w, m in d(part).terms}
            assert charges <= {g}


def test_monopole_connection():
    assert monopole_omega(1) == Form.of(one, E0)
    assert monopole_omega(-1) == Form.of(-(q ** -2) * one, E0)
    assert monopole_omega(0) == 0
    for n in range(-6, 7):
        f = monopole_curvature(n)
        assert f == Form.of(q2(3) * qint(n, q2(2)) * one, VOL)
    assert omega_recursion_check(6)


def test_tensor_crossing():
    # e+ (x) f e- pulls f through with q^(deg f)
    t = tensor(basis(EP), Form.of(gd * gd, EM))
    assert t.terms == {(EP, "-", Monomial(0, 0, 0, 2)): q2(-2)}
    assert wedge(basis(EP), Form.of(gd * gd, EM)) == tensor(
        basis(EP), Form.of(gd * gd, EM)
    ).wedge_in()


def test_form_keys_end_in_a_monomial():
    # a word alone is refused as a key, not stored as a word with a
    # coefficient element; a tuple of exponents becomes a Monomial
    for key in (EP, VOL, ()):
        with pytest.raises((TypeError, ValueError)):
            Form({key: ONE})
    assert Form({(EP, (0, 1, 0, 0)): q}) == Form.of(q * b, EP)
    assert TensorForm({("+", "-", (1, 0, 0, 0)): ONE}) == tensor(Form.of(a, EP), basis(EM))
    with pytest.raises(ValueError):
        TensorForm({(EP, "-"): ONE})


def test_tensor_leg_checks_raise():
    # a tensor is a form with exactly one charged leg: no leg, two legs,
    # a two-letter leg and an unknown letter are all refused
    for key in (((), ()), (EP, ("+", "-")), (EP, "+-"), (EP, "x")):
        with pytest.raises(ValueError, match="tensor leg"):
            TensorForm({key + (UNIT,): ONE})
    with pytest.raises(ValueError):
        tensor(basis(EP), basis(E0))
    # the leg is checked even when the first factor is empty
    with pytest.raises(ValueError):
        tensor(Form.zero(), basis(E0))


def test_tensor_is_basic():
    # d^2 e+ (x) c^2 e- is charge balanced: (-2+2) + (2-2) = 0
    t = tensor(Form.of(gd * gd, EP), Form.of(c * c, EM))
    assert t.is_basic()
    assert not tensor(basis(EP), Form.of(c * c, EM)).is_basic()


# Each guard raises ArithmeticError when its identity fails, so it still
# fires under python -O; each test below injects one fault.


def test_monopole_curvature_guard_raises(monkeypatch):
    real = calculus.monopole_omega
    monkeypatch.setattr(calculus, "monopole_omega", lambda n: real(n + 1))
    with pytest.raises(ArithmeticError, match="charge-1 monopole"):
        monopole_curvature(1)


@pytest.mark.parametrize("shift, message", [
    (lambda n: n + 1 if n > 0 else n, "of a\\^1 "),
    (lambda n: n - 1 if n < 0 else n, "of d\\^1 "),
], ids=["a-route", "d-route"])
def test_omega_recursion_guards_raise(monkeypatch, shift, message):
    real = calculus.monopole_omega
    monkeypatch.setattr(calculus, "monopole_omega", lambda n: real(shift(n)))
    with pytest.raises(ArithmeticError, match=message):
        omega_recursion_check(2)


def test_d_squared_guard_raises(monkeypatch, fresh_tables):
    # a wrong d e0 breaks d^2 = 0; _d_word caches d on basis words and
    # _d_basis d on basis forms, and fresh_tables empties both around the fault
    monkeypatch.setitem(calculus._D_WORD_BASE, "0", Form.of(one.scale(q2(2)), VOL))
    with pytest.raises(ArithmeticError, match="square to zero"):
        calculus._check_d_squared()


def test_generator_derivatives_check_sees_a_bent_derivative(monkeypatch, fresh_tables):
    # the check builds the frame matrix Omega itself, so d(a) cannot pass by
    # meeting the entry of _D_GEN it is computed from
    check = next(c for c in calculus.CHECKS if c.anchor == "generator-derivatives")
    monkeypatch.setitem(calculus._D_GEN, "a", Form.of(a, E0) + Form.of(b.scale(q2(3)), EP))
    assert [name for name, _ in check.fn(None)] == ["d(a)"]


# --- subtraction of every Combination kind -------------------------------------


def _rebuilt(x):
    """x with every Scalar coefficient rebuilt from its dense pair, so that no
    coefficient is the object it was built from."""
    return x._wrap({k: Scalar(co.num, co.den) for k, co in x.terms.items()})


def _random_kinds(rng):
    """One seeded value of each kind: an element, a tensor square, a form
    and a tensor."""
    def elem():
        co = rng.choice((ONE, q, -q2(-1), ONE + q, Scalar((1,), (1, 0, 1))))
        return normalize(rnd_word(rng, 4)).scale(co) + rng.choice((a, b, c, gd, one))

    x = elem()
    leg = Form.of(elem(), EP) + Form.of(elem(), EM)
    return x, coproduct(x), elem() * d(elem()) + d(elem()), tensor(d(elem()), leg)


def test_every_combination_kind_subtracts_coefficientwise():
    rng = random.Random(2028)
    for _ in range(15):
        for x, y in zip(_random_kinds(rng), _random_kinds(rng)):
            assert x and type(x) is type(y)
            assert not (x - x).terms and not (x - _rebuilt(x)).terms
            assert x - y == x + (-y)
            assert (x - y) + y == x and y - x == -(x - y)
