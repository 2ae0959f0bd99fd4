import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, seed, settings, strategies as st

from qsphere import algebra
from qsphere.algebra import (
    AlgebraElement,
    Monomial,
    TensorSquare,
    a,
    accumulate,
    antipode,
    b,
    c,
    coproduct,
    counit,
    d,
    degree_split,
    normalize,
    one,
    require_degree,
    verify_hopf_axioms,
)
from qsphere.scalars import ONE, Scalar, padd, q, qint_sym, s, two_q
from qsphere.sphere import b0

bc = b * c


def test_defining_relations():
    assert b * a == q * (a * b)
    assert c * a == q * (a * c)
    assert d * b == q * (b * d)
    assert d * c == q * (c * d)
    assert b * c == c * b
    assert a * d == one + (q ** -1) * bc
    assert d * a == one + q * bc
    # the quantum determinant
    assert a * d - (q ** -1) * (b * c) == one


def test_normalize_example():
    # da straightens to 1 + q bc
    x = normalize(("d", "a"))
    assert x == one + q * bc
    assert x == d * a


def test_monomial_validity():
    with pytest.raises(ValueError):
        Monomial(1, 0, 0, 1)
    with pytest.raises(ValueError):
        Monomial(0, -1, 0, 0)
    with pytest.raises(ValueError):
        a ** -1
    assert Monomial(2, 1, 0, 0).degree() == 1
    assert Monomial(0, 1, 3, 2).degree() == 0


def test_degree_split():
    x = a + a * b + d
    parts = degree_split(x)
    assert set(parts) == {1, 0, -1}
    assert parts[1] == a
    assert parts[0] == a * b
    assert parts[-1] == d
    assert sum(parts.values(), AlgebraElement.zero()) == x


def test_counit():
    assert counit(d * a) == ONE
    assert counit(a) == ONE
    assert counit(b) == Scalar.from_int(0)
    assert counit(a * b * c * d) == Scalar.from_int(0)


def test_antipode_values():
    assert antipode(a) == d
    assert antipode(d) == a
    assert antipode(b) == -(q * b)
    assert antipode(c) == -(q ** -1 * c)
    # S(ab) = S(b)S(a) = -q bd; row degree 2 lands in column degree -2
    x = antipode(a * b)
    assert x == -(q * (b * d))
    assert {m.left_degree() for m in (a * b).terms} == {2}
    assert x.degree() == -2
    # S^2 (b) = q^2 b
    assert antipode(antipode(b)) == q ** 2 * b


def test_coproduct_generators():
    assert coproduct(a) == TensorSquare.of(a, a) + TensorSquare.of(b, c)
    assert coproduct(b) == TensorSquare.of(a, b) + TensorSquare.of(b, d)
    assert coproduct(c) == TensorSquare.of(c, a) + TensorSquare.of(d, c)
    assert coproduct(d) == TensorSquare.of(c, b) + TensorSquare.of(d, d)


def test_coproduct_bc_regroups():
    # Delta(bc) gathers into the left-coaction shape on the sphere
    b0 = b * c
    bp = c * d
    bm = a * b
    lhs = coproduct(b0)
    rhs = (
        TensorSquare.of(one, b0)
        + TensorSquare.of(bc, one + two_q * b0)
        + TensorSquare.of(q * (a * c), bm)
        + TensorSquare.of(q * (b * d), bp)
    )
    assert lhs == rhs


def test_coproduct_is_homomorphism():
    rng = random.Random(5)
    for _ in range(30):
        w1 = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
        w2 = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
        x, y = normalize(w1), normalize(w2)
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_by_leg_slices_rebuild_the_coproduct():
    rng = random.Random(23)
    for _ in range(50):
        x = normalize(tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6))))
        delta = coproduct(x)
        for leg in (0, 1):
            total = TensorSquare.zero()
            for m, y in delta.by_leg(leg).items():
                assert isinstance(y, AlgebraElement) and y
                mono = AlgebraElement({m: ONE})
                total = total + (TensorSquare.of(mono, y) if leg == 0 else TensorSquare.of(y, mono))
            assert total == delta


def test_hopf_axioms():
    assert verify_hopf_axioms(sample_size=100, seed=42)


def test_confluence_both_strategies():
    rng = random.Random(99)
    for _ in range(200):
        w = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 8)))
        nl = normalize(w, strategy="left")
        nr = normalize(w, strategy="right")
        assert nl == nr, f"strategies disagree on {w}"
        # and the straightening-product route agrees with the rewriter
        prod = one
        for letter in w:
            prod = prod * AlgebraElement.gen(letter)
        assert prod == nl, f"product route disagrees on {w}"


def test_associativity():
    rng = random.Random(7)
    for _ in range(200):
        xs = []
        for _ in range(3):
            w = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 3)))
            xs.append(normalize(w))
        x, y, z = xs
        assert (x * y) * z == x * (y * z)


def test_antipode_antimultiplicative():
    rng = random.Random(11)
    for _ in range(50):
        w1 = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
        w2 = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
        x, y = normalize(w1), normalize(w2)
        assert antipode(x * y) == antipode(y) * antipode(x)


def test_pbw_validity_of_products():
    rng = random.Random(13)
    for _ in range(100):
        w = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
        x = normalize(w)
        for m in x.terms:
            assert m[0] * m[3] == 0


def test_mono_mul_crossing():
    # (b^2 c) . (a^3) must pick up q^(3*3)
    lhs = AlgebraElement({Monomial(0, 2, 1, 0): ONE}) * AlgebraElement({Monomial(3, 0, 0, 0): ONE})
    assert lhs.terms == {Monomial(3, 2, 1, 0): Scalar.q_power(9)}


# every normal-form monomial of total degree <= 4
MONOS_4 = [
    Monomial(*e) for e in itertools.product(range(5), repeat=4)
    if sum(e) <= 4 and e[0] * e[3] == 0
]


def test_cached_products_match_rewrite_engine():
    monos = MONOS_4
    assert len(monos) == 55
    for m1, m2 in itertools.product(monos, repeat=2):
        x = AlgebraElement({m1: ONE}) * AlgebraElement({m2: ONE})
        word = "".join(g * e for m in (m1, m2) for g, e in zip("abcd", m))
        assert x == normalize(word, "left") == normalize(word, "right"), (m1, m2)


# The two memoised straightening recursions that computed the multiplication
# table before its closed form, and the table's old body, kept verbatim as
# the reference (apart from the interning of the table's coefficients,
# which changed no value).
_q = Scalar.q_power


@lru_cache(maxsize=None)
def _straighten(i, j, k, l):
    """a^i b^j c^k d^l (an ordered word, possibly with both i,l > 0)
    as a tuple of (Monomial, Scalar) pairs in normal form."""
    if i == 0 or l == 0:
        return ((Monomial(i, j, k, l), ONE),)
    f = _q(-(j + k))
    g = f * _q(-1)
    out = accumulate({}, ((m, f * c) for m, c in _straighten(i - 1, j, k, l - 1)))
    accumulate(out, ((m, g * c) for m, c in _straighten(i - 1, j + 1, k + 1, l - 1)))
    return tuple(out.items())


@lru_cache(maxsize=None)
def _d_pow_a_pow(l, i):
    """d^l a^i in normal form, as a tuple of (Monomial, Scalar) pairs."""
    if l == 0:
        return ((Monomial(i, 0, 0, 0), ONE),)
    if i == 0:
        return ((Monomial(0, 0, 0, l), ONE),)

    def terms():
        for m, c in _d_pow_a_pow(l - 1, i - 1):
            yield m, c
            al, be, ga, de = m
            # right-multiply by bc: picks up q^(2*de), plus the q^(2i-1)
            # from commuting bc back past a^(i-1)
            yield Monomial(al, be + 1, ga + 1, de), c * _q(2 * i - 1 + 2 * de)

    return tuple(accumulate({}, terms()).items())


def _reference_product(m1, m2):
    """The old body of _mono_product, as a dict."""
    i1, j1, k1, l1 = m1
    i2, j2, k2, l2 = m2
    out = {}
    for (al, be, ga, de), kappa in _d_pow_a_pow(l1, i2):
        coeff = kappa * _q(al * (j1 + k1) + de * (j2 + k2))
        word = _straighten(i1 + al, j1 + be + j2, k1 + ga + k2, de + l2)
        accumulate(out, ((m, coeff * c) for m, c in word))
    return out


def test_closed_form_matches_the_straightening_recursion():
    for m1, m2 in itertools.product(MONOS_4, repeat=2):
        assert dict(algebra._mono_product(m1, m2)) == _reference_product(m1, m2), (m1, m2)


def monomials(top):
    """Normal-form monomials with every exponent at most top."""
    e = st.integers(0, top)
    return st.builds(
        lambda i, j, k, l, left: Monomial(i if left else 0, j, k, 0 if left else l),
        e, e, e, e, st.booleans(),
    )


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(monomials(12), monomials(12))
def test_closed_form_matches_the_recursion_on_large_exponents(m1, m2):
    got = algebra._mono_product(m1, m2)
    assert dict(got) == _reference_product(m1, m2)
    assert len({m for m, _ in got}) == len(got) and all(co for _, co in got)


def test_gauss_row_follows_the_q_pascal_rule():
    for n in range(1, 41):
        row, above = algebra._gauss_row(n), algebra._gauss_row(n - 1)
        assert len(row) == n + 1 and row[0] == row[n] == (1,)
        for v in range(1, n):
            # G(n, v) = G(n-1, v-1) + x^v G(n-1, v)
            assert row[v] == padd(above[v - 1], (0,) * v + above[v]), (n, v)
        # [n 1] = q^(1-n) G(n, 1) is the symmetric q-integer
        bracket = sum((Scalar.q_power(2 * i + 1 - n) * co for i, co in enumerate(row[1])),
                      Scalar.from_int(0))
        assert bracket == qint_sym(n), n


def test_powers_by_squaring():
    before = algebra._mono_product.cache_info().currsize
    assert (a ** 100000).terms == {Monomial(100000, 0, 0, 0): ONE}
    assert algebra._mono_product.cache_info().currsize - before <= 40
    for base in (a + d, b0):
        repeated = one
        for k in range(10):
            assert base ** k == repeated, (base, k)
            repeated = repeated * base


def test_mono_mul_returns_a_fresh_dict():
    # a product of monomials holds a new dict, never the table's entry
    m1, m2 = Monomial(0, 0, 0, 2), Monomial(2, 0, 0, 0)
    first = AlgebraElement({m1: ONE}) * AlgebraElement({m2: ONE})
    expected = dict(first.terms)
    assert expected == dict(algebra._mono_product(m1, m2))
    first.terms.clear()
    first.terms[Monomial(0, 0, 0, 0)] = ONE
    assert (AlgebraElement({m1: ONE}) * AlgebraElement({m2: ONE})).terms == expected


def test_inhomogeneous_degree_raises():
    assert (a * b).degree() == 0
    with pytest.raises(ValueError):
        (a + b).degree()


def test_require_degree():
    require_degree(a * b * c, 1, "unused")
    require_degree(AlgebraElement.zero(), 7, "unused")  # zero has every degree
    for bad, n in ((a + b, 1), (a * b, 1), (a, -1)):
        with pytest.raises(ValueError) as err:
            require_degree(bad, n, "the given message")
        assert str(err.value) == "the given message"


def test_hopf_axioms_fail_loudly(monkeypatch):
    # a raise, not an assert, so this holds under python -O as well
    good = antipode
    monkeypatch.setattr(algebra, "antipode", lambda x: good(x).scale(q))
    with pytest.raises(ArithmeticError, match=r"antipode axiom fails on \('a',\)"):
        verify_hopf_axioms(sample_size=0)


def test_unit_shortcuts():
    x = Scalar.s_power(-3) + two_q
    assert x * ONE is x
    assert ONE * x is x
    assert ONE * 1 == ONE and 2 * ONE == Scalar.from_int(2)


def test_coproduct_of_a_unit_monomial_is_a_fresh_copy():
    rng = random.Random(17)
    other = AlgebraElement({Monomial(0, 4, 0, 0): q})  # b^4, never drawn
    for _ in range(40):
        i, l = rng.choice([(rng.randint(0, 3), 0), (0, rng.randint(0, 3))])
        m = Monomial(i, rng.randint(0, 3), rng.randint(0, 3), l)
        table = algebra._coproduct_mono(m)
        # independent route: the product of the generators' coproducts
        via_gens = TensorSquare.of(one, one)
        for name, e in zip("abcd", m):
            for _ in range(e):
                via_gens = via_gens * coproduct(AlgebraElement.gen(name))
        got = coproduct(AlgebraElement({m: ONE}))
        assert got is not table and got.terms is not table.terms
        assert got == table == via_gens
        got.terms.clear()
        assert coproduct(AlgebraElement({m: ONE})) == via_gens
        # the general path: several terms, or a coefficient other than ONE
        general = coproduct(AlgebraElement({m: ONE}) + other) - coproduct(other)
        assert general == via_gens
        for co in (-ONE, q ** 3, ONE / (ONE + q ** -4), s):
            assert coproduct(AlgebraElement({m: co})) == via_gens.scale(co)


def _map_legs_per_term(t, fl, fr):
    """The per-term formula: fl(x) * fr(y) summed over every x (x) y term."""
    out = AlgebraElement.zero()
    for (mx, my), co in t.items():
        out = out + (fl(AlgebraElement({mx: ONE})) * fr(AlgebraElement({my: ONE}))).scale(co)
    return out


def _unit_counit(u):
    return one.scale(counit(u))


def _ident(u):
    return u


def _random_coproducts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        word = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
        yield word, coproduct(normalize(word))


def test_map_legs_matches_the_per_term_formula():
    legs = (antipode, _unit_counit, _ident)
    for word, dx in _random_coproducts(2003, 30):
        for fl, fr in itertools.product(legs, repeat=2):
            assert dx.map_legs(fl, fr) == _map_legs_per_term(dx, fl, fr), (word, fl, fr)
    # several terms per leg monomial, and coefficients other than ONE
    t = coproduct(normalize("ab") + normalize("bcd").scale(q ** 3 - s))
    for fl, fr in itertools.product(legs, repeat=2):
        assert t.map_legs(fl, fr) == _map_legs_per_term(t, fl, fr)


def test_map_legs_calls_each_leg_once_per_monomial():
    for word, dx in _random_coproducts(2004, 20):
        seen = {"l": [], "r": []}

        def counting(side, f):
            def leg(u):
                ((m, co),) = u.terms.items()
                assert co == ONE
                seen[side].append(m)
                return f(u)
            return leg

        got = dx.map_legs(counting("l", antipode), counting("r", _ident))
        assert got == _map_legs_per_term(dx, antipode, _ident)
        for side, index in (("l", 0), ("r", 1)):
            assert sorted(seen[side]) == sorted({mm[index] for mm in dx.terms}), word


def test_map_legs_returns_a_fresh_element():
    # an identity leg hands back its argument; the result must alias neither
    # it nor an earlier result, also for the one-term tensor 1 (x) 1
    for dx in (coproduct(normalize("abcd")), coproduct(one)):
        for fl, fr in ((_ident, antipode), (_ident, _ident)):
            first = dx.map_legs(fl, fr)
            expected = AlgebraElement(dict(first.terms))
            assert expected == _map_legs_per_term(dx, fl, fr)
            first.terms.clear()
            first.terms[Monomial(0, 1, 0, 0)] = ONE
            assert dx.map_legs(fl, fr) == expected


# --- the one product loop against the per-pair formula ------------------------


_COEFFS = (ONE, q, -s, ONE + q, Scalar((2,), (3,)), ONE / (ONE + q ** -4))


def _random_element(rng, terms=3):
    """A sum of up to terms normal-form words of length 0-4, each scaled."""
    out = AlgebraElement.zero()
    for _ in range(rng.randint(1, terms)):
        word = tuple(rng.choice("abcd") for _ in range(rng.randint(0, 4)))
        out = out + normalize(word).scale(rng.choice(_COEFFS))
    return out


def _product_per_pair(x, y):
    """x * y as the sum over term pairs of c1 c2 times their _mono_product row."""
    out = AlgebraElement.zero()
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            row = AlgebraElement(dict(algebra._mono_product(m1, m2)))
            out = out + row.scale(c1 * c2)
    return out


def test_product_matches_the_per_pair_formula():
    rng = random.Random(2028)
    for _ in range(60):
        x, y = _random_element(rng), _random_element(rng)
        assert x * y == _product_per_pair(x, y), (x, y)
    assert not (x * AlgebraElement.zero()) and not (AlgebraElement.zero() * x)
