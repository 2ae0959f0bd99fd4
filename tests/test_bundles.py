import random

import pytest

from qsphere import bundles
from qsphere.algebra import AlgebraElement, a, b, b0, bm, bp, c, d as gd, degree_split, normalize, one
from qsphere.bundles import (
    bwb_check,
    check_partition,
    covariant_D,
    extract_coeffs,
    partition_of_unity,
    projector,
)
from qsphere.sphere import _matmul
from qsphere.calculus import E0, EM, EP, Form, d
from qsphere.scalars import ONE, Scalar, q, qint, two_q

q2 = Scalar.q_power

# non-unit coefficients, among them a true rational function and odd powers of s
COEFFS = (
    Scalar.from_int(-2), q2(3), Scalar.s_power(-1), Scalar.s_power(3),
    ONE / (ONE + q2(-4)), q2(-1) / two_q,
)

# e+ / e- coefficients of the sphere generator derivatives
DEL_B = {"-": b * b, "0": q * (b * gd), "+": gd * gd}
DELBAR_B = {"-": a * a, "0": q * (a * c), "+": c * c}


def test_section_degree_guard():
    covariant_D(a * b * c)
    assert covariant_D(AlgebraElement.zero()) == 0
    with pytest.raises(ValueError):
        covariant_D(a + b)


def test_covariant_D_values():
    assert covariant_D(a) == Form.of(q * b, EP)
    assert covariant_D(c) == Form.of(q * gd, EP)
    assert covariant_D(one) == 0
    # negative charge goes antiholomorphic
    assert covariant_D(b) == Form.of(a, EM)
    assert covariant_D(gd) == Form.of(c, EM)


def reference_covariant_D(x, n):
    """The whole-element formula that covariant_D applies monomial by monomial."""
    return d(x) - Form.of(x.scale(qint(n, q2(2))), E0)


def rnd_section(rng, n):
    """A degree-n element of at least three terms with scattered coefficients."""
    x = AlgebraElement.zero()
    while len(x.terms) < 3:
        w = tuple(rng.choice("abcd") for _ in range(rng.randint(abs(n), abs(n) + 4)))
        piece = degree_split(normalize(w)).get(n)
        if piece:
            x = x + piece.scale(rng.choice(COEFFS))
    return x


def test_covariant_D_table_matches_whole_element_formula():
    rng = random.Random(24)
    inputs = [(x, x.degree()) for x in (a, b, c, gd, a * a, one)]
    inputs += [(rnd_section(rng, n), n) for n in range(-3, 4) for _ in range(3)]
    for x, n in inputs:
        want = reference_covariant_D(x, n)
        got = covariant_D(x)
        assert got == want and E0 not in got.by_word()
        # every result is built afresh: mutating one leaves the next intact
        got.terms.clear()
        assert covariant_D(x) == want


def test_horizontality_failure_raises(monkeypatch, fresh_tables):
    # with d broken, the e0 parts no longer cancel; the table must refuse
    monkeypatch.setattr(bundles, "d", lambda x: Form.zero())
    with pytest.raises(ArithmeticError):
        covariant_D(a * a)


def test_connection_property():
    rng = random.Random(21)
    for _ in range(30):
        w = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 4)))
        f = normalize(w)
        parts = degree_split(f)
        g = parts[sorted(parts)[0]]
        # degree-0 sphere function in front
        m = normalize(tuple(rng.choice("abcd") for _ in range(2)))
        m0 = degree_split(m).get(0)
        if not m0:
            continue
        lhs = covariant_D(m0 * g)
        rhs = d(m0) * g + m0 * covariant_D(g)
        assert lhs == rhs


def test_horizontality():
    rng = random.Random(22)
    sample = [a, b, c, gd, a * a]
    for _ in range(20):
        w = tuple(rng.choice("abcd") for _ in range(3))
        x = normalize(w)
        sample.extend(p for p in degree_split(x).values())
    # the e0 part of df is [n; q^2] f for f of degree n
    for f in sample:
        assert d(f).coefficient(E0) == f.scale(qint(f.degree(), q2(2)))
    # a^2 pins the (1+q^2) coefficient
    assert d(a * a).coefficient(E0) == (1 + q ** 2) * (a * a)


# the partitions as the paper displays them: the oracle for the ones the
# engine reads off the coproduct and the antipode
PAPER_PARTITIONS = {
    2: [(gd * gd, a * a), (q2(2) * (b * b), c * c), (-(q * two_q) * (gd * b), a * c)],
    1: [(gd, a), (-q * b, c)],
    -1: [(a, gd), (-(q ** -1) * c, b)],
    -2: [(a * a, gd * gd), (q2(-2) * (c * c), b * b), (-(q ** -1 * two_q) * (a * c), gd * b)],
}


def monic(pairs):
    """{y: x} with each y_r scaled to a monic monomial, and x_r by the inverse."""
    out = {}
    for x, y in pairs:
        ((m, co),) = y.terms.items()
        out[m] = x.scale(co)
    return out


def test_partitions():
    for n, pairs in PAPER_PARTITIONS.items():
        assert monic(partition_of_unity(n)) == monic(pairs)
    for n in range(-6, 7):
        total = AlgebraElement.zero()
        for x, y in partition_of_unity(n):
            assert (x.degree(), y.degree()) == (-n, n)
            total = total + x * y
        assert total == one
    assert partition_of_unity(0) == ((1, 1),)
    with pytest.raises(ValueError, match="does not sum to 1"):
        check_partition(1, [(gd, a)])  # da = 1 + qbc != 1
    with pytest.raises(ValueError, match="must have degrees"):
        check_partition(1, [(a, a)])  # x must have degree -1
    assert partition_of_unity(2) is partition_of_unity(2)  # built once


def test_projectors_are_idempotent():
    for n in range(-4, 5):
        e = projector(n)
        assert len(e) == len(partition_of_unity(n))
        assert _matmul(e, e) == [list(r) for r in e]


def test_projector_is_built_once_and_equals_a_rebuild(fresh_tables):
    for n in (-2, -1, 1, 2):
        e = projector(n)
        assert e is projector(n) and type(e) is tuple and all(type(r) is tuple for r in e)
        part = partition_of_unity(n)
        assert e == tuple(tuple(y * x for x, _ in part) for _, y in part)
    assert projector.cache_info().currsize == 4


def test_projector_is_the_docstring_matrix():
    # e = [[-q^-1 b0, q b-], [-b+, 1 + q b0]], as the spin module docstring writes it
    e = projector(-1)
    assert e == ((-(q2(-1) * b0), q2(1) * bm), (-bp, one + q2(1) * b0))
    # and 1 - e is projector(1), (y_r x_s) over the charge +1 partition
    part = partition_of_unity(1)
    one_minus_e = [[(one if i == j else 0) - e[i][j] for j in range(2)] for i in range(2)]
    assert one_minus_e == [[y * x for x, _ in part] for _, y in part]
    assert one_minus_e == [list(r) for r in projector(1)]


def test_extract_coeffs_weights_are_the_partitions():
    # the weights of extract_coeffs are the x_r of the charge -+2 partitions,
    # taken in frame order (db-, db0, db+) and rescaled so that x_r y_r =
    # weight_r times the e+- coefficient of db_r, typed here in DEL_B/DELBAR_B
    rng = random.Random(25)
    for word, n, legs in ((EP, -2, DEL_B), (EM, 2, DELBAR_B)):
        weights = []
        for (x, y), i in zip(partition_of_unity(n), "-0+"):
            ((m, kappa),) = legs[i].terms.items()
            assert y == AlgebraElement({m: ONE})
            weights.append(x.scale(ONE / kappa))
        for h in (legs["-"], rnd_section(rng, n)):
            assert extract_coeffs(Form.of(h, word)) == tuple(h * w for w in weights)


def test_extract_coeffs_reads_the_partitions(monkeypatch, fresh_tables):
    # a bent antipode bends the partitions, and extract_coeffs must see it
    real = bundles.antipode
    monkeypatch.setattr(bundles, "antipode", lambda x: real(x).scale(2))
    with pytest.raises(ValueError, match="does not sum to 1"):
        extract_coeffs(Form.of(b * b, EP))


def test_extract_coeffs_refuses_a_partition_out_of_frame_order(monkeypatch, fresh_tables):
    real = bundles.partition_of_unity
    monkeypatch.setattr(bundles, "partition_of_unity", lambda n: real(n)[::-1])
    with pytest.raises(ArithmeticError, match="is not the e- coefficient of d"):
        extract_coeffs(Form.of(a * a, EM))


def test_extract_coeffs_refuses_a_zero_frame_coefficient(monkeypatch, fresh_tables):
    # with d broken to zero every kappa_r is zero: a ratio, but not a weight
    monkeypatch.setattr(bundles, "d", lambda x: Form.zero())
    with pytest.raises(ArithmeticError, match="is not the e\\+ coefficient of d"):
        extract_coeffs(Form.of(b * b, EP))


def test_extract_coeffs_examples():
    # u = b^2 gives the canonical coefficients of the holomorphic leg
    h = Form.of(b * b, EP)
    fm, f0, fp = extract_coeffs(h)
    assert fm == q2(-2) * (b * b * c * c)
    assert f0 == -(q ** -1) * two_q * (b * b * a * c)
    assert fp == b * b * a * a
    for f in (fm, f0, fp):
        assert f.degree() == 0
    # and they recombine to the input against the e+ legs
    recon = sum(
        (f * DEL_B[i] for f, i in [(fm, "-"), (f0, "0"), (fp, "+")]),
        AlgebraElement.zero(),
    )
    assert Form.of(recon, EP) == h

    w = a * a
    fm, f0, fp = extract_coeffs(Form.of(w, EM))
    assert fm == w * gd * gd
    assert f0 == -two_q * (w * gd * b)
    assert fp == q ** 2 * (w * b * b)


def test_extract_coeffs_guards():
    # the degrees are checked by the one charge rule, in its own words
    with pytest.raises(ValueError, match="coefficient of ep must have degree -2"):
        extract_coeffs(Form.of(one, EP))
    with pytest.raises(ValueError, match="coefficient of em must have degree 2"):
        extract_coeffs(Form.of(one, EM))
    with pytest.raises(ValueError, match="e0 present"):
        extract_coeffs(Form.of(b * b, E0))
    # a sphere form that is not a one-form
    with pytest.raises(ValueError, match="outside e\\+ and e-"):
        extract_coeffs(Form.of(one, ()))
    extract_coeffs(Form.zero())


def test_extract_recombine_random():
    rng = random.Random(23)
    count_p = count_m = 0
    while count_p < 50 or count_m < 50:
        x = normalize(tuple(rng.choice("abcd") for _ in range(rng.randint(2, 5))))
        for g, part in degree_split(x).items():
            if g == -2 and count_p < 50:
                h = Form.of(part, EP)
                fm, f0, fp = extract_coeffs(h)
                recon = fm * DEL_B["-"] + f0 * DEL_B["0"] + fp * DEL_B["+"]
                assert Form.of(recon, EP) == h
                count_p += 1
            elif g == 2 and count_m < 50:
                h = Form.of(part, EM)
                fm, f0, fp = extract_coeffs(h)
                recon = fm * DELBAR_B["-"] + f0 * DELBAR_B["0"] + fp * DELBAR_B["+"]
                assert Form.of(recon, EM) == h
                count_m += 1


def test_pure_power_derivative():
    for n in range(1, 7):
        lhs = d(c ** n)
        rhs = (c ** (n - 1)).scale(qint(n, q2(2))) * (
            c * Form.of(one, E0) + q * gd * Form.of(one, EP)
        )
        assert lhs == rhs


def test_bwb():
    for n in range(7):
        assert bwb_check(n) == []
    with pytest.raises(ValueError):
        bwb_check(-1)
