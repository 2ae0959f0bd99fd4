import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings, strategies as st

from qsphere import scalars as scalars_module
from qsphere.scalars import (
    ONE,
    ZERO,
    Scalar,
    _laurent_product,
    _general_pair,
    _laurent_sum,
    _plus,
    _reduce_general,
    _render_laurent,
    _scalar_piece,
    _trim,
    mu,
    padd,
    pdiv_exact,
    pmul,
    pneg,
    q,
    qint,
    qint_sym,
    render_scalar,
    s,
    two_q,
)
from qsphere.algebra import AlgebraElement, a

lam = Scalar.s_power(-1)  # q^(-1/2)


def test_basic_constants():
    assert q == s * s
    assert lam * s == ONE
    assert two_q == q + ONE / q
    assert mu == q ** 2 - q ** -2
    assert ZERO + ONE == ONE
    assert not ZERO
    assert ONE


def test_integer_values_hash_as_their_int():
    # equal values hash equal, so a set or dict key does not tell 1 from ONE
    for n in (0, 1, -1, 2, -7, 10 ** 30):
        x = Scalar.from_int(n)
        assert x == n and hash(x) == hash(n)
    # integer values reached by arithmetic, also through the general path
    assert hash(q / q) == hash(1) and hash(two_q - q - ONE / q) == hash(0)
    general = ONE / (ONE + q)
    assert hash(general * (ONE + q)) == hash(1)
    assert len({ONE, 1}) == 1 and len({ZERO, 0, ONE - ONE}) == 1
    assert {ONE: "unit"}[1] == "unit"
    # values that are not integers keep their own hash
    assert hash(q) != hash(1) and hash(ONE / 2) == hash(ONE / 2)


def test_qint_examples():
    q2 = q ** 2
    assert qint(2, q2) == ONE + q2
    assert qint(-2, q2) == -(q ** -2) - q ** -4
    assert qint(0, q2) == ZERO
    assert qint(1, q2) == ONE
    assert qint(-1, q2) == -(q ** -2)


def test_qint_sym_examples():
    assert qint_sym(1) == ONE
    assert qint_sym(2) == q + q ** -1
    assert qint_sym(3) == q ** 2 + ONE + q ** -2
    assert qint_sym(0) == ZERO
    assert qint_sym(-2) == -(q + q ** -1)


def test_qint_defining_relation():
    # (1 - base^n) = [n] * (1 - base), including negative n
    q2 = q ** 2
    for n in range(-8, 9):
        assert qint(n, q2) * (ONE - q2) == ONE - q2 ** n


def test_qint_sym_vs_qint():
    for n in range(1, 9):
        assert qint_sym(n) == Scalar.q_power(1 - n) * qint(n, q ** 2)


def test_specialize_examples():
    assert (q + q ** -1).specialize(1) == 2
    einstein = (2 * q ** -1) / (ONE + q ** -4)
    assert einstein.specialize(1) == 1
    assert q.specialize(Fraction(3, 2)) == Fraction(9, 4)


def test_specialize_pole():
    x = ONE / (ONE - q)  # pole at s = 1
    with pytest.raises(ZeroDivisionError):
        x.specialize(1)
    assert x.specialize(2) == Fraction(-1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


@pytest.mark.parametrize("other", [1.5, Fraction(1, 2), a], ids=["float", "Fraction", "element"])
def test_foreign_operands_are_refused(other):
    # only integers are coerced; anything else would build a Scalar that is
    # not canonical (float entries, or one that compares unequal to its value)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x / y):
        for x, y in ((q, other), (other, q), (ONE, other), (other, ONE)):
            with pytest.raises(TypeError):
                op(x, y)
    if not isinstance(other, AlgebraElement):  # a Scalar scales an element
        for x, y in ((q, other), (other, q)):
            with pytest.raises(TypeError):
                x * y
    # integers still are coerced, on either side
    assert 1 - q == -(q - 1) and 2 / q == 2 * q ** -1 and q / 2 == q * (ONE / 2)


def test_canonical_form_is_reduced():
    # (s^2-1)/(s-1) must normalize to s+1
    a = Scalar((-1, 0, 1), (-1, 1))
    assert a == s + ONE
    assert a.num == (1, 1) and a.den == (1,)
    # 2/4 reduces, sign moves to the numerator
    b = Scalar((2,), (-4,))
    assert b.num == (-1,) and b.den == (2,)


def test_normalize_idempotent():
    x = Scalar((0, 6, 0, -6), (0, 0, 4, 0, -4))
    y = Scalar(x.num, x.den)
    assert x.num == y.num and x.den == y.den


def test_pdiv_exact_raises_on_bad_division():
    with pytest.raises(ArithmeticError):
        pdiv_exact((1, 0, 1), (1, 1))  # s^2+1 = (s+1)(s-1) + 2
    with pytest.raises(ArithmeticError):
        pdiv_exact((1,), (2,))  # exact over Q, but not in Z[s]
    with pytest.raises(ZeroDivisionError):
        pdiv_exact((1, 1), ())
    assert pdiv_exact((-1, 0, 1), (1, 1)) == (-1, 1)


def test_pow_negative():
    assert q ** -3 == ONE / (q * q * q)
    assert (two_q) ** 0 == ONE


def test_pow_square_and_multiply():
    assert q ** 10 ** 6 == Scalar.q_power(10 ** 6)
    assert (-s) ** -(10 ** 6 + 1) == -Scalar.s_power(-(10 ** 6 + 1))
    x, prod = ONE + q, ONE
    for _ in range(13):
        prod = prod * x
    assert x ** 13 == prod
    y = ONE + q ** -4  # a true rational function once inverted
    assert y ** -3 == ONE / (y * y * y)
    assert (y ** -3).den == (y * y * y).num
    assert y ** -3 * y ** 3 == ONE


# --- field axioms, randomized ------------------------------------------------

_coef = st.integers(min_value=-6, max_value=6)
_poly = st.lists(_coef, min_size=0, max_size=4).map(tuple)


@st.composite
def scalars(draw):
    num = draw(_poly)
    den = draw(_poly.filter(lambda p: any(p)))
    return Scalar(num, den)


@st.composite
def laurent_pairs(draw):
    """Raw (num, den) with den = c*s^k: leading zeros in num, an integer
    content shared with c, and extra trailing zeros on both sides."""
    shared = draw(st.integers(min_value=1, max_value=6))
    c = shared * draw(st.integers(min_value=-6, max_value=6).filter(bool))
    k = draw(st.integers(min_value=0, max_value=12))
    body = draw(st.lists(_coef, min_size=0, max_size=5))
    num = (0,) * draw(st.integers(min_value=0, max_value=14)) + tuple(shared * a for a in body)
    pad = st.integers(min_value=0, max_value=2)
    return num + (0,) * draw(pad), (0,) * k + (c,) + (0,) * draw(pad)


_any_scalar = st.one_of(scalars(), laurent_pairs().map(lambda p: Scalar(*p)))


@seed(20240820)
@settings(max_examples=400, deadline=None)
@given(laurent_pairs())
def test_monomial_rule_matches_general_path(pair):
    num, den = pair
    x = Scalar(num, den)
    if not any(num):
        assert (x.num, x.den) == ((), (1,))
    else:
        assert (x.num, x.den) == _reduce_general(_trim(num), _trim(den))


@seed(20240817)
@settings(max_examples=200, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    if y:
        assert (x / y) * y == x


@seed(20240818)
@settings(max_examples=200, deadline=None)
@given(scalars(), scalars())
def test_eval_is_homomorphism(x, y):
    # compare exact arithmetic with Fraction evaluation at a generic point
    pt = Fraction(7, 5)
    try:
        xv, yv = x.specialize(pt), y.specialize(pt)
        sv = (x + y).specialize(pt)
        pv = (x * y).specialize(pt)
    except ZeroDivisionError:
        return
    assert sv == xv + yv
    assert pv == xv * yv


# --- differential test of the Laurent kernel against the dense general path
#
# Every result's (num, den) must be the pair _reduce_general gives for the
# dense product or sum of the operands' pairs, so a fast path that skips a
# reduction (the one-term scale, the c == 1 shortcut, the shift alignment
# of +) shows up as a mismatch.

_rational_dens = st.sampled_from([ONE + q ** -4, q + q ** -1])
_kernel_operand = st.one_of(
    _any_scalar,
    st.tuples(_any_scalar, _rational_dens).map(lambda t: t[0] / t[1]),
)


def _canonical(num, den):
    return _reduce_general(num, den) if num else ((), (1,))


def _dense_power(x, k):
    num, den = (1,), (1,)
    for _ in range(abs(k)):
        num, den = pmul(num, x.num), pmul(den, x.den)
    return _canonical(den, num) if k < 0 else _canonical(num, den)


def _reference_cases(x, y, k, dividend=None):
    """(result, dense reference pair) for x + y, x - y, x * y, dividend / y
    (dividend defaults to x) and x ** k."""
    xn, xd, yn, yd = x.num, x.den, y.num, y.den
    cases = [
        (x + y, _canonical(padd(pmul(xn, yd), pmul(yn, xd)), pmul(xd, yd))),
        (x - y, _canonical(padd(pmul(xn, yd), pneg(pmul(yn, xd))), pmul(xd, yd))),
        (x * y, _canonical(pmul(xn, yn), pmul(xd, yd))),
    ]
    if y:
        z = x if dividend is None else dividend
        cases.append((z / y, _canonical(pmul(z.num, yd), pmul(z.den, yn))))
    if x or k >= 0:
        cases.append((x ** k, _dense_power(x, k)))
    return cases


@seed(20240821)
@settings(max_examples=300, deadline=None)
@given(_kernel_operand, _kernel_operand, st.integers(min_value=-3, max_value=5))
def test_kernel_matches_dense_reference(x, y, k):
    for got, want in _reference_cases(x, y, k):
        assert (got.num, got.den) == want


# --- results decided before any arithmetic
#
# +, - and * return an operand itself, or ZERO, when the other operand is
# ZERO, the unit or (for -) equal slot for slot; a one-term operand scales
# the other.  Each such result must be the value Scalar(num, den) builds
# from the dense reference, slot for slot and in its hash.


def _s_term(a, k):
    """a * s^k, built from its dense pair."""
    return Scalar((0,) * k + (a,)) if k >= 0 else Scalar((a,), (0,) * -k + (1,))


@st.composite
def decided_pairs(draw):
    """(x, y) with y one of x itself, x rebuilt from its dense pair, -x,
    ZERO, a zero or a unit that is not the object ZERO or ONE, ONE, -s^k,
    s^k or 2 s^k; in either order."""
    x = draw(_kernel_operand)
    k = draw(st.integers(min_value=-6, max_value=6))
    y = draw(st.sampled_from([
        x, Scalar(x.num, x.den), -x, ZERO, Scalar(()), ONE, Scalar((1,)),
        _s_term(-1, k), _s_term(1, k), _s_term(2, k),
    ]))
    return (y, x) if draw(st.booleans()) else (x, y)


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(decided_pairs())
def test_decided_results_match_the_dense_reference(pair):
    x, y = pair
    for got, want in _reference_cases(x, y, 1)[:3]:
        ref = Scalar(*want)
        assert _slots(got) == _slots(ref) and hash(got) == hash(ref)
    for zero in (x - x, x - Scalar(x.num, x.den), ZERO * y, y * ZERO):
        assert _slots(zero) == _slots(ZERO) and hash(zero) == hash(0)


def test_decided_results_examples():
    x = (ONE + q ** 2) / 3
    assert x - Scalar(x.num, x.den) is ZERO and x - x is ZERO
    assert ZERO + x is x and x + ZERO is x and x - ZERO is x
    assert x * ONE is x and Scalar((1,)) * x is x
    # a zero product carries no shift from the other operand
    for zero in (ZERO * s ** 3, s ** -5 * ZERO, ZERO * (ONE / (ONE + q ** -4))):
        assert zero is ZERO and zero._e == 0
    assert _slots(ZERO - x) == _slots(-x)


# --- the one unit object
#
# Every value 1 that the kernel builds is the object ONE, so a product with
# it is decided by identity and the loops above the kernel can skip it.


def test_every_built_unit_is_the_one_object():
    q2 = q ** 2
    for unit in (Scalar.from_int(1), Scalar.q_power(0), Scalar.s_power(0),
                 (ONE + q) / (ONE + q), (ONE + q ** -4) / (ONE + q ** -4), q * q ** -1,
                 lam * s, (q ** -2 + 1) - q ** -2, (q2 + 1) - q2, s ** 3 / s ** 3,
                 Scalar.from_int(3) / 3, ONE / (ONE / (ONE + q) * (ONE + q)), q ** 0):
        assert unit is ONE
    # a unit built from its dense pair is a separate object, equal to ONE
    other = Scalar((1,))
    assert other is not ONE and other == ONE and _slots(other) == _slots(ONE)
    # the int coercion comes first, so ONE * 1 stays a Scalar
    assert ONE * 1 is ONE and 1 * ONE is ONE and isinstance(ONE * 1, Scalar)
    assert ONE * 2 == 2 and isinstance(2 * ONE, Scalar)


def test_a_product_with_the_one_object_is_the_other_operand():
    general = ONE / (ONE + q ** -4)
    for x in (q, (ONE + q ** 2) / 3, lam - 2 * s, general, general * q, ZERO, ONE, -ONE):
        assert x * ONE is x and ONE * x is x
        for unit in (Scalar((1,)), Scalar.from_int(2) / 2):
            assert _slots(x * unit) == _slots(x) == _slots(unit * x)


# --- cross-check against sympy ----------------------------------------------


def _to_sympy(x):
    import sympy

    t = sympy.Symbol("s")
    num = sum(c * t ** i for i, c in enumerate(x.num))
    den = sum(c * t ** i for i, c in enumerate(x.den))
    return sympy.cancel(sympy.Rational(1) * num / den)


@seed(20240819)
@settings(max_examples=60, deadline=None)
@given(_any_scalar, _any_scalar)
def test_sympy_oracle(x, y):
    import sympy

    for ours, theirs in [
        (x * y, _to_sympy(x) * _to_sympy(y)),
        (x + y, _to_sympy(x) + _to_sympy(y)),
        (x - y, _to_sympy(x) - _to_sympy(y)),
    ]:
        assert _to_sympy(ours) == sympy.cancel(theirs)


def test_render_examples():
    assert render_scalar(ZERO) == "0"
    assert render_scalar(ONE) == "1"
    assert render_scalar(q) == "q"
    assert render_scalar(s) == "s"
    assert render_scalar(lam) == "s^-1"
    assert render_scalar(q ** -2) == "q^-2"
    assert render_scalar(two_q) == "q+q^-1"
    assert render_scalar(q ** 2 * two_q) == "q^2*(q+q^-1)"
    assert render_scalar(-q) == "-q"
    assert render_scalar(Scalar((-2,), (3,))) == "-2/3"
    # a genuinely non-Laurent value keeps explicit fraction shape
    assert "/" in render_scalar(ONE / (ONE + q ** -4))


# --- the printer against the Fraction-based printer it replaced ---------------
#
# render_scalar reads Laurent coefficients as reduced integer pairs so that
# printing never imports fractions.  The oracle below is the earlier printer,
# kept verbatim apart from names, which read each coefficient as a Fraction.


def _oracle_fmt_coeff(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _oracle_power_atom(e):
    if e == 0:
        return ""
    if e % 2 == 0:
        h = e // 2
        return "q" if h == 1 else f"q^{h}"
    return "s" if e == 1 else f"s^{e}"


def _oracle_laurent_body(terms):
    parts = []
    for e, c in sorted(terms, key=lambda t: (t[1] < 0, -t[0])):
        atom = _oracle_power_atom(e)
        if not atom:
            piece = _oracle_fmt_coeff(c)
        elif c == 1:
            piece = atom
        elif c == -1:
            piece = "-" + atom
        else:
            piece = _oracle_fmt_coeff(c) + "*" + atom
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += "-" + piece[1:] if piece.startswith("-") else "+" + piece
    return out


def _oracle_render_laurent(terms):
    if not terms:
        return "0"
    if len(terms) > 1 and all(c < 0 for _, c in terms):
        return "-(" + _oracle_render_laurent([(e, -c) for e, c in terms]) + ")"
    exps = [e for e, _ in terms]
    mid = (min(exps) + max(exps)) // 2
    if mid:
        head = _oracle_power_atom(mid)
        shifted = [(e - mid, c) for e, c in terms]
        if len(shifted) == 1:
            c = shifted[0][1]
            if c == 1:
                return head
            if c == -1:
                return "-" + head
            return _oracle_fmt_coeff(c) + "*" + head
        return head + "*(" + _oracle_laurent_body(shifted) + ")"
    return _oracle_laurent_body(terms)


def _oracle_render(x):
    if x._p is not None:
        e, k, c = x._e, x._k, x._c
        return _oracle_render_laurent(
            [(e + k * i, Fraction(a, c)) for i, a in enumerate(x._p) if a]
        )
    num = _oracle_render_laurent([(i, Fraction(a)) for i, a in enumerate(x.num) if a])
    den = _oracle_render_laurent([(i, Fraction(a)) for i, a in enumerate(x.den) if a])
    if "+" in num or "-" in num[1:]:
        num = "(" + num + ")"
    if "+" in den or "-" in den[1:] or "*" in den:
        den = "(" + den + ")"
    return num + "/" + den


def _fraction(n, m=1):
    return Scalar((n,), (m,))


_PRINTER_CASES = [
    q / 2,
    _fraction(3, 2),
    (ONE + 2 * q) / 4,
    (2 + q) / 6,
    (3 * q ** 2 - 9 * q ** -1) / 12,
    -(q + q ** 2),
    -(ONE + q) / 3,
    -(2 * s + 4 * s ** 3) / 6,
    _fraction(-5, 4) * q ** 3,
    ONE / (ONE + q ** -4),
    ONE / two_q,
    q / (2 * two_q),
    -(ONE + q) / (3 * (ONE + q ** 3)),
]


def _random_printer_value(rng):
    x = ZERO
    for _ in range(rng.randrange(1, 5)):
        term = _fraction(rng.randrange(-12, 13), rng.randrange(1, 13))
        x = x + term * s ** rng.randrange(-9, 10)
    if rng.random() < 0.2:
        x = x / (ONE + q ** rng.randrange(1, 4))
    return x


def test_render_matches_the_fraction_printer():
    rng = random.Random(2024)
    values = _PRINTER_CASES + [_random_printer_value(rng) for _ in range(400)]
    assert any(x._p is None for x in values) and any(x._c > 1 for x in values if x._p)
    for x in values:
        assert render_scalar(x) == _oracle_render(x), repr(x)


# --- the sum rule: brackets from structure against the text scan it replaced --
#
# _scalar_piece brackets a coefficient when _render_laurent reports a bare
# sum at top level.  The oracle is the earlier rule, kept verbatim, which
# scanned the rendered text with its sign stripped for a top-level + or -.


def _needs_parens(text):
    depth = 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and pos > 0 and ch in "+-" and text[pos - 1] != "^":
            return True
    return False


@seed(20261019)
@settings(max_examples=400, deadline=None)
@given(_kernel_operand)
def test_sum_flag_matches_the_text_rule(x):
    text = render_scalar(x)
    neg = text.startswith("-")
    bare = text[1:] if neg else text
    terms = x._laurent()
    if terms is not None:
        assert _render_laurent(terms) == (text, _needs_parens(bare))
    else:
        assert not _needs_parens(bare)
    assert _scalar_piece(x, "") == (neg, "(" + bare + ")" if _needs_parens(bare) else bare)


# --- strided Laurent values ---------------------------------------------------
#
# A Laurent value is packed at its stride, s^e * p(s^k) / c.  The operands
# here are polynomials in s^k for k in {1, 2, 3, 4, 8} at every shift
# residue, mixed with one-term values, s^-1 and the general operands above;
# every result must equal the dense reference and be in canonical form.


def _slots(x):
    return x._e, x._p, x._k, x._c, x._g


def _check_canonical(x):
    """The stride invariant, and one representation per value."""
    assert _slots(Scalar(x.num, x.den)) == _slots(x)
    p, k = x._p, x._k
    if p is None or not p:
        return
    assert p[0] and p[-1] and x._c > 0
    if len(p) == 1:
        assert k == 0
    else:
        assert k > 0 and gcd(*[i for i, a in enumerate(p) if a]) == 1


def _packed(k, e, body, c):
    """The Scalar s^e * body(s^k) / c, built from its dense pair."""
    dense = [0] * ((len(body) - 1) * k + 1)
    dense[::k] = body
    if e >= 0:
        return Scalar((0,) * e + tuple(dense), (c,))
    return Scalar(tuple(dense), (0,) * -e + (c,))


@st.composite
def strided_parts(draw, min_len=1, max_len=40, max_span=None):
    """(k, e, body, c) for s^e * body(s^k) / c: body has min_len..max_len
    coefficients (a dense span of at most max_span), nonzero ends, and the
    shift e ranges over every residue mod k."""
    k = draw(st.sampled_from([1, 2, 3, 4, 8]))
    if max_span is not None:
        max_len = max(min_len, min(max_len, (max_span - 1) // k + 1))
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    body = [rnd.choice((0, 1, -1, 2, -3, rnd.randint(-99, 99))) for _ in range(n)]
    body[0] = draw(_coef.filter(bool))
    body[-1] = draw(_coef.filter(bool))
    e = draw(st.integers(min_value=0, max_value=k - 1)) + k * draw(
        st.integers(min_value=-3, max_value=3))
    return k, e, body, draw(st.sampled_from([1, 1, 2, 3, 6]))


def strided(**kw):
    return strided_parts(**kw).map(lambda t: _packed(*t))


_one_term = st.tuples(_coef.filter(bool), st.integers(min_value=-9, max_value=9)).map(
    lambda t: t[0] * Scalar.s_power(t[1]))
_strided_operand = st.one_of(
    strided(), strided(), _one_term, st.just(lam), st.just(ONE), _kernel_operand)


@st.composite
def strided_pairs(draw, **kw):
    """(x, y) with x strided and y drawn so that cancellation is common:
    y = x(-s^k) makes x*y even in s^k, and y = w - x makes x + y = w, whose
    stride may be a multiple of both operands'; otherwise y is independent."""
    k, e, body, c = draw(strided_parts(**kw))
    x = _packed(k, e, body, c)
    how = draw(st.sampled_from(["mirror", "complement", "free", "free"]))
    if how == "mirror":
        flipped = [-a if i % 2 else a for i, a in enumerate(body)]
        y = _packed(k, draw(st.integers(min_value=-9, max_value=9)), flipped, c)
    elif how == "complement":
        w = draw(strided(**kw))
        y = w - x
    else:
        y = draw(st.one_of(strided(**kw), _strided_operand))
    return (y, x) if draw(st.booleans()) else (x, y)


def test_cancellation_raises_the_stride():
    q2 = q ** 2
    x = (ONE + q2) * (ONE - q2)
    assert x == ONE - q ** 4 and (x._p, x._k) == ((1, -1), 8)
    y = (ONE + q2 + q ** 4) - q2
    assert y == ONE + q ** 4 and (y._p, y._k) == ((1, 1), 8)
    # mixed strides: a q^2-polynomial with s^-1 and with a one-term value
    z = ONE + q2
    assert ((z + lam)._e, (z + lam)._k, (z + lam)._p) == (-1, 1, (1, 1, 0, 0, 0, 1))
    assert ((z * lam)._e, (z * lam)._k) == (-1, 4)
    assert ((z + 3 * q)._k, (z * (3 * q))._k) == (2, 4)
    for v in (x, y, z + lam, z * lam, z + 3 * q, z * 3 * q, x * (ONE + q2), y - ONE):
        _check_canonical(v)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.one_of(strided_pairs(), st.tuples(_strided_operand, _strided_operand)),
       st.integers(min_value=-3, max_value=5))
def test_strided_kernel_matches_dense_reference(pair, k):
    x, y = pair
    _check_canonical(x)
    _check_canonical(y)
    for got, want in _reference_cases(x, y, k):
        assert (got.num, got.den) == want
        _check_canonical(got)


@seed(20261019)
@settings(max_examples=25, deadline=None)
@given(strided_pairs(min_len=50, max_len=800, max_span=800),
       st.integers(min_value=-1, max_value=2))
def test_long_strided_kernel_matches_dense_reference(pair, k):
    # the quotient is exact, so the Q[s] gcd stops after one pseudo-division;
    # that of two unrelated long polynomials would take seconds in the general
    # path, which the short draws cover
    x, y = pair
    for got, want in _reference_cases(x, y, k, dividend=x * y):
        assert (got.num, got.den) == want
        _check_canonical(got)


# --- the product table of multi-term Laurent tuples -------------------------


def _table_operands():
    """Multi-term Laurent values: strides 1, 2, 4 and 8, c != 1, and
    pairs whose product cancels down to a higher stride."""
    q2 = q ** 2
    fixed = [ONE + q2, ONE - q2, ONE + q, (ONE + q) / 3, (ONE - q2 + q ** 4) / 2,
             ONE + q ** 4, two_q, mu, lam + s, (2 * s - lam ** 3) / 6]
    rng = random.Random(7919)
    drawn = []
    while len(drawn) < 12:
        k = rng.choice([1, 2, 3, 4, 8])
        body = [rng.choice((0, 1, -1, 2, -3)) for _ in range(rng.randint(2, 6))]
        body[0] = body[-1] = rng.choice((1, -1, 2, 5))
        x = _packed(k, rng.randint(-9, 9), body, rng.choice([1, 2, 3, 6]))
        if x._p is not None and len(x._p) > 1:
            drawn.append(x)
    return fixed + drawn


def _check_table_products(pairs):
    """Each product equals the dense reference (the product case of
    _reference_cases), satisfies got * den(x) * den(y) = num(x) * num(y) *
    den(got) in sympy's Z[s], and is in canonical form."""
    import sympy

    t = sympy.Symbol("s")

    def poly(p):
        return sympy.Poly(list(reversed(p)), t, domain="ZZ")

    for x, y in pairs:
        got = x * y
        assert (got.num, got.den) == _canonical(pmul(x.num, y.num), pmul(x.den, y.den))
        assert (poly(got.num) * poly(x.den) * poly(y.den)
                == poly(x.num) * poly(y.num) * poly(got.den))
        _check_canonical(got)


def test_product_table_cold_and_warm_matches_references():
    ops = _table_operands()
    assert all(len(x._p) > 1 for x in ops)
    pairs = [(x, y) for x in ops for y in ops]
    _laurent_product.cache_clear()
    _check_table_products(pairs)  # cold: every distinct product is a miss
    misses = _laurent_product.cache_info().misses
    assert misses > 0
    _check_table_products(pairs)  # warm: read back from the table
    info = _laurent_product.cache_info()
    assert info.misses == misses and info.hits >= len(pairs)


def test_product_table_entries():
    q2 = q ** 2
    _laurent_product.cache_clear()
    x, y = ONE + q2, ONE - q2
    # cancellation raises the stride from 4 to 8
    assert _laurent_product(x._p, x._k, y._p, y._k) == ((1, -1), 8)
    assert (x * y)._p == (1, -1) and (x * y)._k == 8
    # mixed strides 4 and 2 multiply at stride 2
    z = ONE + q
    assert z._k == 2 and _laurent_product(x._p, 4, z._p, 2) == ((1, 1, 1, 1), 2)
    assert x * z == ONE + q + q2 + q ** 3
    # the table keys the tuples alone: the denominators c stay outside it
    w = (x / 2) * (z / 3)
    assert w == (ONE + q + q2 + q ** 3) / 6 and w._c == 6
    assert _laurent_product.cache_info().hits >= 1


def test_product_table_is_bounded():
    maxsize = _laurent_product.cache_info().maxsize
    assert maxsize == 4096
    _laurent_product.cache_clear()
    base = ONE + s
    for n in range(1, maxsize + 200):
        base * (ONE + n * s)
    info = _laurent_product.cache_info()
    assert info.misses == maxsize + 199 and info.currsize <= maxsize
    _check_table_products([(base, ONE + 5 * s), (base, ONE + (maxsize + 100) * s)])


def test_wrong_table_entry_fails_the_check(monkeypatch):
    # a table that returns a wrong entry must fail the references above
    good = _laurent_product

    def wrong(pa, ka, pb, kb):
        p, k = good(pa, ka, pb, kb)
        return p[:-1] + (p[-1] + 1,), k

    monkeypatch.setattr(scalars_module, "_laurent_product", wrong)
    ops = _table_operands()
    for x, y in [(ops[0], ops[1]), (ops[3], ops[4])]:
        with pytest.raises(AssertionError):
            _check_table_products([(x, y)])


# --- the sum table of short Laurent tuples ----------------------------------


def _sum_operands():
    """The fixed multi-term operands of the product table, one-term values
    and values whose sums cancel, raise the stride or mix strides and
    denominators: few enough that every sum and difference of two of them
    fits in the table."""
    q2 = q ** 2
    return _table_operands()[:10] + [
        ONE, 3 * q, lam, s ** 3 / 2, -(q ** -5) / 6, ONE - q2, -(ONE - q2),
        q2 * (ONE + q ** 4), q2 + q ** 6, ONE + q2 + q ** 4, (q + s) / 4]


def _check_table_sums(pairs):
    """x + y and x - y equal the dense reference, satisfy (x +- y) den(x)
    den(y) = num(x) den(y) +- num(y) den(x) times den(got) in sympy's Z[s],
    and are in canonical form."""
    import sympy

    t = sympy.Symbol("s")

    def poly(p):
        return sympy.Poly(list(reversed(p)), t, domain="ZZ")

    for x, y in pairs:
        for sub, got in ((False, x + y), (True, x - y)):
            yn = pneg(y.num) if sub else y.num
            num = padd(pmul(x.num, y.den), pmul(yn, x.den))
            assert (got.num, got.den) == _canonical(num, pmul(x.den, y.den))
            assert (poly(got.num) * poly(x.den) * poly(y.den)
                    == poly(num) * poly(got.den))
            _check_canonical(got)


def test_sum_table_cold_and_warm_matches_references():
    ops = _sum_operands()
    assert all(x._p is not None and len(x._p) <= 16 for x in ops)
    pairs = [(x, y) for x in ops for y in ops]
    _laurent_sum.cache_clear()
    _check_table_sums(pairs)  # cold: every distinct sum is a miss
    info = _laurent_sum.cache_info()
    assert info.misses > 0 and info.currsize == info.misses
    _check_table_sums(pairs)  # warm: read back from the table
    warm = _laurent_sum.cache_info()
    assert warm.misses == info.misses and warm.hits - info.hits >= len(pairs)


def test_sum_table_examples():
    q2 = q ** 2
    _laurent_sum.cache_clear()
    # a sum that cancels is ZERO itself
    x = (ONE - q2 + q ** 4) / 2
    assert x + (-x) is ZERO and (ONE + q) - (q + ONE) is ZERO
    # cancellation raises the stride: to 0 for one term, from 4 to 8
    two = (ONE + q2) + (ONE - q2)
    assert two == 2 and (two._p, two._k) == ((2,), 0)
    y = (ONE + q2 + q ** 4) - q2
    assert y == ONE + q ** 4 and (y._p, y._k) == ((1, 1), 8)
    # x - y of values equal slot for slot is decided before the table, so
    # this one is summed through _plus itself
    assert _plus(q2 * (ONE + q ** 4), q2 + q ** 6, True) is ZERO
    # mixed strides (4, 2 and 1 with s^-1) and denominators (2, 3 and 6)
    z = (ONE + q2) / 2 + (ONE + q) / 3
    assert z == (5 * ONE + 2 * q + 3 * q2) / 6 and (z._k, z._c) == (2, 6)
    w = (ONE + q2) + lam / 3
    assert w == (3 * ONE + 3 * q2 + lam) / 3 and (w._e, w._k, w._c) == (-1, 1, 3)
    # sub in both operand orders: two entries, one the negative of the other
    u, v = ONE + q, s ** 3 * (ONE - q2)
    assert u - v == -(v - u) and u - v == u + (-v)
    for x, y in ((u, v), (v, u), (two, y), (z, w)):
        _check_table_sums([(x, y)])


def test_sum_and_its_swap_read_one_entry():
    u, v = ONE + q, s ** 3 * (ONE - q ** 2)  # shifts 0 and 3
    _laurent_sum.cache_clear()
    first = u + v
    info = _laurent_sum.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    assert v + u == first
    info = _laurent_sum.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # a difference is never swapped: v - u is its own entry
    assert v - u == -(u - v)
    assert _laurent_sum.cache_info().currsize == 3


def test_long_sums_go_round_the_table():
    def dense(n, shift=0):
        return Scalar((0,) * shift + tuple(range(1, n + 1)))

    _laurent_sum.cache_clear()
    x, y = dense(17), dense(17, shift=2)
    before = _laurent_sum.cache_info()
    for got in (x + y, y + x, x - y, x + dense(2), dense(2) - x):
        _check_canonical(got)
    _check_table_sums([(x, y), (x, dense(2)), (dense(2), x)])
    assert _laurent_sum.cache_info() == before
    # 16 entries still use the table
    dense(16) + dense(16, shift=1)
    assert _laurent_sum.cache_info().misses == before.misses + 1


def test_sum_table_is_bounded():
    maxsize = _laurent_sum.cache_info().maxsize
    assert maxsize == 1024
    base = ONE + s
    others = [ONE + n * s for n in range(1, maxsize + 200)]
    _laurent_sum.cache_clear()
    for y in others:
        base + y
    info = _laurent_sum.cache_info()
    assert info.misses == maxsize + 199 and info.currsize <= maxsize
    _check_table_sums([(base, ONE + 5 * s), (base, ONE + (maxsize + 100) * s)])


def test_wrong_sum_entry_fails_the_check(monkeypatch):
    # a table that returns a wrong entry must fail the references above
    good = _laurent_sum

    def wrong(*key):
        return good(*key) * 2

    wrong.__wrapped__ = good.__wrapped__
    monkeypatch.setattr(scalars_module, "_laurent_sum", wrong)
    ops = _sum_operands()
    for x, y in [(ops[0], ops[1]), (ops[3], ops[4])]:
        with pytest.raises(AssertionError):
            _check_table_sums([(x, y)])


# --- the table of the general path ------------------------------------------


def _general_operands():
    """True rational functions, and values that reduce back to Laurent ones."""
    q2 = q ** 2
    return [ONE / (ONE + q ** -4), (ONE + q) / (ONE + q2), (2 * q - 1) / (ONE - q2 + q ** 4),
            (ONE + q) / 3, lam / (ONE + s), mu / (ONE + q ** 3), two_q, q ** -2 - 5]


def _check_general(pairs):
    """x * y, x + y and x / y equal the dense reference and sympy."""
    import sympy

    for x, y in pairs:
        xn, xd, yn, yd = x.num, x.den, y.num, y.den
        for got, want, oracle in (
            (x * y, _canonical(pmul(xn, yn), pmul(xd, yd)), _to_sympy(x) * _to_sympy(y)),
            (x + y, _canonical(padd(pmul(xn, yd), pmul(yn, xd)), pmul(xd, yd)),
             _to_sympy(x) + _to_sympy(y)),
            (x / y, _canonical(pmul(xn, yd), pmul(xd, yn)), _to_sympy(x) / _to_sympy(y)),
        ):
            assert (got.num, got.den) == want
            assert _to_sympy(got) == sympy.cancel(oracle)
            _check_canonical(got)


def test_general_table_cold_and_warm_matches_references():
    ops = _general_operands()
    pairs = [(x, y) for x in ops for y in ops]
    _general_pair.cache_clear()
    _check_general(pairs)  # cold: every distinct general pair is a miss
    info = _general_pair.cache_info()
    assert info.misses > 0 and info.currsize == info.misses
    _check_general(pairs)  # warm: read back from the table
    warm = _general_pair.cache_info()
    assert warm.misses == info.misses and warm.hits > info.hits
    # each entry is the reference reduction of its key
    x, y = ops[0], ops[1]
    key = (pmul(x.num, y.num), pmul(x.den, y.den))
    assert _general_pair(*key) == _reduce_general(*key)


def test_general_table_is_bounded():
    maxsize = _general_pair.cache_info().maxsize
    assert maxsize == 256
    _general_pair.cache_clear()
    for n in range(1, maxsize + 50):
        ONE / (ONE + n * q)
    info = _general_pair.cache_info()
    assert info.misses == maxsize + 49 and info.currsize <= maxsize
    _check_general([(ONE / (ONE + 5 * q), q), (ONE, ONE / (ONE + (maxsize + 20) * q))])


def test_long_general_pairs_go_round_the_table():
    _general_pair.cache_clear()
    before = _general_pair.cache_info()
    # 33 entries go round the table, 32 enter it
    for n in (32, 40):
        assert (ONE / (ONE + s ** n)).den == (1,) + (0,) * (n - 1) + (1,)
    assert _general_pair.cache_info() == before
    ONE / (ONE + s ** 31)
    assert _general_pair.cache_info().misses == before.misses + 1
    # (x y) / y at dense span 200: its factors share y, so the gcd is fast
    rng = random.Random(20261022)

    def dense():
        body = [rng.randint(-9, 9) for _ in range(200)]
        body[0], body[-1] = rng.choice((1, -2, 3)), rng.choice((1, -1, 5))
        return Scalar(tuple(body), (0, 0, 0, 2))

    x, y = dense(), dense()
    before = _general_pair.cache_info()
    z = x * y
    got = z / y
    assert got == x and (got.num, got.den) == _canonical(pmul(z.num, y.den), pmul(z.den, y.num))
    _check_canonical(got)
    assert _general_pair.cache_info() == before
