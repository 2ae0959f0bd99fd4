"""algebra.accumulate is the one multiply-accumulate kernel, and every
product path goes through it.

Each path is checked against the generator form it replaced, written out
here: the old kernel took ready-made (key, coefficient) pairs, and every
caller built one generator per row or one element per partial sum.
"""

import random
from functools import reduce

from qsphere import algebra, bundles, calculus, riemann, sphere, spin
from qsphere.algebra import (
    AlgebraElement,
    TensorSquare,
    _mono_product,
    _multiply_into,
    a,
    accumulate,
    antipode,
    b,
    b0,
    bm,
    bp,
    c,
    coproduct,
    d as gd,
    one,
)
from qsphere.calculus import EM, EP, VOL, Form, TensorForm, _straighten_word
from qsphere.scalars import ONE, ZERO, Scalar

q = Scalar.q_power
GENS = (a, b, c, gd)


# ---------------------------------------------------------------------------
# the old generator forms


def old_accumulate(acc, items, sub=False):
    for k, co in items:
        v = acc.get(k)
        if v is None:
            if co:
                acc[k] = -co if sub else co
        else:
            v = v - co if sub else v + co
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc


def old_multiply(xs, ys, co=ONE):
    acc = {}
    for m1, c1 in xs.items():
        c1 = c1 * co
        for m2, c2 in ys.items():
            c12 = c1 * c2
            old_accumulate(acc, ((m, c12 * c) for m, c in _mono_product(m1, m2)))
    return acc


def old_extend(table, pairs):
    acc = {}
    for k, co in pairs:
        old_accumulate(acc, ((key, co * c) for key, c in table(k).terms.items()))
    return acc


def old_product(x, y, rule):
    acc = {}
    for (w1, m1), c1 in x.terms.items():
        cross = w1.crossing()
        for k2, c2 in y.terms.items():
            st = rule(w1, k2)
            if st is None:
                continue
            pre, co = st
            m2 = k2[-1]
            c12 = c1 * c2 * co
            if cross:
                c12 = c12 * q(cross * m2.degree())
            old_accumulate(acc, ((pre + (m,), c12 * c) for m, c in _mono_product(m1, m2)))
    return acc


def old_wedge_rule(w1, k2):
    st = _straighten_word(w1 + k2[0])
    return st and ((st[0],) + k2[1:-1], st[1])


def old_times(x, y):
    """x * y for elements and forms, through the old loops."""
    if type(x) is AlgebraElement and type(y) is AlgebraElement:
        return AlgebraElement._wrap(old_multiply(x.terms, y.terms))
    x, y = (v if type(v) is Form else Form.of(v) for v in (x, y))
    return Form._wrap(old_product(x, y, old_wedge_rule))


def old_plus(x, y):
    return type(x)._wrap(old_accumulate(dict(x.terms), y.terms.items()))


def old_matmul(X, Y):
    return [[reduce(old_plus, (old_times(X[i][k], Y[k][j]) for k in range(len(Y))))
             for j in range(len(Y[0]))] for i in range(len(X))]


def old_gamma(omega, sigma):
    parts = omega.by_word()
    minus, plus = spin.spinor_parts(sigma)
    acc = {}
    for w, s in ((EM, plus), (EP, minus)):
        if w in parts:
            old_accumulate(acc, old_multiply(parts[w].terms, s.terms).items())
    return AlgebraElement._wrap(acc)


# ---------------------------------------------------------------------------
# random inputs


def element(rng, length=3, degree=None):
    """A sum of a few scaled words in a, b, c, d (of one degree if given)."""
    acc = {}
    for _ in range(rng.randint(1, 3)):
        x = one
        for _ in range(rng.randint(0, length)):
            x = x * rng.choice(GENS)
        if degree is not None:
            x = x * (a if degree > x.degree() else gd) ** abs(degree - x.degree())
        co = Scalar.from_int(rng.choice((-2, -1, 1, 3))) * q(rng.randint(-3, 3))
        accumulate(acc, x.terms.items(), co)
    return AlgebraElement._wrap(acc)


def sphere_element(rng):
    x = one
    for _ in range(rng.randint(1, 3)):
        x = x * rng.choice((bm, b0, bp))
    return x + one.scale(q(rng.randint(-2, 2)))


def form(rng, words=("", "+", "-", "0", "+-", "+0", "-0", "+-0")):
    acc = {}
    for w in rng.sample(words, 2):
        accumulate(acc, Form.of(element(rng), w).terms.items())
    return Form._wrap(acc)


# ---------------------------------------------------------------------------
# the kernel


def test_accumulate_against_the_generator_form():
    rng = random.Random(11)
    for _ in range(200):
        base, other = element(rng), element(rng)
        co = rng.choice((None, ONE, -ONE, q(1), Scalar.from_int(3) * q(-2)))
        sub = rng.random() < 0.5
        got = accumulate(dict(base.terms), other.terms.items(), co, sub)
        scaled = other.terms.items() if co is None else ((k, x * co) for k, x in other.terms.items())
        assert got == old_accumulate(dict(base.terms), scaled, sub)
        assert all(got.values())


def test_accumulate_deletes_a_coefficient_that_cancels():
    x = q(2) + ONE
    for items, co, sub in (
        ([("k", -x)], None, False),
        ([("k", x)], None, True),
        ([("k", x)], -ONE, False),
        ([("k", x / 2)], Scalar.from_int(2), True),
        ([("k", ONE)], -x, False),
    ):
        acc = {"k": x, "other": ONE}
        assert accumulate(acc, items, co, sub) is acc
        assert acc == {"other": ONE}


def test_accumulate_with_co_one_zero_and_sub():
    rng = random.Random(12)
    base, other = element(rng), element(rng)
    items = list(other.terms.items())
    # co = 1 is no scale at all
    assert accumulate(dict(base.terms), items, ONE) == accumulate(dict(base.terms), items)
    assert accumulate(dict(base.terms), items, Scalar.from_int(1)) == (base + other).terms
    # co = 0 adds nothing and leaves no key behind, with or without sub
    for zero in (ZERO, Scalar.from_int(0), 0):
        for sub in (False, True):
            acc = dict(base.terms)
            accumulate(acc, items, zero, sub)
            assert acc == base.terms
            assert accumulate({}, items, zero, sub) == {}
    # sub subtracts, with and without a scale
    assert accumulate(dict(base.terms), items, sub=True) == (base - other).terms
    co = q(3) - ONE
    assert accumulate(dict(base.terms), items, co, True) == (base - other.scale(co)).terms
    assert accumulate(dict(other.terms), items, sub=True) == {}


# ---------------------------------------------------------------------------
# the paths through it


def test_element_products_and_map_legs_against_the_generator_form():
    rng = random.Random(13)
    for _ in range(60):
        x, y = element(rng), element(rng)
        assert (x * y).terms == old_multiply(x.terms, y.terms)
        co = q(rng.randint(-2, 2)) * Scalar.from_int(rng.choice((-1, 2)))
        assert _multiply_into({}, x.terms, y.terms, co) == old_multiply(x.terms, y.terms, co)
    for _ in range(10):
        x = element(rng)
        dx = coproduct(x)
        want = {}
        for (mx, my), co in dx.terms.items():
            fx = antipode(AlgebraElement({mx: ONE}))
            old_accumulate(want, old_multiply(fx.terms, {my: ONE}, co).items())
        assert dx.map_legs(antipode, lambda u: u).terms == want
    # the componentwise product of the tensor square
    for _ in range(10):
        x, y = coproduct(element(rng, 2)), coproduct(element(rng, 2))
        want = {}
        for (x1, y1), c1 in x.terms.items():
            for (x2, y2), c2 in y.terms.items():
                old_accumulate(want, (((mx, my), c1 * c2 * cx * cy)
                                      for mx, cx in _mono_product(x1, x2)
                                      for my, cy in _mono_product(y1, y2)))
        assert (x * y).terms == want and type(x * y) is TensorSquare


def test_linear_extensions_against_the_generator_form():
    rng = random.Random(14)
    for _ in range(30):
        x, f = element(rng), sphere_element(rng)
        tau = form(rng)
        assert calculus.d(x).terms == old_extend(calculus._d_mono, x.terms.items())
        assert calculus.d(tau).terms == old_extend(calculus._d_basis, tau.terms.items())
        assert sphere.laplacian(f).terms == old_extend(sphere._lap_mono, f.terms.items())
        h = element(rng, degree=rng.choice((-2, 0, 2)))
        assert bundles.covariant_D(h).terms == old_extend(bundles._covariant_D_mono,
                                                          h.terms.items())
        sigma = element(rng, degree=1) + element(rng, degree=-1)
        assert spin.dirac(sigma).terms == old_extend(spin._dirac_mono, sigma.terms.items())
    # combine is the same sum over values instead of table keys
    x, y = element(rng), element(rng)
    assert AlgebraElement.combine([(x, q(1)), (y, -ONE)]) == x.scale(q(1)) - y


def test_form_products_against_the_generator_form():
    rng = random.Random(15)
    for _ in range(40):
        x, y, f = form(rng), form(rng), element(rng)
        assert calculus.wedge(x, y).terms == old_product(x, y, old_wedge_rule)
        assert (x * f).terms == old_product(x, Form.of(f), old_wedge_rule)
        assert (f * x).terms == old_product(Form.of(f), x, old_wedge_rule)
        one_form = form(rng, ("+", "-"))
        want = old_product(x, one_form, lambda w1, k2: ((w1, k2[0][0]), ONE))
        tf = calculus.tensor(x, one_form)
        assert tf.terms == want and type(tf) is TensorForm
        assert calculus.wedge(y, tf).terms == old_product(y, tf, old_wedge_rule)
        # a sum of products is the sum of the old products
        pairs = [(x, one_form), (y, form(rng, ("+", "-")))]
        want = reduce(old_plus, (TensorForm._wrap(old_product(u, v, lambda w1, k2: (
            (w1, k2[0][0]), ONE))) for u, v in pairs))
        assert calculus.tensor_sum(pairs) == want


def old_wedge_in(tf):
    """TensorForm.wedge_in through by_slot(): one element per (word, leg)."""
    slices = {}
    for (w, leg), x in tf.by_slot().items():
        st = _straighten_word(w + (leg,))
        if st is not None:
            old_accumulate(slices.setdefault(st[0], {}), ((m, co * st[1]) for m, co in x.terms.items()))
    return {(w, m): co for w, t in slices.items() for m, co in t.items()}


def test_wedge_in_against_the_slot_route():
    rng = random.Random(18)
    vanishing = 0
    for _ in range(40):
        tau = sphere_element(rng) * sphere.DB[rng.choice("-0+")]
        if rng.random() < 0.5:
            tau = tau + sphere_element(rng) * sphere.DB[rng.choice("-0+")]
        tf = riemann.nabla(tau)
        vanishing += any(_straighten_word(w + (leg,)) is None for w, leg in tf.by_slot())
        got = tf.wedge_in()
        assert got.terms == old_wedge_in(tf) and type(got) is Form
    assert vanishing > 10  # e+ (x) e+ and e- (x) e- straighten to nothing
    # e+ (x) e- and e- (x) e+ both straighten to e+ ^ e-, here to a cancelling sum
    m = algebra.Monomial(0, 1, 1, 0)
    tf = TensorForm({(EP, "-", m): ONE, (EM, "+", m): -_straighten_word(("-", "+"))[1] ** -1,
                     (EP, "+", m): q(3)})
    assert tf.wedge_in().terms == old_wedge_in(tf) == {}
    tf = TensorForm({(EP, "-", m): ONE, (EM, "+", m): ONE})
    assert tf.wedge_in().terms == old_wedge_in(tf) == {(VOL, m): ONE - q(2)}


def test_matmul_against_reduce_add():
    rng = random.Random(16)
    e = bundles.projector(-1)
    assert sphere._matmul(e, e) == old_matmul(e, e)
    for _ in range(10):
        X = [[sphere_element(rng) for _ in range(3)] for _ in range(2)]
        Y = [[element(rng) for _ in range(2)] for _ in range(3)]
        assert sphere._matmul(X, Y) == old_matmul(X, Y)
        # a matrix with a Form column, from either side
        de = [[calculus.d(x) for x in r] for r in e]
        got = sphere._matmul(e, de)
        assert got == old_matmul(e, de) and type(got[0][0]) is Form
        col = [[calculus.d(sphere_element(rng))], [Form.of(sphere_element(rng), VOL)]]
        assert sphere._matmul(e, col) == old_matmul(e, col)
        assert sphere._matmul(de, [[a], [c]]) == old_matmul(de, [[a], [c]])
    # products that cancel leave the zero entry of their kind
    assert sphere._matmul([[a, -a]], [[b], [b]]) == [[AlgebraElement.zero()]]
    assert sphere._matmul([[a, -a]], [[Form.of(b, EP)], [Form.of(b, EP)]]) == [[Form.zero()]]


def test_gamma_and_frame_coefficients_against_the_generator_form():
    rng = random.Random(17)
    for _ in range(20):
        f = sphere_element(rng)
        omega = f * sphere.DB[rng.choice("-0+")]
        sigma = element(rng, degree=1) + element(rng, degree=-1)
        assert spin.gamma(omega, sigma) == old_gamma(omega, sigma)
        want = {}
        for w, x in omega.by_word().items():
            for r, wt in enumerate(bundles._frame_weights(w)):
                old_accumulate(want.setdefault(r, {}), old_multiply(x.terms, wt.terms).items())
        got = bundles.extract_coeffs(omega)
        assert [x.terms for x in got] == [want.get(r, {}) for r in range(3)]
    g = sphere.metric_g()
    sigma = spin.GENERATOR_SPINORS[1]
    want = {}
    for omega, eta in spin.decompose_legs(g):
        old_accumulate(want, old_gamma(omega, old_gamma(eta, sigma)).terms.items())
    assert spin.gamma_gamma(g, sigma).terms == want


# ---------------------------------------------------------------------------
# results share no dict with a memo-table value


def test_results_share_no_dict_with_a_table_value():
    key = (calculus.EP, algebra.Monomial(0, 1, 0, 0))
    table_value = calculus._d_basis(key)
    before = dict(table_value.terms)
    for got in (calculus.d(Form._wrap({key: ONE})), calculus.d(Form._wrap({key: q(1)}))):
        assert got.terms and got.terms is not table_value.terms
        got.terms.clear()
        assert calculus._d_basis(key).terms == before
    m = algebra.Monomial(0, 1, 1, 0)
    before = dict(sphere._lap_mono(m).terms)
    lap = sphere.laplacian(AlgebraElement({m: ONE}))
    lap.terms.clear()
    assert sphere._lap_mono(m).terms == before
    for x in (a, gd):
        m = next(iter(x.terms))
        before = dict(spin._dirac_mono(m).terms)
        spin.dirac(x).terms.clear()
        assert spin._dirac_mono(m).terms == before
    # a matrix product shares no dict with its factors
    e = bundles.projector(-1)
    before = [[x.copy() for x in r] for r in e]
    for row in sphere._matmul(e, [[one, AlgebraElement.zero()], [AlgebraElement.zero(), one]]):
        for x in row:
            x.terms.clear()
    assert [list(r) for r in bundles.projector(-1)] == before
    # the slices check_sphere_form hands back are new elements
    tau = sphere.DB["+"].copy()
    before = tau.copy()
    for x in calculus.check_sphere_form(tau).values():
        x.terms.clear()
    assert tau == before


# ---------------------------------------------------------------------------
# the unit object ONE is skipped, never multiplied: each loop gives the same
# terms, slot for slot, with ONE, with an equal but separate 1 and through
# the always-multiply loop it replaced


def slotted(terms):
    return {k: (c._e, c._p, c._k, c._c, c._g) for k, c in terms.items()}


def with_units(rng, x):
    """x with about half its coefficients replaced by the object ONE."""
    return type(x)._wrap({k: ONE if rng.random() < 0.5 else c for k, c in x.terms.items()})


def separate_ones(x):
    """x with every coefficient ONE replaced by an equal, separate 1."""
    return type(x)._wrap({k: Scalar((1,)) if c is ONE else c for k, c in x.terms.items()})


def test_unit_skips_against_the_always_multiply_loop():
    rng = random.Random(19)
    assert Scalar((1,)) is not ONE
    units = 0
    for _ in range(40):
        base, x, y = element(rng), with_units(rng, element(rng)), with_units(rng, element(rng))
        units += sum(c is ONE for c in x.terms.values())
        for co in (ONE, Scalar((1,)), None, q(1), -ONE):
            sub = rng.random() < 0.5
            want = old_accumulate(dict(base.terms), [(k, c if co is None else c * co)
                                                     for k, c in x.terms.items()], sub)
            for terms in (x.terms, separate_ones(x).terms):
                got = accumulate(dict(base.terms), terms.items(), co, sub)
                assert slotted(got) == slotted(want) and list(got) == list(want)
            if co is not None:
                want = old_multiply(x.terms, y.terms, co)
                for u, v in ((x, y), (separate_ones(x), separate_ones(y))):
                    got = _multiply_into({}, u.terms, v.terms, co)
                    assert slotted(got) == slotted(want) and list(got) == list(want)
                want = {k: c * co for k, c in x.terms.items()}
                got = x.scale(co)
                assert slotted(got.terms) == slotted(want) and got.terms is not x.terms
        # the form product, with unit coefficients on either side
        u, v = with_units(rng, form(rng)), with_units(rng, form(rng))
        want = old_product(u, v, old_wedge_rule)
        for s, t in ((u, v), (separate_ones(u), separate_ones(v))):
            assert slotted(calculus.wedge(s, t).terms) == slotted(want)
    assert units > 20


# ---------------------------------------------------------------------------
# the product-rule table: _product reads the key prefix, sign and crossing
# factor of each pair of words from _pair_rule instead of the whole-key rule

WORDS = ("", "+", "-", "0", "+-", "+0", "-0", "+-0")


def old_tensor_rule(w1, k2):
    return (w1, k2[0][0]), ONE


def every_word_form(rng, words=WORDS):
    acc = {}
    for w in words:
        accumulate(acc, Form.of(element(rng), w).terms.items())
    return Form._wrap(acc)


def every_slot_tensor(rng):
    return TensorForm({(w, leg, m): co for w in WORDS for leg in "+-"
                       for m, co in element(rng).terms.items()})


def test_pair_rule_against_the_whole_key_rules():
    rng = random.Random(20)
    calculus._pair_rule.cache_clear()
    vanishing = crossing = 0
    for _ in range(15):
        x, y = every_word_form(rng), every_word_form(rng)
        one_form, tf = every_word_form(rng, ("+", "-")), every_slot_tensor(rng)
        assert calculus.wedge_sum(Form, [(x, y)]).terms == old_product(x, y, old_wedge_rule)
        assert calculus.wedge_sum(TensorForm, [(x, tf), (y, tf)]).terms == old_plus(
            TensorForm._wrap(old_product(x, tf, old_wedge_rule)),
            TensorForm._wrap(old_product(y, tf, old_wedge_rule))).terms
        got = calculus.tensor_sum([(x, one_form)])
        assert got.terms == old_product(x, one_form, old_tensor_rule) and type(got) is TensorForm
        for (w1, _), _ in x.terms.items():
            for k2 in list(y.terms) + list(tf.terms):
                deg = k2[-1].degree()
                st = calculus._pair_rule(calculus._wedge_rule, w1, k2[:-1], deg)
                old = old_wedge_rule(w1, k2)
                if old is None:
                    assert st is None
                    vanishing += 1
                    continue
                pre, co = old
                if w1.crossing() and deg:
                    co = co * q(w1.crossing() * deg)
                    crossing += 1
                assert st == (pre, co)
    assert vanishing > 100 and crossing > 100
    info = calculus._pair_rule.cache_info()
    assert info.maxsize == 1024 and 0 < info.currsize <= 1024


# ---------------------------------------------------------------------------
# the one-pass sphere gate against the two-pass check it replaced


def two_pass_check_sphere_form(form):
    parts = form.by_word()
    bad = [w for w, x in parts.items() if "0" in w or {m.degree() for m in x.terms} - {-w.charge()}]
    if bad:
        w = min(bad, key=calculus._word_order)
        if "0" in w:
            raise ValueError("form does not live on the sphere (e0 present)")
        part = "coefficient of " + calculus.render_word(w) if w else "the 0-form part"
        raise ValueError("%s must have degree %d" % (part, -w.charge()))
    return parts


def gate_outcome(check, form):
    try:
        parts = check(form)
    except ValueError as exc:
        return str(exc)
    return [(w, slotted(x.terms)) for w, x in parts.items()]


def test_sphere_gate_against_the_two_pass_check():
    rng = random.Random(21)
    good = []
    for _ in range(30):
        tau = Form.of(sphere_element(rng)) + Form.of(sphere_element(rng), VOL)
        for i in rng.sample("-0+", 2):
            tau = tau + sphere_element(rng) * sphere.DB[i]
        good.append(tau)
    bad = {
        "e0": Form.of(sphere_element(rng), "0"),
        "e+": Form.of(a * a, "+"),
        "e-": Form.of(b * gd, "-"),
        "0-form": Form.of(a),
        "area": Form.of(c, VOL),
        "e0 area": Form.of(a, "+-0"),
    }
    cases = list(good)
    for tau in good[:6]:
        for name, x in bad.items():
            cases += [tau + x, x + tau]
    for x, y in ((bad["e+"], bad["0-form"]), (bad["e-"], bad["area"]), (bad["e0"], bad["e+"])):
        cases += [x + y, y + x]
    messages = set()
    for tau in cases:
        want = gate_outcome(two_pass_check_sphere_form, tau)
        assert gate_outcome(calculus.check_sphere_form, tau) == want
        if isinstance(want, str):
            messages.add(want)
    assert messages == {
        "form does not live on the sphere (e0 present)",
        "coefficient of ep must have degree -2",
        "coefficient of em must have degree 2",
        "the 0-form part must have degree 0",
        "coefficient of ep*em must have degree 0",
    }
    # a word whose monomials are of mixed degree is bad, in either order
    mixed = Form.of(bm + a * a, "-")
    assert gate_outcome(calculus.check_sphere_form, mixed) == "coefficient of em must have degree 2"
    assert gate_outcome(calculus.check_sphere_form, Form.of(a * a + bm, "-")) == (
        "coefficient of em must have degree 2")
