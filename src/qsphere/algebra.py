"""The coordinate Hopf algebra of quantum SL(2), in PBW normal form.

Generators a, b, c, d with the standard q-commutation relations

    ba = q ab,  ca = q ac,  db = q bd,  dc = q cd,  bc = cb,
    ad = 1 + q^-1 bc,       da = 1 + q bc,

over the field of scalars Q(s), q = s^2.  Normal-form monomials are
a^i b^j c^k (l = 0) and b^j c^k d^l (i = 0); the two families overlap in
the a-and-d-free monomials.  Monomial products have a closed form by the
q-binomial theorem, memoised as the table _mono_product; an independent
adjacent-rewrite engine on free words is kept alongside for cross-checking.

The grading: a, c have degree +1 and b, d degree -1, so a monomial has
degree i - j + k - l.  All of the bundle machinery downstream keys off
this grading.
"""

from __future__ import annotations

import random
from functools import lru_cache
from importlib import import_module

from .scalars import ONE, ZERO, Scalar, _from_parts, _join_pieces, _scalar_piece

_q = Scalar.q_power


class Monomial(tuple):
    """PBW monomial a^i b^j c^k d^l with i*l = 0."""

    __slots__ = ()

    def __new__(cls, i, j, k, l):
        if min(i, j, k, l) < 0 or i * l != 0:
            raise ValueError("not a PBW monomial: a^%d b^%d c^%d d^%d" % (i, j, k, l))
        return tuple.__new__(cls, (i, j, k, l))

    def degree(self):
        """Column degree (monopole charge): a, c count +1 and b, d count -1."""
        i, j, k, l = self
        return i - j + k - l

    def left_degree(self):
        """Row degree: a, b count +1 and c, d count -1.  The antipode
        exchanges the two gradings up to sign."""
        i, j, k, l = self
        return i + j - k - l

    def __repr__(self):
        names = "abcd"
        parts = []
        for n, e in zip(names, self):
            if e == 1:
                parts.append(n)
            elif e > 1:
                parts.append(f"{n}^{e}")
        return "*".join(parts) if parts else "1"


_UNIT = Monomial(0, 0, 0, 0)


# ---------------------------------------------------------------------------
# sparse linear combinations


def accumulate(acc, items, co=None, sub=False):
    """The one multiply-accumulate kernel: add co * c (c when co is None) for
    every (key, c) pair of items, no c zero, into the dict acc in place, or
    subtract it when sub is true; a key whose coefficient cancels is dropped.
    A factor that is the unit object ONE is skipped, never multiplied."""
    if co is ONE:
        co = None
    elif co is not None and not co:
        return acc
    for k, c in items:
        if co is not None:
            c = co if c is ONE else c * co
        v = acc.get(k)
        if v is None:
            acc[k] = -c if sub else c
        else:
            v = v - c if sub else v + c
            if v:
                acc[k] = v
            else:
                del acc[k]
    return acc


def _unslice(slices):
    """The flat terms {prefix + (m,): Scalar} of slices {prefix: {m: Scalar}}."""
    return {pre + (m,): c for pre, t in slices.items() for m, c in t.items()}


class Combination:
    """A finite linear combination {key: Scalar} with no zero
    coefficients.  Every kind keys its terms by a tuple ending in a
    monomial, or by the monomial alone; the vector-space structure, the
    linear extension of memoised operator tables and the printer are
    shared by every kind."""

    __slots__ = ("terms",)

    _key = staticmethod(lambda k: k)  # coerce a key given to the constructor

    def __init__(self, terms=None):
        key = self._key
        self.terms = {key(k): c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def _wrap(cls, terms):
        """An instance holding terms as given (no zero coefficients)."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def combine(cls, pairs):
        """The sum of co * x over the (x, co) pairs of this kind, newly built."""
        acc = {}
        for x, co in pairs:
            accumulate(acc, x.terms.items(), co)
        return cls._wrap(acc)

    @classmethod
    def extend(cls, table, pairs):
        """The sum of co * table(k) over the (k, co) pairs, newly built; table
        maps a basis key to a value of this kind, usually a memoised operator
        table, and the result shares no dict with it, so callers may mutate it."""
        return cls.combine((table(k), co) for k, co in pairs)

    def copy(self):
        """A newly built copy that shares no dict with self."""
        return self._wrap(dict(self.terms))

    def _coerce(self, other):
        """other as a combination of this kind, or None; the integer 0 is
        the empty combination."""
        if type(other) is type(self):
            return other
        if isinstance(other, int) and other == 0:
            return self._wrap({})
        return None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), other.terms.items(), sub=True))

    def __rsub__(self, other):
        return -self + other

    def scale(self, co):
        if isinstance(co, int):
            co = Scalar.from_int(co)
        if not co:
            return self._wrap({})
        if co is ONE:
            return self._wrap(dict(self.terms))
        return self._wrap({k: c * co for k, c in self.terms.items()})

    def __repr__(self):
        return render_value(self)


def proportionality(x, y):
    """The Scalar lam with x = lam . y for combinations x and y of one kind,
    or None if there is none; ZERO when x = 0 and y != 0."""
    if not y:
        return None
    if not x:
        return ZERO
    k, co = next(iter(y.terms.items()))
    top = x.terms.get(k)
    if top is None:
        return None
    lam = top / co
    return lam if x == y.scale(lam) else None


# ---------------------------------------------------------------------------
# named checks, declared by each module beside the maths they check


class Check:
    """One named exact check of a suite.

    fn(opts) returns None when the check passes and a failure witness
    otherwise: a string, or the list of failing (name, witness) items.
    opts carries the seed, the bound max_n and n(default), the sample
    size.  An anchor holding a %-field names a graded family, one check
    per weight 0..opts.max_n, and then fn(opts, n) checks weight n.
    """

    __slots__ = ("anchor", "suite", "fn")

    def __init__(self, anchor, suite, fn):
        self.anchor = anchor
        self.suite = suite
        self.fn = fn

    def thunks(self, opts):
        """The (anchor, thunk) pairs of one run with options opts."""
        if "%" not in self.anchor:
            return [(self.anchor, lambda: self.fn(opts))]
        return [
            (self.anchor % n, lambda n=n: self.fn(opts, n))
            for n in range(opts.max_n + 1)
        ]


def _zero_or_witness(x):
    """None when x vanishes, a rendered witness string otherwise."""
    if not x:
        return None
    return repr(x)


def _run_items(items):
    """The (name, witness) pairs of the (name, difference) items whose
    difference does not vanish."""
    failures = []
    for name, diff in items:
        w = _zero_or_witness(diff)
        if w is not None:
            failures.append((name, w))
    return failures


@lru_cache(maxsize=64)
def _gauss_row(n):
    """Row n of Gaussian binomials G(n, v) in x = q^2, v = 0..n, as integer
    tuples: G(n, v) = G(n, v-1) (1 - x^(n-v+1)) / (1 - x^v), where the exact
    division is the running sum h[i] += h[i-v].  Bounded at 64 rows."""
    h, row = [1], [(1,)]
    for v in range(1, n + 1):
        w = n - v + 1
        h.extend([0] * w)
        for i in range(len(h) - 1, w - 1, -1):
            h[i] -= h[i - w]
        for i in range(v, len(h)):
            h[i] += h[i - v]
        del h[v * (n - v) + 1:]
        row.append(tuple(h))
    return tuple(row)


@lru_cache(maxsize=None)
def _mono_product(m1: Monomial, m2: Monomial):
    """Product of two normal-form monomials as a tuple of (Monomial,
    Scalar) pairs: the memoised multiplication table of the PBW basis.

    By the q-binomial theorem it is one row of symmetric Gaussian binomials
    [n v] = q^(-v(n-v)) G(n, v): with m = min(l1, i2), I = i1+i2-m,
    L = l1+l2-m, M = min(I, L) and n = m+M (one of m, M is 0),

        a^i1 b^j1 c^k1 d^l1 * a^i2 b^j2 c^k2 d^l2
            = sum_v q^(e+v*t) [n v] a^(I-M) b^(j1+j2+v) c^(k1+k2+v) d^(L-M)

    with e = (i2-m)(j1+k1) + (l1-m)(j2+k2) - M(j1+j2+k1+k2) and
    t = m + 2|l1-i2| - M.  G(n, v) is a polynomial in q^2 = s^4, so each
    coefficient is its row tuple at stride 4."""
    i1, j1, k1, l1 = m1
    i2, j2, k2, l2 = m2
    m = min(l1, i2)
    big_i, big_l = i1 + i2 - m, l1 + l2 - m
    big_m = min(big_i, big_l)
    n = m + big_m
    e = (i2 - m) * (j1 + k1) + (l1 - m) * (j2 + k2) - big_m * (j1 + j2 + k1 + k2)
    t = m + 2 * abs(l1 - i2) - big_m
    i, j, k, l = big_i - big_m, j1 + j2, k1 + k2, big_l - big_m
    out = []
    for v, g in enumerate(_gauss_row(n)):
        # G(n, v) has one term, at stride 0, only for v = 0 and v = n
        co = _from_parts(2 * (e + v * (t - n + v)), g, 4 if len(g) > 1 else 0, 1)
        out.append((Monomial(i, j + v, k + v, l), co))
    return tuple(out)


def _multiply_into(acc, xs, ys, co=None):
    """Add co * x * y (x * y when co is None) into the dict acc, for the term
    dicts xs and ys: the one product loop of elements.  co is folded into each
    coefficient of x, and each pair's _mono_product row goes to accumulate;
    a factor that is ONE is skipped."""
    for m1, c1 in xs.items():
        if co is not None and co is not ONE:
            c1 = co if c1 is ONE else c1 * co
        for m2, c2 in ys.items():
            accumulate(acc, _mono_product(m1, m2),
                       c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2)
    return acc


class AlgebraElement(Combination):
    """A finite Q(s)-linear combination of normal-form monomials."""

    __slots__ = ()

    @staticmethod
    def one():
        return AlgebraElement({_UNIT: ONE})

    @staticmethod
    def gen(name):
        e = [0, 0, 0, 0]
        e["abcd".index(name)] = 1
        return AlgebraElement({Monomial(*e): ONE})

    def _coerce(self, other):
        """Integers are multiples of the unit."""
        if isinstance(other, int):
            return AlgebraElement({_UNIT: Scalar.from_int(other)})
        return super()._coerce(other)

    def __mul__(self, other):
        if other.__class__ is not AlgebraElement:
            if isinstance(other, (int, Scalar)):
                return self.scale(other)
            if not isinstance(other, AlgebraElement):
                return NotImplemented
        return AlgebraElement._wrap(_multiply_into({}, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of an algebra element")
        # square and multiply, as Scalar.__pow__: about 2*log2(n) products
        out, base = AlgebraElement.one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def degree(self):
        """Degree of a homogeneous element (0 for the zero element)."""
        degs = {m.degree() for m in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element has no degree")
        return degs.pop() if degs else 0

    def _pieces(self, tail=""):
        """(negative, text) per term, each term printed with tail appended;
        degree-0 monomials are spelled in the sphere generators."""
        spherical = bool(self.terms) and all(m.degree() == 0 for m in self.terms)
        out = []
        for m in sorted(self.terms):
            co = self.terms[m]
            if m == _UNIT:
                mtext = ""
            elif spherical:
                kappa, mtext = _sphere_factor(m)
                co = co / kappa
            else:
                mtext = repr(m)
            out.append(_scalar_piece(co, "*".join(t for t in (mtext, tail) if t)))
        return out


# handy module-level generators
a = AlgebraElement.gen("a")
b = AlgebraElement.gen("b")
c = AlgebraElement.gen("c")
d = AlgebraElement.gen("d")
one = AlgebraElement.one()
# the generators of the sphere, the degree-0 subalgebra
bm = a * b
b0 = b * c
bp = c * d


def degree_split(x: AlgebraElement):
    """Split into graded pieces: {degree: piece}, zero pieces omitted."""
    out = {}
    for m, co in x.terms.items():
        g = m.degree()
        piece = out.setdefault(g, AlgebraElement())
        piece.terms[m] = co
    return out


def require_degree(x: AlgebraElement, n: int, message: str):
    """Raise ValueError(message) unless every monomial of x has degree n."""
    if any(m.degree() != n for m in x.terms):
        raise ValueError(message)


# ---------------------------------------------------------------------------
# the free-word rewrite engine (independent route to the normal form)

_SWAPS = {
    ("b", "a"): ("a", "b", 1),
    ("c", "a"): ("a", "c", 1),
    ("d", "b"): ("b", "d", 1),
    ("d", "c"): ("c", "d", 1),
    ("c", "b"): ("b", "c", 0),
}


def _word_redexes(w):
    """All redex positions in a free word; each entry (pos, kind, extra)."""
    out = []
    for p in range(len(w) - 1):
        pair = (w[p], w[p + 1])
        if pair in _SWAPS:
            out.append((p, "swap", None))
        elif pair == ("d", "a"):
            out.append((p, "da", None))
        elif pair == ("a", "d"):
            out.append((p, "ad", 0))
    # a (b|c)^m d blocks, the non-adjacent straightening rule
    for p in range(len(w)):
        if w[p] != "a":
            continue
        r = p + 1
        while r < len(w) and w[r] in "bc":
            r += 1
        if r < len(w) and w[r] == "d" and r > p + 1:
            out.append((p, "ad", r - p - 1))
    return out


def _apply_redex(w, redex):
    """Rewrite one redex; returns [(word, Scalar), ...]."""
    p, kind, extra = redex
    if kind == "swap":
        x, y, e = _SWAPS[(w[p], w[p + 1])]
        return [(w[:p] + (x, y) + w[p + 2:], _q(e))]
    if kind == "da":
        # da = 1 + q bc
        return [
            (w[:p] + w[p + 2:], ONE),
            (w[:p] + ("b", "c") + w[p + 2:], _q(1)),
        ]
    # a (b|c)^m d = q^-m ( (b|c)^m + q^-1 b (b|c)^m c )
    m = extra
    mid = w[p + 1: p + 1 + m]
    rest = w[p + m + 2:]
    return [
        (w[:p] + mid + rest, _q(-m)),
        (w[:p] + ("b",) + mid + ("c",) + rest, _q(-m - 1)),
    ]


def _word_to_monomial(w):
    i = w.count("a")
    l = w.count("d")
    if i and l:
        raise ValueError("word %r still holds both a and d" % ("".join(w),))
    return Monomial(i, w.count("b"), w.count("c"), l)


def normalize(word, strategy="left"):
    """Normal form of a free word (iterable of generator names).

    strategy picks which redex fires first: "left" (leftmost) or
    "right" (rightmost).  Both must agree; the acceptance tests lean
    on that confluence.
    """
    work = {tuple(word): ONE}
    done = {}
    steps = 0
    while work:
        steps += 1
        if steps >= 200000:
            raise RuntimeError("rewrite did not terminate")
        w, coeff = work.popitem()
        redexes = _word_redexes(w)
        if not redexes:
            accumulate(done, ((_word_to_monomial(w), coeff),))
            continue
        redex = min(redexes) if strategy == "left" else max(redexes)
        accumulate(work, _apply_redex(w, redex), coeff)
    return AlgebraElement._wrap(done)


# ---------------------------------------------------------------------------
# Hopf structure


class TensorSquare(Combination):
    """An element of the algebra tensored with itself (over the scalars)."""

    __slots__ = ()

    @staticmethod
    def of(x: AlgebraElement, y: AlgebraElement):
        return TensorSquare._wrap({
            (m1, m2): c1 * c2
            for m1, c1 in x.terms.items()
            for m2, c2 in y.terms.items()
        })

    def __mul__(self, other):
        """Componentwise product (the tensor-product algebra structure)."""
        by_left = {}
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                c12 = c1 * c2
                ys = _mono_product(y1, y2)
                for mx, cx in _mono_product(x1, x2):
                    accumulate(by_left.setdefault((mx,), {}), ys, c12 * cx)
        return TensorSquare._wrap(_unslice(by_left))

    def items(self):
        return self.terms.items()

    def by_leg(self, leg):
        """{monomial on leg 0 or 1: the element its terms carry on the other leg},
        newly built; no slice is zero, and the slices sum back to self."""
        out = {}
        for mm, co in self.terms.items():
            out.setdefault(mm[leg], {})[mm[1 - leg]] = co
        return {m: AlgebraElement._wrap(t) for m, t in out.items()}

    def map_legs(self, fl, fr):
        """Sum of fl(x) * fr(y) over all x (x) y terms, as an element;
        fl and fr are called once per distinct monomial of their leg."""
        left, right, out = {}, {}, {}
        for (mx, my), co in self.terms.items():
            x = left.get(mx)
            if x is None:
                x = left[mx] = fl(AlgebraElement._wrap({mx: ONE})).terms
            y = right.get(my)
            if y is None:
                y = right[my] = fr(AlgebraElement._wrap({my: ONE})).terms
            _multiply_into(out, x, y, co)
        return AlgebraElement._wrap(out)

    def _pieces(self):
        return [
            _scalar_piece(co, "%r(x)%r" % mm) for mm, co in sorted(self.terms.items())
        ]


@lru_cache(maxsize=None)
def _delta_generators():
    return {
        "a": TensorSquare.of(a, a) + TensorSquare.of(b, c),
        "b": TensorSquare.of(a, b) + TensorSquare.of(b, d),
        "c": TensorSquare.of(c, a) + TensorSquare.of(d, c),
        "d": TensorSquare.of(c, b) + TensorSquare.of(d, d),
    }


@lru_cache(maxsize=None)
def _coproduct_mono(m: Monomial):
    dg = _delta_generators()
    out = TensorSquare.of(one, one)
    i, j, k, l = m
    for name, e in zip("abcd", (i, j, k, l)):
        for _ in range(e):
            out = out * dg[name]
    return out


def coproduct(x: AlgebraElement) -> TensorSquare:
    if len(x.terms) == 1:
        ((m, co),) = x.terms.items()
        if co is ONE:
            return _coproduct_mono(m).copy()
    return TensorSquare.extend(_coproduct_mono, x.terms.items())


def counit(x: AlgebraElement) -> Scalar:
    """The counit: a, d -> 1 and b, c -> 0."""
    out = ZERO
    for (_, j, k, _), co in x.terms.items():
        if j == k == 0:
            out = out + co
    return out


def antipode(x: AlgebraElement) -> AlgebraElement:
    """The antipode: a <-> d, b -> -q b, c -> -q^-1 c, antimultiplicative."""
    out = {}
    for (i, j, k, l), co in x.terms.items():
        sign = ONE if (j + k) % 2 == 0 else -ONE
        # S(d)^l S(c)^k S(b)^j S(a)^i is a multiple of the monomial a^l b^j c^k d^i
        out[tuple.__new__(Monomial, (l, j, k, i))] = co * sign * _q(j - k)
    return AlgebraElement._wrap(out)


def verify_hopf_axioms(sample_size=100, seed=42):
    """Check the Hopf axioms on the generators plus random words.

    Coassociativity and the counit/antipode axioms are exact identities
    here, so any failure raises ArithmeticError naming the word.
    """
    rng = random.Random(seed)
    words = [("a",), ("b",), ("c",), ("d",)]
    for _ in range(sample_size):
        n = rng.randint(1, 6)
        words.append(tuple(rng.choice("abcd") for _ in range(n)))

    for w in words:
        x = normalize(w)
        dx = coproduct(x)

        # coassociativity: (Delta (x) id) Delta x = (id (x) Delta) Delta x,
        # summed per untouched leg and compared as flat triple-tensor dicts
        left, right = {}, {}
        for (m1, m2), co in dx.items():
            accumulate(left.setdefault(m2, {}), _coproduct_mono(m1).items(), co)
            accumulate(right.setdefault(m1, {}), _coproduct_mono(m2).items(), co)
        left = {(n1, n2, m2): c for m2, t in left.items() for (n1, n2), c in t.items()}
        right = {(m1,) + nn: c for m1, t in right.items() for nn, c in t.items()}
        if left != right:
            raise ArithmeticError(f"coassociativity fails on {w}")

        # counit axiom
        lhs = dx.map_legs(lambda u: counit(u) * one, lambda u: u)
        rhs = dx.map_legs(lambda u: u, lambda u: counit(u) * one)
        if lhs != x or rhs != x:
            raise ArithmeticError(f"counit axiom fails on {w}")

        # antipode axiom: m(S (x) id) Delta = unit . counit = m(id (x) S) Delta
        target = one.scale(counit(x))
        s_left = dx.map_legs(antipode, lambda u: u)
        s_right = dx.map_legs(lambda u: u, antipode)
        if s_left != target or s_right != target:
            raise ArithmeticError(f"antipode axiom fails on {w}")

        # gradation behaves: S carries row degree to minus column degree
        # (it transposes the defining corepresentation) and vice versa
        by_row = {}
        for m, co in x.terms.items():
            by_row.setdefault(m.left_degree(), AlgebraElement()).terms[m] = co
        for g, piece in by_row.items():
            sp = antipode(piece)
            if sp and {m.degree() for m in sp.terms} != {-g}:
                raise ArithmeticError(f"antipode misses the row grading on {w}")
        for g, piece in degree_split(x).items():
            sp = antipode(piece)
            if sp and {m.left_degree() for m in sp.terms} != {-g}:
                raise ArithmeticError(f"antipode misses the column grading on {w}")
    return True


def _confluence_witness(opts):
    """The leftmost- and rightmost-redex rewrites agree on sampled words."""
    rng = random.Random(opts.seed + 1)
    for _ in range(opts.n(200)):
        word = [rng.choice("abcd") for _ in range(rng.randrange(7))]
        if normalize(word, "left") - normalize(word, "right"):
            return "strategies disagree on " + "".join(word)


CHECKS = (
    Check("hopf-axioms", "hopf",
          lambda o: verify_hopf_axioms(sample_size=o.n(100), seed=o.seed + 42)),
    Check("pbw-confluence", "hopf", _confluence_witness),
)


# ---------------------------------------------------------------------------
# the operators of the expression grammar
#
# name -> (operator, domain).  Each operator reads its function off its
# layer when it is called, so the registry loads no layer above this one
# and a call reaches whatever function the layer holds under that name
# (S and eps too: they read this module's globals).  The domain names the
# kinds of value an operator takes; cli._DOMAINS says how the CLI lifts a
# value into it and words a value outside it.


def _layer(name):
    return import_module("." + name, __package__)


OPERATORS = {
    "d": (lambda x: _layer("calculus").d(x), "element or form"),
    "del": (lambda f: _layer("sphere").del_split(f)[0], "sphere element"),
    "delbar": (lambda f: _layer("sphere").del_split(f)[1], "sphere element"),
    "star": (lambda x: _layer("sphere").hodge_star(x), "form"),
    "nabla": (lambda tau: _layer("riemann").nabla(tau), "one-form"),
    "dirac": (lambda sigma: _layer("spin").dirac(sigma), "spinor"),
    "lap": (lambda f: _layer("sphere").laplacian(f), "sphere element"),
    "S": (lambda x: antipode(x), "element"),
    "eps": (lambda x: counit(x), "element"),
}


# ---------------------------------------------------------------------------
# the printer: one grammar-compatible text for every kind of value
#
# A value prints as a sum of coefficient*atoms pieces, a leading minus
# written "0 - ..." so that the text parses back to the same value; the
# piece and sum rules live next to render_scalar, which Scalar.__repr__
# shares.
# Degree-0 monomials are printed through the sphere generators bm, b0,
# bp (dividing out the q-power the PBW reordering introduces), so that
# sphere-level results come back in sphere-level vocabulary.  Tensor
# legs use an "(x)" marker, which is display-only.


# the sphere generators by the names the printer and the CLI use
_SPHERE_GENS = {"bm": bm, "b0": b0, "bp": bp}


@lru_cache(maxsize=None)
def _sphere_factor(m):
    """(kappa, text) with m = kappa^-1 times the sphere word text."""
    i, j, k, l = m
    if i:
        powers = (("bm", i), ("b0", j - i))
    elif l:
        powers = (("bp", l), ("b0", j))
    else:
        powers = (("b0", j),)
    prod = one
    for name, e in powers:
        prod = prod * _SPHERE_GENS[name] ** e
    ((mono, kappa),) = prod.terms.items()
    if mono != m:
        raise ArithmeticError("sphere factorisation drifted off the monomial")
    return kappa, "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in powers if e)


def render_value(v):
    """Print a Scalar, element, form or tensor; reparseable except for
    the tensor marker (the grammar has no "(x)") and for scalars with a
    fractional coefficient or a non-monomial denominator (it has no "/")."""
    if isinstance(v, Scalar):
        return repr(v)
    if isinstance(v, Combination):
        return _join_pieces(v._pieces())
    raise TypeError("cannot render a %s" % type(v).__name__)
