"""Exact coefficient field: rational functions in s over Q, with q = s^2.

Everything downstream (the quantum-group arithmetic, the differential
calculus, the spin geometry) has coefficients here.  Working in s = q^(1/2)
keeps half-integer powers of q first-class, which the Dirac eigenvalues
need.

Almost every value the engine builds is a Laurent polynomial in s: the
q-commutation factors, the monopole and metric coefficients, the Dirac
eigenvalues.  So that is how a Scalar is stored, as s^e * p(s^k) / c with
an integer shift e, a stride k >= 0, a tuple p of integer coefficients
whose first and last entries are nonzero (() for zero), and a positive
integer c coprime to the content of p.  Most of these values are
polynomials in q^2 = s^4, so packing the tuple at the stride keeps only
the nonzero slots.  The stride is canonical: 0 for a one-term value,
otherwise the gcd of the gaps between the exponents that occur, so the
positions of the nonzero entries of p have gcd 1.  A sum or product works
at the gcd of its operands' strides (and, for a sum, of their shift
difference); only when the second entry of its result is zero can
cancellation have raised the stride, and only then is it recomputed, as
in (1+q^2)(1-q^2) = 1-q^4 with stride 8.  Some results are decided before
any arithmetic: a sum with a zero operand is the other operand (negated
for 0 - y), a difference of two values equal slot for slot is ZERO (every
identity check ends in one), a product with a zero operand is ZERO, and
a Laurent value times the unit 1 = s^0 * (1,) / 1 is that value itself.
Every 1 the kernel builds is the one object ONE, so a product with it is
decided by identity, and the loops above skip it.  Otherwise multiplying
by a one-term value scales a tuple, and reducing a sum or a product costs
at most one integer gcd.  Two multi-term tuples multiply through
_laurent_product, a table bounded at 4096 entries and keyed by the
canonical (p_a, k_a, p_b, k_b): the engine meets few distinct such
products and repeats each many times.  Sums repeat as much (20 geometry
seeds: 53,796 sums, 2,639 distinct; 6,000 hopf words: 444,437, 11,988
distinct), so two Laurent values add through _laurent_sum, keyed by
(p_a, k_a, c_a, p_b, k_b, c_b, e_a - e_b, sub) with the lower shift first,
so that x + y and y + x share an entry.  It is bounded twice: at 1024
entries, and to tuples of at most 16 entries; a longer sum calls the same
function unmemoised.

Only a true rational function, whose reduced denominator is not a monomial
c*s^k (such as 1/(1+q^-4)), is kept as a reduced fraction num/den of dense
polynomials and goes through the general Q[s] gcd.  The engine meets few
such pairs, so _general_pair keeps their reductions, bounded as
_laurent_sum is: at 256 entries, and to pairs of at most 32 entries.
Either way the value has one canonical dense pair (num, den), read
through properties; negative powers of s live in den.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as _igcd


# ---------------------------------------------------------------------------
# dense Z[s] helpers; a polynomial is a tuple of ints, index = exponent,
# no trailing zeros, () is the zero polynomial


def _trim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def padd(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _trim(out)


def pneg(f):
    return tuple([-c for c in f])


def pmul(f, g):
    """Product of two trimmed polynomials; it is trimmed, because the
    product of the two leading coefficients is its last entry."""
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    g = [(j, b) for j, b in enumerate(g) if b]
    for i, a in enumerate(f):
        if a:
            for j, b in g:
                out[i + j] += a * b
    return tuple(out)


def pcontent(f):
    return _igcd(*f)


def pprimitive(f):
    """Primitive part with positive leading coefficient."""
    if not f:
        return ()
    c = pcontent(f)
    if f[-1] < 0:
        c = -c
    return tuple(a // c for a in f)


def pdiv_exact(f, g):
    """Quotient f/g in Z[s]; raises ArithmeticError unless g divides f there.

    When g is primitive and divides f in Q[s], the quotient is integral (Gauss's
    lemma), so integer long division never meets a remainder on the way.
    """
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    if not f:
        return ()
    r = list(f)
    n = len(g) - 1
    lg = g[-1]
    q = [0] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        coef, rem = divmod(r[k + n], lg)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if coef:
            q[k] = coef
            for j, b in enumerate(g):
                r[k + j] -= coef * b
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _trim(q)


def _pprem(f, g):
    """Pseudo-remainder of f by g (both nonzero, deg f >= deg g)."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    while len(r) - 1 >= dg and _trim(r):
        r = _trim(r)
        if not r or len(r) - 1 < dg:
            break
        lr = r[-1]
        shift = len(r) - 1 - dg
        r = [lg * c for c in r]
        for j, b in enumerate(g):
            r[shift + j] -= lr * b
        r = list(_trim(r))
    return _trim(r)


def pgcd(f, g):
    """Gcd in Q[s], returned primitive with positive leading coefficient."""
    f, g = pprimitive(f), pprimitive(g)
    if not f:
        return g
    if not g:
        return f
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = pprimitive(_pprem(f, g))
        f, g = g, r
    return f


def peval(f, s0: Fraction) -> Fraction:
    from fractions import Fraction
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * s0 + c
    return acc


_ONE = (1,)


def _reduce_general(num, den):
    """Canonical (num, den) of num/den through the Q[s] gcd.

    num and den are trimmed and nonzero.  This is the rule for every
    denominator; Scalar keeps its result for those that are not monomials,
    and the tests use it as the reference for the Laurent arithmetic.
    """
    g = pgcd(num, den)
    if len(g) > 1 or g != _ONE:
        num = pdiv_exact(num, g)
        den = pdiv_exact(den, g)
    r = _igcd(pcontent(num), pcontent(den))
    if r > 1:
        num = tuple(c // r for c in num)
        den = tuple(c // r for c in den)
    if den[-1] < 0:
        num, den = pneg(num), pneg(den)
    return num, den


@lru_cache(maxsize=256)
def _general_pair(num, den):
    """The bounded table of the general path: _reduce_general(num, den)."""
    return _reduce_general(num, den)


# ---------------------------------------------------------------------------
# the stride of a Laurent tuple


def _spread(p, r):
    """The tuple p with r - 1 zeros between consecutive entries, as a list
    (p itself when r < 2)."""
    if r < 2:
        return p
    out = [0] * ((len(p) - 1) * r + 1)
    out[::r] = p
    return out


def _restride(p, k):
    """(p, stride) in canonical form for a trimmed tuple p with p[0] != 0
    whose entries sit k apart: stride 0 for one term, else k times the gcd
    of the positions of the nonzero entries, which is 1 when p[1] != 0."""
    n = len(p)
    if n == 1:
        return p, 0
    if p[1]:
        return p, k
    r = _igcd(*[i for i in range(2, n) if p[i]])
    return (p[::r] if r > 1 else p), k * r


@lru_cache(maxsize=4096)
def _laurent_product(pa, ka, pb, kb):
    """(p, k) of p_a(s^k_a) * p_b(s^k_b) for two canonical multi-term
    tuples: the bounded product table of the Laurent kernel.  It multiplies
    at the common stride; cancellation can raise it."""
    k = ka if ka == kb else _igcd(ka, kb)
    if ka != k:
        pa = _spread(pa, ka // k)
    if kb != k:
        pb = _spread(pb, kb // k)
    return _restride(pmul(pa, pb), k)


# ---------------------------------------------------------------------------
# internal constructors; they bypass Scalar.__init__


_new = object.__new__


def _from_parts(e, p, k, c):
    """s^e * p(s^k) / c for a trimmed p with p[0] != 0 in canonical stride
    k and c > 0, reduced by the gcd of c and the content of p."""
    if c != 1:
        r = _igcd(c, *p)
        if r != 1:
            p = tuple(a // r for a in p)
            c //= r
    if not e and c == 1 and p == _ONE:
        return ONE
    out = _new(Scalar)
    out._e, out._p, out._k, out._c, out._g = e, p, k, c, None
    return out


def _from_pair(num, den):
    """num/den for raw dense polynomials, trailing zeros allowed."""
    num = _trim(num)
    den = _trim(den)
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        return ZERO
    k = len(den) - 1
    if k and any(den[:k]):
        # pairs longer than 32 entries go round the table
        table = _general_pair if len(num) <= 32 and len(den) <= 32 else _reduce_general
        num, den = table(num, den)
        k = len(den) - 1
        if k and any(den[:k]):
            out = _new(Scalar)
            out._e, out._p, out._k, out._c, out._g = 0, None, 0, 0, (num, den)
            return out
    v = 0
    while not num[v]:
        v += 1
    c = den[k]
    p = num[v:]
    if c < 0:
        p, c = pneg(p), -c
    p, stride = _restride(p, 1)
    return _from_parts(v - k, p, stride, c)


@lru_cache(maxsize=1024)
def _laurent_sum(pa, ka, ca, pb, kb, cb, d, sub):
    """s^d p_a(s^k_a) / c_a + p_b(s^k_b) / c_b (- when sub is true) over
    s^min(d, 0), so that its shift is the sum's above the lower operand
    shift: the bounded sum table of the Laurent kernel.  It aligns on a
    common denominator and a common stride g, adds and strips both ends;
    g == 0 only for two one-term values with one shift."""
    c = ca
    if c != cb:
        r = _igcd(c, cb)
        fa, fb = cb // r, c // r
        c *= fa
        pa = [fa * a for a in pa]
        pb = [fb * b for b in pb]
    g = _igcd(ka, kb, d)
    if g == 0:
        a = pa[0] - pb[0] if sub else pa[0] + pb[0]
        return _from_parts(0, (a,), 0, c) if a else ZERO
    if ka != g:
        pa = _spread(pa, ka // g)
    if kb != g:
        pb = _spread(pb, kb // g)
    ia, ib = (d // g, 0) if d > 0 else (0, -d // g)
    na, nb = ia + len(pa), ib + len(pb)
    end = na if na > nb else nb
    out = [0] * end
    out[ia:na] = pa
    if sub:
        for i, b in enumerate(pb, ib):
            out[i] -= b
    else:
        for i, b in enumerate(pb, ib):
            out[i] += b
    lo = 0
    while lo < end and not out[lo]:
        lo += 1
    if lo == end:
        return ZERO
    while not out[end - 1]:
        end -= 1
    p, k = _restride(tuple(out[lo:end]), g)
    return _from_parts(lo * g, p, k, c)


def _plus(x, y, sub):
    """x + y, or x - y when sub is true, for nonzero x and y."""
    pa, pb = x._p, y._p
    if pa is None or pb is None:
        yn = pneg(y.num) if sub else y.num
        return _from_pair(padd(pmul(x.num, y.den), pmul(yn, x.den)), pmul(x.den, y.den))
    # a sum puts the lower shift first, so x + y and y + x share an entry;
    # tuples longer than 16 entries go round the table
    ea, eb = x._e, y._e
    if eb < ea and not sub:
        x, y, pa, pb, ea, eb = y, x, pb, pa, eb, ea
    table = _laurent_sum if len(pa) <= 16 and len(pb) <= 16 else _laurent_sum.__wrapped__
    z = table(pa, x._k, x._c, pb, y._k, y._c, ea - eb, sub)
    e = ea if ea < eb else eb
    if not e or z is ZERO:
        return z  # values are immutable, so the table's own
    e += z._e
    if not e and z._p == _ONE and z._c == 1:
        return ONE
    out = _new(Scalar)
    out._e, out._p, out._k, out._c, out._g = e, z._p, z._k, z._c, None
    return out


class Scalar:
    """An element of Q(s) in canonical form.

    A Laurent value is stored as s^e * p(s^k) / c: _e is the shift, _k the
    stride, _p the coefficient tuple with nonzero ends (() for zero, with
    _e = _k = 0 and _c = 1), _c a positive integer coprime to the content of
    _p, and _g is None.  The stride is canonical: _k = 0 when _p has one
    entry, otherwise the positions of the nonzero entries of _p have gcd 1,
    so _k is the gcd of the gaps between the exponents that occur.  Every
    other value has _p = None and keeps in _g the pair that _reduce_general
    returns; +, -, * and / on it take that general path.  Results that come
    back with a monomial denominator become Laurent again, so each value has
    exactly one representation and equality compares the slots.  Values are
    immutable, so a result decided before any arithmetic (a sum with zero,
    a product with the unit) is the other operand itself.

    The properties num and den give the canonical dense pair: den != 0 with
    a positive leading coefficient, num and den share no polynomial factor
    over Q[s], and their integer contents are coprime.  For a Laurent value
    that is num = s^max(e, 0) * p(s^k) and den = c * s^max(-e, 0).
    """

    __slots__ = ("_e", "_p", "_k", "_c", "_g")

    def __init__(self, num, den=_ONE):
        x = _from_pair(num, den)
        self._e, self._p, self._k, self._c, self._g = x._e, x._p, x._k, x._c, x._g

    # -- the canonical dense pair

    @property
    def num(self):
        p = self._p
        if p is None:
            return self._g[0]
        k = self._k
        if k > 1:
            p = tuple(_spread(p, k))
        e = self._e
        return (0,) * e + p if e > 0 else p

    @property
    def den(self):
        if self._p is None:
            return self._g[1]
        e = self._e
        return (0,) * -e + (self._c,) if e < 0 else (self._c,)

    # -- constructors

    @staticmethod
    def from_int(n):
        return _from_parts(0, (n,), 0, 1) if n else ZERO

    @staticmethod
    def s_power(k):
        """s^k for any integer k."""
        return _from_parts(k, _ONE, 0, 1)

    @staticmethod
    def q_power(k):
        return _from_parts(2 * k, _ONE, 0, 1)

    # -- ring structure

    def __bool__(self):
        return self._p != ()

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self._p == other._p
            and self._e == other._e
            and self._k == other._k
            and self._c == other._c
            and self._g == other._g
        )

    def __hash__(self):
        # an integer value hashes as its int, since it compares equal to it
        p = self._p
        if p is not None and len(p) < 2 and not self._e and self._c == 1:
            return hash(p[0] if p else 0)
        return hash((self.num, self.den))

    def __add__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, int):
                return NotImplemented
            other = Scalar.from_int(other)
        if other._p == ():
            return self
        if self._p == ():
            return other
        return _plus(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        out = _new(Scalar)
        if self._p is None:
            num, den = self._g
            out._e, out._p, out._k, out._c, out._g = 0, None, 0, 0, (pneg(num), den)
        else:
            out._e, out._p, out._k, out._c, out._g = (
                self._e, pneg(self._p), self._k, self._c, None)
        return out

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, int):
                return NotImplemented
            other = Scalar.from_int(other)
        pa, pb = self._p, other._p
        if pb == ():
            return self
        if pa == ():
            return -other
        if self is other or (
            self._e == other._e and pa == pb and self._k == other._k
            and self._c == other._c and self._g == other._g
        ):
            return ZERO
        return _plus(self, other, True)

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Scalar.from_int(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if not isinstance(other, int):
                return NotImplemented
            other = Scalar.from_int(other)
        if self is ONE:
            return other
        if other is ONE:
            return self
        pa, pb = self._p, other._p
        if pa is None or pb is None:
            if pa == () or pb == ():
                return ZERO
            return _from_pair(pmul(self.num, other.num), pmul(self.den, other.den))
        # a one-term operand scales the other; the unit 1 * s^0 / 1 returns
        # it, and a zero operand returns ZERO before any shift is added
        if len(pb) == 1:
            b = pb[0]
            if b == 1 and not other._e and other._c == 1:
                return self
            if len(pa) == 1:
                p, k = (pa[0] * b,), 0
            elif not pa:
                return ZERO
            else:
                p, k = (pa if b == 1 else tuple([a * b for a in pa])), self._k
        elif len(pa) == 1:
            a = pa[0]
            if a == 1 and not self._e and self._c == 1:
                return other
            if not pb:
                return ZERO
            p, k = (pb if a == 1 else tuple([a * b for b in pb])), other._k
        elif not pa or not pb:
            return ZERO
        else:
            p, k = _laurent_product(pa, self._k, pb, other._k)
        c = self._c * other._c
        if c == 1:
            e = self._e + other._e
            if not e and p == _ONE:
                return ONE
            out = _new(Scalar)
            out._e, out._p, out._k, out._c, out._g = e, p, k, 1, None
            return out
        return _from_parts(self._e + other._e, p, k, c)

    __rmul__ = __mul__

    def _inverse(self):
        """1/self for a nonzero self."""
        p = self._p
        if p is not None and len(p) == 1:
            a = p[0]
            return _from_parts(-self._e, (self._c if a > 0 else -self._c,), 0, abs(a))
        return _from_pair(self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        elif other.__class__ is not Scalar:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero Scalar")
        p = other._p
        if p is not None and len(p) == 1:
            return self * other._inverse()
        return _from_pair(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return Scalar.from_int(other) / self

    def __pow__(self, k):
        """Square and multiply: about 2*log2(k) products."""
        if k < 0:
            if not self:
                raise ZeroDivisionError("inverting zero Scalar")
            base, k = self._inverse(), -k
        else:
            base = self
        out = ONE
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- evaluation and rendering

    def specialize(self, s0) -> Fraction:
        """Exact value at s = s0 (rational); raises on a pole."""
        from fractions import Fraction
        s0 = Fraction(s0)
        d = peval(self.den, s0)
        if d == 0:
            raise ZeroDivisionError(f"pole at s={s0}")
        return peval(self.num, s0) / d

    def _laurent(self):
        """As a list of (exponent, coefficient) pairs if den is a monomial,
        else None; a coefficient is a reduced (numerator, denominator) pair."""
        if self._p is None:
            return None
        e, k, c = self._e, self._k, self._c
        if c == 1:
            return [(e + k * i, (a, 1)) for i, a in enumerate(self._p) if a]
        return [(e + k * i, _reduced(a, c)) for i, a in enumerate(self._p) if a]

    def __repr__(self):
        return _join_pieces([_scalar_piece(self, "")] if self else [])


ZERO = _new(Scalar)
ZERO._e, ZERO._p, ZERO._k, ZERO._c, ZERO._g = 0, (), 0, 1, None
ONE = _new(Scalar)  # the one unit object: _from_parts returns it for 1
ONE._e, ONE._p, ONE._k, ONE._c, ONE._g = 0, _ONE, 0, 1, None
s = Scalar.s_power(1)
q = Scalar.q_power(1)
two_q = q + q ** -1  # the symmetrized 2
mu = q ** 2 - q ** -2


def qint(n, base: Scalar) -> Scalar:
    """The q-integer (1 - base^n)/(1 - base), in summed form.

    For n >= 0 this is 1 + base + ... + base^(n-1); for n < 0 it is
    -(base^-1 + ... + base^n), which agrees with the rational expression
    wherever that is defined.
    """
    out = ZERO
    if n >= 0:
        p = ONE
        for _ in range(n):
            out = out + p
            p = p * base
    else:
        p = ONE
        for _ in range(-n):
            p = p / base
            out = out - p
    return out


def qint_sym(n) -> Scalar:
    """Symmetric q-integer (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ..."""
    if n < 0:
        return -qint_sym(-n)
    out = ZERO
    for r in range(n):
        out = out + Scalar.q_power(n - 1 - 2 * r)
    return out


# ---------------------------------------------------------------------------
# rendering: reduced-fraction Laurent text, preferring q over s when all
# exponents are even.  The output is parseable by the cli grammar.  A
# coefficient is a reduced integer pair (numerator, denominator > 0).


def _reduced(a, c):
    g = _igcd(a, c)
    return a // g, c // g


def _fmt_coeff(c):
    n, m = c
    return str(n) if m == 1 else f"{n}/{m}"


def _power_atom(e):
    """s^e rendered via q when possible."""
    if e == 0:
        return ""
    if e % 2 == 0:
        h = e // 2
        return "q" if h == 1 else f"q^{h}"
    return "s" if e == 1 else f"s^{e}"


def _laurent_body(terms):
    """Render [(exp, coefficient)]: positive terms first, descending exponent."""
    bits = []
    for e, (n, m) in sorted(terms, key=lambda t: (t[1][0] < 0, -t[0])):
        atom = _power_atom(e)
        bits.append("-" if n < 0 else "+")
        if not atom:
            bits.append(_fmt_coeff((abs(n), m)))
        elif abs(n) != 1 or m != 1:
            bits += _fmt_coeff((abs(n), m)), "*", atom
        else:
            bits.append(atom)
    if bits[0] == "+":
        bits[0] = ""
    return "".join(bits)


def _render_laurent(terms):
    """(text, is_sum): the centered rendering, which pulls out the middle
    power of s so that the remaining bracket is balanced (matches the
    q+q^-1 house style), and whether that text is a bare sum at top level."""
    if not terms:
        return "0", False
    if len(terms) > 1 and all(c[0] < 0 for _, c in terms):
        # keep bracket bodies free of a leading minus: factor the sign out
        return "-(" + _render_laurent([(e, (-n, m)) for e, (n, m) in terms])[0] + ")", False
    exps = [e for e, _ in terms]
    mid = (min(exps) + max(exps)) // 2
    if mid:
        head = _power_atom(mid)
        shifted = [(e - mid, c) for e, c in terms]
        if len(shifted) == 1:
            c = shifted[0][1]
            if c == (1, 1):
                return head, False
            if c == (-1, 1):
                return "-" + head, False
            return _fmt_coeff(c) + "*" + head, False
        return head + "*(" + _laurent_body(shifted) + ")", False
    return _laurent_body(terms), len(terms) > 1


def render_scalar(x: Scalar) -> str:
    terms = x._laurent()
    if terms is not None:
        return _render_laurent(terms)[0]
    # den has two or more terms, so it is always bracketed; num only then
    num = [(i, (a, 1)) for i, a in enumerate(x.num) if a]
    den = [(i, (a, 1)) for i, a in enumerate(x.den) if a]
    text = _render_laurent(num)[0]
    if len(num) > 1:
        text = "(" + text + ")"
    return text + "/(" + _render_laurent(den)[0] + ")"


# ---------------------------------------------------------------------------
# the sum rule shared by every printed value (algebra.render_value and
# Scalar.__repr__): a value is a sum of coefficient*atoms pieces, and a
# leading minus is written "0 - ..." so that the text parses back


def _scalar_piece(co, atoms):
    """(negative, text) for the term co*atoms, co's sign pulled out; co is
    bracketed when it prints as a bare sum (never a general fraction)."""
    terms = co._laurent()
    text, is_sum = _render_laurent(terms) if terms is not None else (render_scalar(co), False)
    neg = text.startswith("-")
    if neg:
        text = text[1:]
    if is_sum:
        text = "(" + text + ")"
    if atoms:
        text = atoms if text == "1" else text + "*" + atoms
    return neg, text


def _join_pieces(pieces):
    """The text of a sum of (negative, text) pieces; "0" when empty."""
    if not pieces:
        return "0"
    bits = []
    for neg, text in pieces:
        bits += " - " if neg else " + ", text
    bits[0] = "0 - " if pieces[0][0] else ""
    return "".join(bits)
