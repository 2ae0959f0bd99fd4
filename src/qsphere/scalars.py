"""Exact coefficient field: rational functions in s over Q, with q = s^2.

Everything downstream (the quantum-group arithmetic, the differential
calculus, the spin geometry) has coefficients here.  Working in s = q^(1/2)
keeps half-integer powers of q first-class, which the Dirac eigenvalues
need.  A Scalar is a reduced fraction num/den of dense integer-coefficient
polynomials in s; negative powers of s live in the denominator.

Normalisation has two rules that give the same canonical pair.  Almost every
value the engine builds is a Laurent polynomial, whose denominator is a
monomial c*s^k; its gcd with the numerator is a power of s, so it is reduced
by stripping that power and the integer content.  Any other denominator (a
true rational function such as 1/(1+q^-4)) takes the general Q[s] gcd.
"""

from __future__ import annotations

from fractions import Fraction
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
    return tuple(-c for c in f)


def psub(f, g):
    return padd(f, pneg(g))


def pmul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] += a * b
    return _trim(out)


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
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * s0 + c
    return acc


_ONE = (1,)


def _reduce_general(num, den):
    """Canonical (num, den) of num/den through the Q[s] gcd.

    num and den are trimmed and nonzero.  This is the rule for every
    denominator; Scalar.__init__ uses it for those that are not monomials,
    and the tests use it as the reference for the monomial rule.
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


class Scalar:
    """An element of Q(s) in canonical form.

    Invariants: den != 0, leading coefficient of den positive, num and den
    share no polynomial factor over Q[s], and the integer contents of num
    and den are coprime.  Equality is literal equality of the canonical
    (num, den) pair.

    Two rules reach that form and agree wherever both apply.  A monomial
    denominator c*s^k, the common case, has s as its only irreducible
    factor, so its gcd with num is s^v with v = min(k, lowest exponent
    present in num): strip s^v, then divide both sides by the gcd of c and
    the content of num, signed like c.  Any other denominator goes through
    _reduce_general, a polynomial gcd followed by the same content and sign
    steps.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            self.num, self.den = (), _ONE
            return
        k = len(den) - 1
        if k and any(den[:k]):
            self.num, self.den = _reduce_general(num, den)
            return
        v = 0
        while v < k and not num[v]:
            v += 1
        c = den[k]
        r = _igcd(*num, c)
        if c < 0:
            r = -r
        if r != 1:
            num = tuple(a // r for a in num[v:])
            den = (0,) * (k - v) + (c // r,)
        elif v:
            num, den = num[v:], den[v:]
        self.num, self.den = num, den

    # -- constructors

    @staticmethod
    def from_int(n):
        return Scalar((n,)) if n else Scalar(())

    @staticmethod
    def from_fraction(x):
        x = Fraction(x)
        return Scalar((x.numerator,), (x.denominator,))

    @staticmethod
    def s_power(k):
        """s^k for any integer k."""
        if k >= 0:
            return Scalar((0,) * k + (1,))
        return Scalar(_ONE, (0,) * (-k) + (1,))

    @staticmethod
    def q_power(k):
        return Scalar.s_power(2 * k)

    # -- ring structure

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.den == other.den:
            return Scalar(padd(self.num, other.num), self.den)
        return Scalar(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(Scalar)
        out.num, out.den = pneg(self.num), self.den
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return Scalar.from_int(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.den == _ONE and other.den == _ONE:
            out = object.__new__(Scalar)
            out.num, out.den = pmul(self.num, other.num), _ONE
            return out
        return Scalar(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not other:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return Scalar.from_int(other) / self

    def __pow__(self, k):
        if k < 0:
            if not self:
                raise ZeroDivisionError("inverting zero Scalar")
            base, k = Scalar(self.den, self.num), -k
        else:
            base = self
        out = ONE
        for _ in range(k):
            out = out * base
        return out

    # -- evaluation and rendering

    def specialize(self, s0) -> Fraction:
        """Exact value at s = s0 (rational); raises on a pole."""
        s0 = Fraction(s0)
        d = peval(self.den, s0)
        if d == 0:
            raise ZeroDivisionError(f"pole at s={s0}")
        return peval(self.num, s0) / d

    def _laurent(self):
        """As a list of (exponent, Fraction) pairs if den is a monomial, else None."""
        nz = [i for i, c in enumerate(self.den) if c]
        if len(nz) != 1:
            return None
        k, c = nz[0], self.den[nz[0]]
        return [(i - k, Fraction(a, c)) for i, a in enumerate(self.num) if a]

    def __repr__(self):
        return render_scalar(self)


ZERO = Scalar(())
ONE = Scalar(_ONE)
s = Scalar.s_power(1)
q = Scalar.q_power(1)
lam = Scalar.s_power(-1)  # q^(-1/2)
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


def specialize(x: Scalar, s0) -> Fraction:
    return x.specialize(s0)


# ---------------------------------------------------------------------------
# rendering: reduced-fraction Laurent text, preferring q over s when all
# exponents are even.  The output is parseable by the cli grammar.


def _fmt_coeff(c: Fraction):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _power_atom(e):
    """s^e rendered via q when possible."""
    if e == 0:
        return ""
    if e % 2 == 0:
        h = e // 2
        return "q" if h == 1 else f"q^{h}"
    return "s" if e == 1 else f"s^{e}"


def _laurent_body(terms):
    """Render [(exp, Fraction)]: positive terms first, descending exponent."""
    parts = []
    for e, c in sorted(terms, key=lambda t: (t[1] < 0, -t[0])):
        atom = _power_atom(e)
        if not atom:
            piece = _fmt_coeff(c)
        elif c == 1:
            piece = atom
        elif c == -1:
            piece = "-" + atom
        else:
            piece = _fmt_coeff(c) + "*" + atom
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += "-" + piece[1:] if piece.startswith("-") else "+" + piece
    return out


def _render_laurent(terms):
    """Centered rendering: pull out the middle power of s so that the
    remaining bracket is balanced (matches the q+q^-1 house style)."""
    if not terms:
        return "0"
    if len(terms) > 1 and all(c < 0 for _, c in terms):
        # keep bracket bodies free of a leading minus: factor the sign out
        return "-(" + _render_laurent([(e, -c) for e, c in terms]) + ")"
    exps = [e for e, _ in terms]
    mid = (min(exps) + max(exps)) // 2
    if mid:
        head = _power_atom(mid)
        shifted = [(e - mid, c) for e, c in terms]
        if len(shifted) == 1:
            c = shifted[0][1]
            if c == 1:
                return head
            if c == -1:
                return "-" + head
            return _fmt_coeff(c) + "*" + head
        return head + "*(" + _laurent_body(shifted) + ")"
    return _laurent_body(terms)


def render_scalar(x: Scalar) -> str:
    terms = x._laurent()
    if terms is not None:
        return _render_laurent(terms)
    num = _render_laurent([(i, Fraction(a)) for i, a in enumerate(x.num) if a])
    den = _render_laurent([(i, Fraction(a)) for i, a in enumerate(x.den) if a])
    if "+" in num or "-" in num[1:]:
        num = "(" + num + ")"
    if "+" in den or "-" in den[1:] or "*" in den:
        den = "(" + den + ")"
    return num + "/" + den
