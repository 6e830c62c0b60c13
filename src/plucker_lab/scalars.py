"""Exact arithmetic over the Eisenstein rationals and polynomials in lambda.

The base field is Q(rho) with rho a primitive cube root of unity
(rho^2 + rho + 1 = 0).  Elements are kept as a + b*rho with rational a, b
reduced to lowest terms.  LambdaPoly is the univariate polynomial ring in
the parameter lambda over that field; it doubles as the coefficient type
of every multivariate polynomial in this package.  No floating point is
used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import _zrho


class EisensteinScalar:
    """An element a + b*rho of Q(rho), stored as integers over a common
    denominator: (an + bn*rho) / den with gcd(an, bn, den) = 1, den > 0."""

    __slots__ = ("an", "bn", "den")

    def __init__(self, a=0, b=0):
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("floats are not exact; pass int or Fraction")
        a = Fraction(a)
        b = Fraction(b)
        den = (a.denominator * b.denominator) // math.gcd(
            a.denominator, b.denominator
        )
        an = a.numerator * (den // a.denominator)
        bn = b.numerator * (den // b.denominator)
        g = math.gcd(math.gcd(an, bn), den)
        object.__setattr__(self, "an", an // g)
        object.__setattr__(self, "bn", bn // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("EisensteinScalar is immutable")

    @classmethod
    def _raw(cls, an: int, bn: int, den: int) -> "EisensteinScalar":
        # den == 1 is already the normal form
        if den != 1:
            if den < 0:
                an, bn, den = -an, -bn, -den
            g = math.gcd(an, bn, den)
            if g != 1:
                an, bn, den = an // g, bn // g, den // g
        self = object.__new__(cls)
        object.__setattr__(self, "an", an)
        object.__setattr__(self, "bn", bn)
        object.__setattr__(self, "den", den)
        return self

    @property
    def a(self) -> Fraction:
        return Fraction(self.an, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.bn, self.den)

    @staticmethod
    def _coerce(other):
        if isinstance(other, EisensteinScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return EisensteinScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return EisensteinScalar._raw(
            self.an * o.den + o.an * self.den,
            self.bn * o.den + o.bn * self.den,
            self.den * o.den,
        )

    __radd__ = __add__

    def __neg__(self):
        return EisensteinScalar._raw(-self.an, -self.bn, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 rho)(a2 + b2 rho) with rho^2 = -1 - rho
        bb = self.bn * o.bn
        return EisensteinScalar._raw(
            self.an * o.an - bb,
            self.an * o.bn + self.bn * o.an - bb,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "EisensteinScalar":
        # rho -> rho^2 = -1 - rho
        return EisensteinScalar._raw(self.an - self.bn, -self.bn, self.den)

    def norm(self) -> Fraction:
        return Fraction(
            self.an * self.an - self.an * self.bn + self.bn * self.bn,
            self.den * self.den,
        )

    def inverse(self) -> "EisensteinScalar":
        n = self.an * self.an - self.an * self.bn + self.bn * self.bn
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return EisensteinScalar._raw(
            (self.an - self.bn) * self.den, -self.bn * self.den, n
        )

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = EisensteinScalar._raw(1, 0, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.an == o.an and self.bn == o.bn and self.den == o.den

    def __hash__(self):
        return hash((self.an, self.bn, self.den))

    def __bool__(self):
        return self.an != 0 or self.bn != 0

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return render_scalar(self)


ZERO = EisensteinScalar(0)
ONE = EisensteinScalar(1)
RHO = EisensteinScalar._raw(0, 1, 1)


def _lowest(n: int, den: int):
    """n/den in lowest terms, as (numerator, denominator); den > 0."""
    g = math.gcd(n, den)
    return n // g, den // g


def _render_ratio(n: int, d: int) -> str:
    return str(n) if d == 1 else "%d/%d" % (n, d)


def render_scalar(x: EisensteinScalar) -> str:
    """Canonical text form: `a`, `a/b`, `rho`, `a + b*rho`."""
    a, b = _lowest(x.an, x.den), _lowest(x.bn, x.den)
    if b[0] == 0:
        return _render_ratio(*a)
    if b == (1, 1):
        rho_part = "rho"
    elif b == (-1, 1):
        rho_part = "-rho"
    else:
        rho_part = _render_ratio(*b) + "*rho"
    if a[0] == 0:
        return rho_part
    if b[0] > 0:
        return "%s + %s" % (_render_ratio(*a), rho_part)
    return "%s - %s" % (_render_ratio(*a), rho_part.lstrip("-"))


def scalar_sort_key(x: EisensteinScalar):
    """(numerator, denominator) of a, then of b, each in lowest terms."""
    return _lowest(x.an, x.den) + _lowest(x.bn, x.den)


class LambdaPoly:
    """Polynomial in the parameter lambda with EisensteinScalar coefficients.

    Coefficients are stored lowest power first with no trailing zeros, so
    degree-0 values embed scalars losslessly and the zero polynomial is
    the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction, EisensteinScalar)):
            coeffs = (coeffs,)
        lifted = []
        for c in coeffs:
            if not isinstance(c, EisensteinScalar):
                c = EisensteinScalar(c)
            lifted.append(c)
        while lifted and not lifted[-1]:
            lifted.pop()
        object.__setattr__(self, "coeffs", tuple(lifted))

    def __setattr__(self, name, value):
        raise AttributeError("LambdaPoly is immutable")

    @classmethod
    def _raw(cls, coeffs) -> "LambdaPoly":
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> EisensteinScalar:
        if len(self.coeffs) > 1:
            raise ValueError("lambda is still symbolic in %s" % self)
        return self.coeffs[0] if self.coeffs else ZERO

    def leading(self) -> EisensteinScalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @staticmethod
    def _coerce(other):
        if isinstance(other, LambdaPoly):
            return other
        if isinstance(other, (int, Fraction, EisensteinScalar)):
            return LambdaPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        while out and not out[-1]:
            out.pop()
        return LambdaPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly._raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return LambdaPoly._raw(())
        if len(a) == 1 and len(b) == 1:
            c = a[0] * b[0]
            return LambdaPoly._raw((c,) if c else ())
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        while out and not out[-1]:
            out.pop()
        return LambdaPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = LambdaPoly((ONE,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, s: EisensteinScalar) -> "LambdaPoly":
        if not s:
            return LambdaPoly._raw(())
        return LambdaPoly._raw(tuple(c * s for c in self.coeffs))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def evaluate(self, value: EisensteinScalar) -> EisensteinScalar:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def divmod(self, other: "LambdaPoly"):
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return LambdaPoly._raw(()), self
        inv_lead = other.leading().inverse()
        quot = [ZERO] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1] * inv_lead
            quot[i] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * oc
        while rem and not rem[-1]:
            rem.pop()
        while quot and not quot[-1]:
            quot.pop()
        return LambdaPoly._raw(quot), LambdaPoly._raw(rem)

    def exact_div(self, other: "LambdaPoly") -> "LambdaPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "LambdaPoly":
        if self.is_zero():
            return self
        return self.scale(self.leading().inverse())

    def gcd(self, other: "LambdaPoly") -> "LambdaPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def __str__(self):
        return render_lambda_poly(self)

    def __repr__(self):
        return render_lambda_poly(self)


LAMBDA = LambdaPoly._raw((ZERO, ONE))


def lambda_term_text(c: EisensteinScalar, k: int) -> str:
    """Text of the term c*lambda^k, for a nonzero c whose minus sign has
    been pulled out, fit to stand as a factor: `2`, `(1 + rho)`,
    `lambda^2`, `rho*lambda`, `(1 - rho)*lambda^3`."""
    mono = "" if not k else "lambda" if k == 1 else "lambda^%d" % k
    if c.an == c.den and not c.bn:  # c == 1, read off its normal form
        return mono or "1"
    text = render_scalar(c)
    if c.an and c.bn:
        text = "(%s)" % text
    return "%s*%s" % (text, mono) if mono else text


def render_lambda_poly(p: LambdaPoly) -> str:
    """Ascending-power rendering, e.g. `3 - 3*lambda + lambda^2`."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        # pull a leading minus out of the coefficient for sign placement
        neg = c.an < 0 or (c.an == 0 and c.bn < 0)
        if neg:
            c = -c
        # a two-part constant term is parenthesized only after a minus
        body = render_scalar(c) if k == 0 and not neg else lambda_term_text(c, k)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Root finding over Q(rho)


class RootSearch(NamedTuple):
    """All Q(rho)-roots of a univariate polynomial plus leftovers.

    roots holds (root, multiplicity) pairs.  unresolved holds the monic
    cofactor of degree >= 3 left once every root is divided out: it is
    proven root-free, but reported as undecided all the same.
    """

    roots: tuple
    unresolved: tuple

    @property
    def values(self):
        return tuple(r for r, _ in self.roots)

    @property
    def complete(self) -> bool:
        return not self.unresolved


def lambda_roots(p: LambdaPoly) -> RootSearch:
    """All roots of p lying in Q(rho), found exactly.

    p is cleared to Z[rho] int pairs (_zrho.clear) and handed to the
    integer root core _zrho.solve, the one the chart solver of curve uses
    as well; only the roots it reports become scalars.  The core strips
    powers of lambda and solves degree 1 in closed form.  From degree 2
    up it normalizes the polynomial to f, the cleared monic multiple of p
    (_zrho.normalize), takes the squarefree part g = f / gcd(f, f') with
    the primitive PRS _zrho.gcd (a gcd over Q(rho) up to a factor, so g
    is squarefree and has the roots of f), and finds the roots of g by
    p-adic lifting (Loos's rational-zero method, carried to Q(rho)) in
    _zrho.roots:

    - g has Eisenstein-integer coefficients c_i, with leading
      coefficient lc and D = N(lc) = lc*conj(lc) > 0.
    - The images: g under both maps rho -> r and rho -> r^2 to F_p, where
      p = 1 (mod 3) and r is a cube root of unity mod p.  The roots of
      each image are found by evaluating it at every residue u = 0..p-1.
    - The prime: the first p in 7, 13, 19, 31, ... that does not divide D
      and at which every root u of both images is simple, g'(u) != 0
      (mod p).  Each such root is Newton-lifted to p^k, and so is r (to R).
      The search ends: g is squarefree, so only the finitely many p that
      divide the norm of its discriminant give an image a repeated root.
    - A pair u, v of lifted roots, one per map, gives b = (u - v)/(R - R^2)
      and a = u - b*R mod p^k; the candidate root is (D*a + D*b*rho)/D,
      with D*a and D*b taken as symmetric residues.  A candidate is kept
      only if g vanishes at it exactly: _zrho.value computes
      D^n * g(candidate) on ints.

    Why no root is missed: a root alpha = a + b*rho of g makes lc*alpha an
    algebraic integer, hence an element of Z[rho], so D*alpha =
    conj(lc)*(lc*alpha) is in Z[rho] too: D*a and D*b are integers.  As
    p does not divide D, alpha maps to a root of each image.  Every root
    of both images in F_p is simple, so the Newton lift of that root is the
    image of alpha mod p^k under rho -> R and rho -> R^2, and the pair
    solves for a and b mod p^k.
    Cauchy's bound, with |c|^2 = N(c), gives |alpha| <= 1 + max_i |c_i/lc|
    <= M = isqrt(max_i N(c_i) // D) + 2, and since Im alpha = b*sqrt(3)/2
    and a = Re alpha + Im alpha/sqrt(3), both |a| and |b| are at most
    2*|alpha|/sqrt(3) < C = isqrt(4*M^2 // 3) + 1.  With p^k > 2*D*C the
    symmetric residues are D*a and D*b themselves.

    Each root x/d (x in Z[rho]) is then divided out of f for its
    multiplicity, on ints: d^n * f(y/d) has the root y = x and the monic
    divisor y - x.  A cofactor of degree >= 3 left after that has no root
    in Q(rho), but is still returned, monic, in unresolved, and complete
    is False for it.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every lambda as a root")
    found, rest = _zrho.solve(_zrho.clear(p.coeffs)[0])
    roots = tuple((EisensteinScalar._raw(*x), m) for x, m in found)
    if len(rest) < 4:
        return RootSearch(roots, ())
    lc = rest[-1][0]
    return RootSearch(roots, (LambdaPoly._raw(EisensteinScalar._raw(a, b, lc) for a, b in rest),))
