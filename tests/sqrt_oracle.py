"""Exact square roots in Q and Q(rho), by closed forms.

The oracle of the quadratic case of plucker_lab.scalars.lambda_roots,
which finds the roots of degree-2 inputs by the same p-adic lifting as
every other degree.
"""

import math
from fractions import Fraction

from plucker_lab.scalars import ZERO, EisensteinScalar


def fraction_sqrt(q: Fraction):
    """Exact square root of a non-negative rational, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def eis_sqrt(t: EisensteinScalar):
    """A square root of t inside Q(rho), or None when none exists.

    Writing s = x + y*rho, s^2 = t reduces to x^2 - y^2 = a and
    2xy - y^2 = b; eliminating x gives 3z^2 + (4a - 2b)z - b^2 = 0
    for z = y^2, which is solved exactly over the rationals.
    """
    if not t:
        return ZERO
    a, b = t.a, t.b
    if b == 0:
        x = fraction_sqrt(a)
        if x is not None:
            return EisensteinScalar(x)
    disc = (4 * a - 2 * b) ** 2 + 12 * b * b
    d = fraction_sqrt(disc)
    if d is None:
        return None
    for sgn in (1, -1):
        z = ((2 * b - 4 * a) + sgn * d) / 6
        if z <= 0:
            continue
        y = fraction_sqrt(z)
        if y is None:
            continue
        for ysgn in (1, -1):
            yy = ysgn * y
            x = (b + z) / (2 * yy)
            if x * x - yy * yy == a and 2 * x * yy - yy * yy == b:
                return EisensteinScalar(x, yy)
    return None
