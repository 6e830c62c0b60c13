"""Derivative, Galois conjugate and value of a LambdaPoly, term by term.

The library's squarefree parts, root searches and values run on Z[rho]
int pairs (`_zrho.derivative`, `_zrho.gcd`, `_zrho.value`), so these
LambdaPoly maps serve only as the independent side of the tests: the
product rule and the conjugation of products in tests/test_scalars.py,
the squarefree part that tests/test_zrho.py compares `_zrho._squarefree`
with, and the values that LambdaPoly.evaluate is compared with in
tests/test_scalars.py.
"""

from plucker_lab.scalars import ZERO, EisensteinScalar, LambdaPoly


def derivative(p: LambdaPoly) -> LambdaPoly:
    """d/dlambda, coefficient by coefficient."""
    return LambdaPoly(tuple(c * k for k, c in enumerate(p.coeffs) if k >= 1))


def conjugate(p: LambdaPoly) -> LambdaPoly:
    """Apply rho -> rho^2 to every coefficient."""
    return LambdaPoly(tuple(c.conjugate() for c in p.coeffs))


def evaluate(p: LambdaPoly, value: EisensteinScalar) -> EisensteinScalar:
    """p(value) by Horner's rule on EisensteinScalar arithmetic."""
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc
