"""Derivative and Galois conjugate of a LambdaPoly, term by term.

The library's squarefree parts and root searches run on Z[rho] int pairs
(`_zrho.derivative`, `_zrho.gcd`), so these two LambdaPoly maps serve only
as the independent side of the tests: the product rule and the
conjugation of products in tests/test_scalars.py, and the squarefree
part that tests/test_zrho.py compares `_zrho._squarefree` with.
"""

from plucker_lab.scalars import LambdaPoly


def derivative(p: LambdaPoly) -> LambdaPoly:
    """d/dlambda, coefficient by coefficient."""
    return LambdaPoly(tuple(c * k for k, c in enumerate(p.coeffs) if k >= 1))


def conjugate(p: LambdaPoly) -> LambdaPoly:
    """Apply rho -> rho^2 to every coefficient."""
    return LambdaPoly(tuple(c.conjugate() for c in p.coeffs))
