"""Degree/class/flex/bitangent arithmetic for plane curves.

The classical relations for an irreducible plane curve of degree d with
nu nodes and kappa cusps (tacnodes enter as two nodes each):

    (1)  m = d(d-1) - 2 nu - 3 kappa        (class)
    (2)  d = m(m-1) - 2 b  - 3 f            (dual reading)
    (3)  f = 3d(d-2) - 6 nu - 8 kappa       (flexes)
    (g)  g = (d-1)(d-2)/2 - nu - kappa      (geometric genus)

plus the inverse problem: given d, g and m, solve for (nu, kappa).
Infeasible inputs are first-class results carrying the exact solution
vector, because the interesting case analyses live exactly there.

Numerology makes these calls by the hundred thousand, mostly on
infeasible inputs, so the hot path does only its arithmetic: the genus
is computed inline, the error is raised with the four derived ints as its
args and builds its values dict and message only when they are read, and
the records are NamedTuples built by one tuple.__new__ (being tuples,
they compare equal to plain tuples).
"""

from __future__ import annotations

from typing import NamedTuple


class InfeasibleInvariantsError(ValueError):
    """The requested invariants cannot belong to a curve with only nodes
    and cusps.  The args are the derived (m, f, g, 2b); .values and str()
    build their dict only when read, so raising and catching builds
    nothing."""

    @property
    def values(self) -> dict:
        return dict(zip(("m", "f", "g", "2b"), self.args))

    def __str__(self):
        return "derived invariants go negative: %r" % (self.values,)


class PlueckerInvariants(NamedTuple):
    d: int
    nu: int
    kappa: int
    m: int
    f: int
    b: int
    g: int

    def as_dict(self) -> dict:
        return self._asdict()


def arithmetic_genus(d: int) -> int:
    """Genus of a smooth plane curve of degree d."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return (d - 1) * (d - 2) // 2


def dual_invariants(d: int, nu: int, kappa: int) -> PlueckerInvariants:
    """Fill in class, flexes, bitangents and genus from (d, nu, kappa).

    Raises InfeasibleInvariantsError when any derived count comes out
    negative.  The bitangent count is always an integer: m(m-1) is even,
    and f = 3d(d-2) - 6 nu - 8 kappa = d(d-2) = d (mod 2), so 3f + d =
    2d = 0 (mod 2), which makes 2b = m(m-1) - 3f - d even.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    if nu < 0 or kappa < 0:
        raise ValueError("node and cusp counts must be >= 0")
    m = d * (d - 1) - 2 * nu - 3 * kappa
    f = 3 * d * (d - 2) - 6 * nu - 8 * kappa
    g = (d - 1) * (d - 2) // 2 - nu - kappa
    # (2) read for the dual: d = m(m-1) - 2b - 3f
    b2 = m * (m - 1) - 3 * f - d
    if m < 0 or f < 0 or g < 0 or b2 < 0:
        raise InfeasibleInvariantsError(m, f, g, b2)
    return tuple.__new__(PlueckerInvariants, (d, nu, kappa, m, f, b2 // 2, g))


class NodeCuspSolution(NamedTuple):
    """Outcome of solving nu+kappa = p_a - g, 2nu+3kappa = d(d-1) - m.

    raw always holds the exact solution of the linear system, a pair of
    ints (the system has determinant 1); nu/kappa are filled only when
    both are non-negative.  violated_identity is set when the system forces
    nu = kappa = 0 yet the class relation fails, and spells out the
    false equation.
    """

    feasible: bool
    nu: int | None
    kappa: int | None
    raw: tuple
    violated_identity: str | None = None

    def as_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "nu": self.nu,
            "kappa": self.kappa,
            "raw_nu": str(self.raw[0]),
            "raw_kappa": str(self.raw[1]),
            "violated_identity": self.violated_identity,
        }


def solve_nodes_cusps(d: int, g: int, m: int) -> NodeCuspSolution:
    """Invert the genus and class relations for (nu, kappa).

    Never raises on infeasibility: a curve count that fails to exist is
    a finding, not an error.
    """
    if d < 2:
        raise ValueError("degree must be >= 2")
    if g < 0:
        raise ValueError("genus must be >= 0")
    if m < 2:
        raise ValueError("class must be >= 2")
    s1 = (d - 1) * (d - 2) // 2 - g  # nu + kappa
    s2 = d * (d - 1) - m  # 2 nu + 3 kappa
    kappa = s2 - 2 * s1
    nu = 3 * s1 - s2
    feasible = nu >= 0 and kappa >= 0
    violated = None
    if not feasible and s1 == 0 and m != d * (d - 1):
        # nu = kappa = 0 is forced, so the class relation must read
        # m = d(d-1); print the equation it would have to satisfy
        violated = "%d = %d" % (m, d * (d - 1))
    return tuple.__new__(NodeCuspSolution, (
        feasible,
        nu if feasible else None,
        kappa if feasible else None,
        (nu, kappa),
        violated,
    ))
