"""Truncated intersection arithmetic for (abelian surface) x (plane).

Classes are integer combinations of l^a h^b with 0 <= a,b <= 2, where l
is the polarization class on the surface and h the hyperplane class on
the plane; any a or b reaching 3 truncates to zero.  The only monomial
of nonzero degree is l^2 h^2, of degree 2d for polarization degree d.
That tiny ring is enough to twist jet-bundle Chern classes, compute the
genus of the incidence curve and count singular members of a pencil.
"""

from __future__ import annotations

import functools
from math import isqrt
from operator import add, index


class ChowClass:
    """Integer coefficients indexed [a][b] for l^a h^b, plus the
    polarization degree d used by the degree map l^2 h^2 -> 2d."""

    __slots__ = ("coeffs", "d")

    def __new__(cls, coeffs: tuple, d: int):
        try:
            c = tuple(tuple(map(index, row)) for row in coeffs)
        except TypeError:
            for a, row in enumerate(coeffs):
                for b, v in enumerate(row):
                    if not hasattr(type(v), "__index__"):
                        raise ValueError(
                            "coefficient of l^%d h^%d is not an integer: %r" % (a, b, v)
                        ) from None
            raise
        if len(c) != 3 or any(len(row) != 3 for row in c):
            raise ValueError("coefficients must form a 3x3 grid")
        if d < 1:
            raise ValueError("polarization degree must be >= 1")
        return cls._raw(c, d)

    @classmethod
    def _raw(cls, coeffs: tuple, d: int) -> "ChowClass":
        # the results of the arithmetic: coeffs is a 3x3 tuple of ints already
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "d", d)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError("ChowClass is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ChowClass._raw, (self.coeffs, self.d)

    def __eq__(self, other):
        if type(other) is not ChowClass:
            return NotImplemented
        return (self.coeffs, self.d) == (other.coeffs, other.d)

    def __hash__(self):
        return hash((self.coeffs, self.d))

    def __repr__(self):
        return "ChowClass(coeffs=%r, d=%r)" % (self.coeffs, self.d)

    @classmethod
    def zero(cls, d: int) -> "ChowClass":
        return cls(((0, 0, 0),) * 3, d)

    @classmethod
    def one(cls, d: int) -> "ChowClass":
        return cls.monomial(0, 0, d)

    @classmethod
    def l(cls, d: int) -> "ChowClass":
        return cls.monomial(1, 0, d)

    @classmethod
    def h(cls, d: int) -> "ChowClass":
        return cls.monomial(0, 1, d)

    @classmethod
    def monomial(cls, a: int, b: int, d: int, coeff: int = 1) -> "ChowClass":
        grid = [[0, 0, 0] for _ in range(3)]
        grid[a][b] = coeff
        return cls(tuple(tuple(r) for r in grid), d)

    def coefficient(self, a: int, b: int) -> int:
        return self.coeffs[a][b]

    def _check(self, other: "ChowClass"):
        if self.d != other.d:
            raise ValueError(
                "mismatched polarization degrees: %d vs %d" % (self.d, other.d)
            )

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        (x0, x1, x2), (y0, y1, y2) = self.coeffs, other.coeffs
        return ChowClass._raw(
            (tuple(map(add, x0, y0)), tuple(map(add, x1, y1)), tuple(map(add, x2, y2))),
            self.d,
        )

    def __neg__(self) -> "ChowClass":
        return self * -1

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            k, (x0, x1, x2) = other.__mul__, self.coeffs
            return ChowClass._raw(
                (tuple(map(k, x0)), tuple(map(k, x1)), tuple(map(k, x2))), self.d
            )
        if isinstance(other, ChowClass):
            return chow_mul(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(all(v == 0 for v in row) for row in self.coeffs)

    def degree(self) -> int:
        """The degree map: 2d times the l^2 h^2 coefficient."""
        return self.coeffs[2][2] * 2 * self.d

    def __str__(self):
        parts = []
        for a in range(3):
            for b in range(3):
                v = self.coeffs[a][b]
                if not v:
                    continue
                mono = "*".join(
                    ([] if a == 0 else ["l" if a == 1 else "l^2"])
                    + ([] if b == 0 else ["h" if b == 1 else "h^2"])
                )
                if not mono:
                    parts.append(str(v))
                elif v == 1:
                    parts.append(mono)
                elif v == -1:
                    parts.append("-" + mono)
                else:
                    parts.append("%d*%s" % (v, mono))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# _PRODUCT[i][j]: the flat index 3a + b of the product of the monomials
# at flat indices i and j, or None where a >= 3 or b >= 3 truncates it
_PRODUCT = [[3 * (i // 3 + j // 3) + i % 3 + j % 3
             if i // 3 + j // 3 < 3 and i % 3 + j % 3 < 3 else None
             for j in range(9)] for i in range(9)]


def chow_mul(x: ChowClass, y: ChowClass) -> ChowClass:
    """Product with truncation: any l^a h^b with a >= 3 or b >= 3 dies.
    Runs over the nonzero entries of both factors only, on flat grids."""
    x._check(y)
    out = [0] * 9
    ys = [(j, v) for j, v in enumerate(sum(y.coeffs, ())) if v]
    for i, u in enumerate(sum(x.coeffs, ())):
        if u:
            row = _PRODUCT[i]
            for j, v in ys:
                k = row[j]
                if k is not None:
                    out[k] += u * v
    return ChowClass._raw((tuple(out[0:3]), tuple(out[3:6]), tuple(out[6:9])), x.d)


def chern_twist(c1: ChowClass, c2: ChowClass, c3: ChowClass, m: ChowClass):
    """Chern classes of E tensor M for rank-3 E and a line class m=c1(M)."""
    c1._check(m)
    c1p = c1 + 3 * m
    c2p = c2 + 2 * chow_mul(c1, m) + 3 * chow_mul(m, m)
    c3p = (
        c3
        + chow_mul(c2, m)
        + chow_mul(c1, chow_mul(m, m))
        + chow_mul(m, chow_mul(m, m))
    )
    return c1p, c2p, c3p


@functools.cache
def _incidence_grids() -> tuple:
    """The coefficient grids of c1(E), c2(E), Gamma, omega.Gamma and
    c1(E).Gamma, computed once per process.  The ring's structure
    constants do not read d, so the twist runs at d = 1 and only the
    grids are kept; they are tuples of ints, shared by every call."""
    l = ChowClass._raw(((0, 0, 0), (1, 0, 0), (0, 0, 0)), 1)
    h = ChowClass._raw(((0, 1, 0), (0, 0, 0), (0, 0, 0)), 1)
    # c(J1) = (1 + 2l + l^2)(1 + l): c1 = 3l, c2 = 3l^2, c3 = l^3 -> 0
    c1 = 3 * l
    c2 = 3 * chow_mul(l, l)
    c3 = ChowClass._raw(((0, 0, 0),) * 3, 1)
    c1e, c2e, gamma = chern_twist(c1, c2, c3, h)
    # canonical class of (surface) x (plane): 0 + (-3h)
    omega = -3 * h
    # Gamma is cut out as a top Chern class, so its normal bundle has
    # first Chern class c1(E); adjunction then reads off omega_Gamma
    return tuple(
        c.coeffs for c in (c1e, c2e, gamma, chow_mul(omega, gamma), chow_mul(c1e, gamma))
    )


def incidence_numerology(d: int) -> dict:
    """Everything the twisted-jet computation produces, kept exact.

    The rank-2 cotangent bundle of the surface is trivial, so the first
    jet bundle of the polarization has total class (1+l)^2 (1+l) =
    (1 + 2l + l^2)(1 + l); twisting by h gives the bundle whose top
    Chern class is the incidence-curve class Gamma.

    Only the degree map l^2 h^2 -> 2d reads d: the twist itself runs
    once per process (_incidence_grids), and each call wraps its grids
    as classes of degree d and takes their degrees.
    """
    if d < 1:
        raise ValueError("polarization degree must be >= 1")
    # d >= 1 was checked, so the classes skip the validating constructor;
    # five plain calls, as a generator costs more than the rest of a call
    # made between other work (the interpreter's caches are cold then)
    c1e, c2e, gamma, omega_gamma, normal_gamma = _incidence_grids()
    raw = ChowClass._raw
    omega_dot_gamma, normal_dot_gamma = raw(omega_gamma, d), raw(normal_gamma, d)
    deg_omega = omega_dot_gamma.degree() + normal_dot_gamma.degree()
    return {
        "d": d,
        "c1_E": raw(c1e, d),
        "c2_E": raw(c2e, d),
        "gamma": raw(gamma, d),
        "omega_dot_gamma": omega_dot_gamma,
        "normal_dot_gamma": normal_dot_gamma,
        "deg_omega_dot_gamma": omega_dot_gamma.degree(),
        "deg_normal_dot_gamma": normal_dot_gamma.degree(),
        "deg_omega": deg_omega,
        "pa": deg_omega // 2 + 1,
    }


# Euler characteristics the pencil count relies on; standard facts.
EULER_ABELIAN_SURFACE = 0
EULER_P1 = 2


def pencil_singular_count(d: int) -> int:
    """Singular members of a general pencil of degree-d polarized curves.

    Blow up the 2d base points (e(A)=0 picks up one per point), fiber
    the result over P1, and compare Euler numbers against the general
    fiber, a smooth curve of genus d+1.
    """
    if d < 2:
        raise ValueError("a pencil needs polarization degree >= 2")
    base_points = 2 * d
    e_blowup = EULER_ABELIAN_SURFACE + base_points
    genus_fiber = d + 1
    e_fiber = 2 - 2 * genus_fiber
    return e_blowup - e_fiber * EULER_P1


def multiplicity_bound(d1d2: int) -> int:
    """Largest multiplicity an ordinary singularity can have on an
    irreducible member: floor((1 + sqrt(8*d1d2 - 7))/2), bracketed with
    integer square roots only."""
    if d1d2 < 1:
        raise ValueError("polarization degree must be >= 1")
    s = isqrt(8 * d1d2 - 7)
    return (s + 1) // 2
