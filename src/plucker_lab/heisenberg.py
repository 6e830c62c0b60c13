"""Finite projective symmetry group of the plane and its orbit geometry.

The group is generated by the coordinate cycle sigma, the diagonal tau of
cube roots of unity, and the coordinate swap iota.  Its projective image
has 18 elements.  The module enumerates the group, computes point orbits,
builds the fixed locus (9 lines, 9 points, 12 triple points), and runs the
orbit exclusion test: for a curve family c(lambda) and each orbit of size 3,
the lambda values for which the whole orbit lies on the curve are the common
roots of one obstruction polynomial.
"""

import functools
from dataclasses import dataclass

from .scalars import (
    ZERO,
    ONE,
    RHO,
    EisensteinScalar,
    LambdaPoly,
    scalar_sort_key,
)
from .polynomials import MultiPoly, X_VARS, quadratic_map
from .curve import ProjectivePoint, det3


def _adjugate(rows):
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def _linear_form(row, variables) -> MultiPoly:
    """The linear form sum_i row[i] * variables[i]."""
    form = MultiPoly.zero(variables)
    for coeff, name in zip(row, variables):
        if coeff:
            form = form + MultiPoly.variable(variables, name).scale(coeff)
    return form


class ProjectiveTransform:
    """Invertible 3x3 matrix over the Eisenstein rationals taken up to a
    scalar factor.  The stored representative has its first nonzero entry
    (row major) equal to 1, so == and hash agree with projective equality."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = []
        for row in rows:
            r = tuple(
                c if isinstance(c, EisensteinScalar) else EisensteinScalar(c)
                for c in row
            )
            if len(r) != 3:
                raise ValueError("each row needs 3 entries")
            rs.append(r)
        if len(rs) != 3:
            raise ValueError("a transform needs 3 rows")
        pivot = next((c for row in rs for c in row if c), None)
        if pivot is None:
            raise ValueError("the zero matrix is not a transform")
        inv = pivot.inverse()
        rs = tuple(tuple(c * inv for c in row) for row in rs)
        if not det3(rs):
            raise ValueError("transform matrix is singular")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveTransform is immutable")

    @classmethod
    def identity(cls) -> "ProjectiveTransform":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def __eq__(self, other):
        if not isinstance(other, ProjectiveTransform):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def sort_key(self):
        return tuple(scalar_sort_key(c) for row in self.rows for c in row)

    def __mul__(self, other):
        if not isinstance(other, ProjectiveTransform):
            return NotImplemented
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                s = ZERO
                for k in range(3):
                    s = s + self.rows[i][k] * other.rows[k][j]
                row.append(s)
            rows.append(tuple(row))
        return ProjectiveTransform(rows)

    def determinant(self) -> EisensteinScalar:
        """Determinant of the stored representative.  Only its nonzero-ness
        is projectively meaningful."""
        return det3(self.rows)

    def inverse(self) -> "ProjectiveTransform":
        # adj(M) * M = det(M) * I, so the adjugate is the projective inverse
        return ProjectiveTransform(_adjugate(self.rows))

    def is_identity(self) -> bool:
        return self.rows == ProjectiveTransform.identity().rows

    def order(self) -> int:
        g = self
        n = 1
        while not g.is_identity():
            g = g * self
            n += 1
            if n > 18:
                raise RuntimeError("element order exceeds the group bound")
        return n

    def apply(self, p) -> ProjectivePoint:
        """Image of a projective point under the transform."""
        if not isinstance(p, ProjectivePoint):
            p = ProjectivePoint(p)
        coords = []
        for row in self.rows:
            s = ZERO
            for c, x in zip(row, p.coords):
                if c:
                    s = s + c * x
            coords.append(s)
        return ProjectivePoint(coords)

    def act_on_poly(self, c: MultiPoly) -> MultiPoly:
        """Transformed curve: substitutes the inverse transform's linear
        forms, so a point lies on the result exactly when its preimage lies
        on c."""
        if c.arity != 3:
            raise ValueError("the group acts on curves in 3 variables")
        return c.substitute([_linear_form(row, c.vars) for row in self.inverse().rows])

    def as_rows(self):
        return [[str(c) for c in row] for row in self.rows]

    def __str__(self):
        return "[" + "; ".join(
            ", ".join(str(c) for c in row) for row in self.rows
        ) + "]"

    def __repr__(self):
        return "ProjectiveTransform(%s)" % str(self)


def sigma() -> ProjectiveTransform:
    """Cyclic coordinate shift (x0:x1:x2) -> (x1:x2:x0)."""
    return ProjectiveTransform(((0, 1, 0), (0, 0, 1), (1, 0, 0)))


def tau() -> ProjectiveTransform:
    """Diagonal twist by cube roots of unity diag(1, rho, rho^2)."""
    return ProjectiveTransform(
        ((1, 0, 0), (0, RHO, 0), (0, 0, RHO * RHO))
    )


def iota() -> ProjectiveTransform:
    """Coordinate swap (x0:x1:x2) -> (x0:x2:x1)."""
    return ProjectiveTransform(((1, 0, 0), (0, 0, 1), (0, 1, 0)))


@functools.cache
def _group() -> tuple:
    gens = (sigma(), tau(), iota())
    seen = {ProjectiveTransform.identity()}
    frontier = list(seen)
    while frontier:
        grown = []
        for g in frontier:
            for h in gens:
                prod = g * h
                if prod not in seen:
                    seen.add(prod)
                    grown.append(prod)
        frontier = grown
    return tuple(sorted(seen, key=ProjectiveTransform.sort_key))


def enumerate_group():
    """All distinct transforms generated by sigma, tau and iota, in a fixed
    deterministic order (computed once per process, a fresh list on every
    call).  The projective closure has exactly 18 elements: sigma and tau
    generate a (Z/3)^2 that iota normalizes."""
    return list(_group())


@dataclass(frozen=True)
class Orbit:
    """Orbit of a point under the full group, points sorted canonically."""

    points: tuple

    @property
    def size(self) -> int:
        return len(self.points)

    def __contains__(self, p) -> bool:
        return p in self.points

    def as_dict(self):
        return {"size": self.size, "points": [str(p) for p in self.points]}


def orbit(p) -> Orbit:
    if not isinstance(p, ProjectivePoint):
        p = ProjectivePoint(p)
    pts = {g.apply(p) for g in enumerate_group()}
    return Orbit(tuple(sorted(pts, key=ProjectivePoint.sort_key)))


@dataclass(frozen=True)
class FixedLocus:
    """Points of the plane with nontrivial stabilizer: 9 lines and 9
    isolated points, plus the 12 points where three of the lines meet."""

    lines: tuple
    points: tuple
    triple_points: tuple


def _line_coefficients():
    # families x1 = rho^i x0, x2 = rho^i x1, x0 = rho^i x2 as a*x = 0 rows
    rp = (ONE, RHO, RHO * RHO)
    out = []
    for i in range(3):
        out.append((-rp[i], ONE, ZERO))
    for i in range(3):
        out.append((ZERO, -rp[i], ONE))
    for i in range(3):
        out.append((ONE, ZERO, -rp[i]))
    return out


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def fixed_locus() -> FixedLocus:
    rp = (ONE, RHO, RHO * RHO)
    coeffs = _line_coefficients()
    lines = [_linear_form(a, X_VARS) for a in coeffs]
    points = []
    for i in range(3):
        points.append(ProjectivePoint((ONE, -rp[i], ZERO)))
    for i in range(3):
        points.append(ProjectivePoint((ZERO, ONE, -rp[i])))
    for i in range(3):
        points.append(ProjectivePoint((-rp[i], ZERO, ONE)))
    triples = set()
    n = len(coeffs)
    for i in range(n):
        for j in range(i + 1, n):
            v = _cross(coeffs[i], coeffs[j])
            if not any(v):
                continue
            p = ProjectivePoint(v)
            hits = sum(
                1
                for a in coeffs
                if not (a[0] * p.coords[0] + a[1] * p.coords[1] + a[2] * p.coords[2])
            )
            if hits == 3:
                triples.add(p)
    return FixedLocus(
        lines=tuple(lines),
        points=tuple(points),
        triple_points=tuple(sorted(triples, key=ProjectivePoint.sort_key)),
    )


ORDER3_ORBIT_REPRESENTATIVES = (
    ProjectivePoint((1, 0, 0)),
    ProjectivePoint((1, 1, 1)),
    ProjectivePoint((ONE, ONE, RHO)),
    ProjectivePoint((ONE, ONE, RHO * RHO)),
)


def curve_orbit_obstruction(c: MultiPoly, use_quadratic_map: bool = False) -> dict:
    """Obstruction polynomials of the four orbits of size 3.

    Maps each orbit representative to the monic gcd of the lambda
    polynomials c(p) over the orbit's points p.  The orbit lies on the curve
    for exactly the common lambda roots of that gcd; an identically zero
    obstruction means the orbit lies on every member of the family.  With
    use_quadratic_map the input is a curve in y0,y1,y2 and is composed with
    quadratic_map() before evaluating.
    """
    if c.arity != 3:
        raise ValueError("expected a curve in 3 variables")
    if not c.is_homogeneous():
        raise ValueError("the orbit test needs a homogeneous curve")
    if use_quadratic_map:
        c = c.substitute(quadratic_map())
    out = {}
    for rep in ORDER3_ORBIT_REPRESENTATIVES:
        acc = LambdaPoly(())
        for p in orbit(rep).points:
            acc = acc.gcd(c.evaluate(p.coords))
        out[rep] = acc
    return out
