"""Finite projective symmetry group of the plane and its orbit geometry.

The group is generated by the coordinate cycle sigma, the diagonal tau of
cube roots of unity, and the coordinate swap iota.  Its projective image
has 18 elements.  The module enumerates the group, computes point orbits
(by closure under the three generators, without the group), builds the
fixed locus (9 lines, 9 points, 12 triple points), and runs the orbit
exclusion test: for a curve family c(lambda) and each orbit of size 3, the
lambda values for which the whole orbit lies on the curve are the common
roots of one obstruction polynomial.  The test runs on Z[rho] int pairs
(_zrho), with lambda symbolic.
"""

import functools
from typing import NamedTuple

from . import _zrho
from .scalars import (
    ZERO,
    ONE,
    RHO,
    EisensteinScalar,
    LambdaPoly,
    scalar_sort_key,
)
from .polynomials import MultiPoly, X_VARS
from .curve import ProjectivePoint, cross, det3, dot


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

    def __setattr__(self, name, value=None):
        raise AttributeError("ProjectiveTransform is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ProjectiveTransform, (self.rows,)

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
        columns = tuple(zip(*other.rows))
        return ProjectiveTransform([[dot(row, col) for col in columns] for row in self.rows])

    def inverse(self) -> "ProjectiveTransform":
        # adj(M) * M = det(M) * I, so the adjugate is the projective inverse;
        # its columns are the cross products of the row pairs
        r0, r1, r2 = self.rows
        return ProjectiveTransform(tuple(zip(cross(r1, r2), cross(r2, r0), cross(r0, r1))))

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
        return ProjectivePoint([dot(row, p.coords) for row in self.rows])

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
def _generators() -> tuple:
    return sigma(), tau(), iota()


def _closure(start, step) -> set:
    """The smallest set holding start and closed under step(x, g) for
    each generator g of sigma, tau and iota."""
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for x in frontier:
            for g in _generators():
                y = step(x, g)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return seen


@functools.cache
def _group() -> tuple:
    seen = _closure(ProjectiveTransform.identity(), ProjectiveTransform.__mul__)
    return tuple(sorted(seen, key=ProjectiveTransform.sort_key))


def enumerate_group():
    """All distinct transforms generated by sigma, tau and iota, in a fixed
    deterministic order (computed once per process, a fresh list on every
    call).  The projective closure has exactly 18 elements: sigma and tau
    generate a (Z/3)^2 that iota normalizes."""
    return list(_group())


class Orbit(NamedTuple):
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
    """The orbit of p: its closure under sigma, tau and iota.  The group
    is finite, so each inverse is a power of its element and the closure
    is {g(p) : g in enumerate_group()}, found without building the group."""
    if not isinstance(p, ProjectivePoint):
        p = ProjectivePoint(p)
    pts = _closure(p, lambda q, g: g.apply(q))
    return Orbit(tuple(sorted(pts, key=ProjectivePoint.sort_key)))


class FixedLocus(NamedTuple):
    """Points of the plane with nontrivial stabilizer: 9 lines and 9
    isolated points, plus the 12 points where three of the lines meet."""

    lines: tuple
    points: tuple
    triple_points: tuple


def _shifts(family):
    """The vectors of family, then all of them shifted (a, b, c) -> (c, a, b),
    then all shifted (a, b, c) -> (b, c, a)."""
    return [v[3 - s:] + v[:3 - s] for s in range(3) for v in family]


def fixed_locus() -> FixedLocus:
    cube_roots = (ONE, RHO, RHO * RHO)
    # the lines x1 = r x0, x2 = r x1 and x0 = r x2 as rows a with a . x = 0
    coeffs = _shifts([(-r, ONE, ZERO) for r in cube_roots])
    lines = [_linear_form(a, X_VARS) for a in coeffs]
    points = [ProjectivePoint(v) for v in _shifts([(ONE, -r, ZERO) for r in cube_roots])]
    triples = set()
    for i, a in enumerate(coeffs):
        for b in coeffs[i + 1:]:
            v = cross(a, b)
            if not any(v):
                continue
            p = ProjectivePoint(v)
            if sum(1 for c in coeffs if not dot(c, p.coords)) == 3:
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


def _lambda_form(c: MultiPoly) -> dict:
    """c cleared over Z[rho]: exponent -> its coefficient as an int-pair
    polynomial in lambda, lowest power first, every scalar over one lcm
    denominator, which is dropped."""
    pairs = iter(_zrho.clear([x for f in c.terms.values() for x in f.coeffs])[0])
    return {e: [next(pairs) for _ in f.coeffs] for e, f in c.terms.items()}


def _coordinates(p: ProjectivePoint, use_quadratic_map: bool) -> list:
    """The cleared coordinates of p as int-pair polynomials in lambda
    (trailing zeros allowed), or with use_quadratic_map their images
    y_i = p_i^2 - lambda*p_j*p_k: quadratic_map() at p up to its factor 3."""
    x = _zrho.clear(p.coords)[0]
    if not use_quadratic_map:
        return [[v] for v in x]
    out = []
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        a, b = _zrho.mul(x[j], x[k])
        out.append([_zrho.mul(x[i], x[i]), (-a, -b)])
    return out


def curve_orbit_obstruction(c: MultiPoly, use_quadratic_map: bool = False) -> dict:
    """Obstruction polynomials of the four orbits of size 3.

    Maps each orbit representative to the monic gcd of the lambda
    polynomials c(p) over the orbit's points p.  The orbit lies on the curve
    for exactly the common lambda roots of that gcd; an identically zero
    obstruction means the orbit lies on every member of the family.  With
    use_quadratic_map the input is a curve in y0,y1,y2 composed with
    quadratic_map() q: its value at p is c(q(p)) = (c o q)(p).

    On Z[rho] int pairs: c is cleared once and each point is mapped first,
    so c o q is never built.  Clearing and the map's dropped factor 3
    scale each value by a nonzero constant (c is homogeneous), which the
    gcd (_zrho.gcd, normalized to the cleared monic gcd) does not see.
    """
    if c.arity != 3:
        raise ValueError("expected a curve in 3 variables")
    if not c.is_homogeneous():
        raise ValueError("the orbit test needs a homogeneous curve")
    form = _lambda_form(c)
    out = {}
    for rep in ORDER3_ORBIT_REPRESENTATIVES:
        g = []
        for p in orbit(rep).points:
            v = _zrho.form_value(form, _coordinates(p, use_quadratic_map))
            if v:
                g = _zrho.gcd(v, g)
                if len(g) == 1:  # a constant gcd stays constant
                    break
        g = _zrho.normalize(g) if g else []
        out[rep] = LambdaPoly._raw(EisensteinScalar._raw(a, b, g[-1][0]) for a, b in g)
    return out
