"""Finite projective symmetry group of the plane and its orbit geometry.

The group is generated by the coordinate cycle sigma, the diagonal tau of
cube roots of unity, and the coordinate swap iota.  Its projective image
has 18 elements, the monomial maps of MONOMIALS.  From that table the
module enumerates the group, computes point orbits on Z[rho] int pairs
(without the group) and tests whether an element fixes a curve.  It builds
the fixed locus (9 lines, 9 points, 12 triple points), and runs the orbit
exclusion test: for a curve family c(lambda) and each orbit of size 3, the
lambda values for which the whole orbit lies on the curve are the common
roots of one obstruction polynomial, on int pairs with lambda symbolic.
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

    __slots__ = ("rows", "pairs")  # pairs: the 9 entries cleared over Z[rho], row major

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
        object.__setattr__(self, "pairs", _zrho.clear([c for row in rs for c in row])[0])

    def __setattr__(self, name, value=None):
        raise AttributeError("ProjectiveTransform is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ProjectiveTransform, (self.rows,)

    @classmethod
    def identity(cls) -> "ProjectiveTransform":
        return cls(((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)))

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
        """Image of a projective point under the transform, on cleared int
        pairs, divided once by its first nonzero coordinate."""
        if not isinstance(p, ProjectivePoint):
            p = ProjectivePoint(p)
        x = _zrho.clear(p.coords)[0]
        y = []
        for i in (0, 3, 6):
            a = b = 0
            for (ra, rb), (xa, xb) in zip(self.pairs[i:i + 3], x):
                bb = rb * xb
                a, b = a + ra * xa - bb, b + ra * xb + rb * xa - bb
            y.append((a, b))
        a, b = next(v for v in y if v != (0, 0))
        n = _zrho.norm((a, b))
        return ProjectivePoint._raw(tuple(EisensteinScalar._raw(*_zrho.mul(v, (a - b, -b)), n) for v in y))

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
    return ProjectiveTransform(((ZERO, ONE, ZERO), (ZERO, ZERO, ONE), (ONE, ZERO, ZERO)))


def tau() -> ProjectiveTransform:
    """Diagonal twist by cube roots of unity diag(1, rho, rho^2)."""
    return ProjectiveTransform(
        ((ONE, ZERO, ZERO), (ZERO, RHO, ZERO), (ZERO, ZERO, RHO * RHO))
    )


def iota() -> ProjectiveTransform:
    """Coordinate swap (x0:x1:x2) -> (x0:x2:x1)."""
    return ProjectiveTransform(((ONE, ZERO, ZERO), (ZERO, ZERO, ONE), (ZERO, ONE, ZERO)))


# sigma^i * tau^j * iota^k as the monomial map (perm, exps) taking x to y,
# y_r = rho^exps[r] * x_perm[r]: perm[r] = +-(r + i), the sign - for k = 1,
# and exps[r] = j*(r + i), mod 3.  The 9 translations (k = 0) come first.
MONOMIALS = tuple(
    (tuple(s * (r + i) % 3 for r in range(3)), tuple(j * (r + i) % 3 for r in range(3)))
    for s in (1, -1) for i in range(3) for j in range(3)
)
TRANSLATIONS = MONOMIALS[:9]


@functools.cache
def _group() -> tuple:
    units = (ONE, RHO, RHO * RHO)
    rows = ([[units[e] if c == k else ZERO for c in range(3)] for k, e in zip(*g)] for g in MONOMIALS)
    return tuple(sorted(map(ProjectiveTransform, rows), key=ProjectiveTransform.sort_key))


def enumerate_group():
    """All distinct transforms generated by sigma, tau and iota, in a fixed
    deterministic order (built once per process from MONOMIALS, a fresh
    list on every call).  The group has exactly 18 elements: sigma and tau
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


def images(p, elements) -> list:
    """The distinct images of p under the monomial maps elements, unsorted:
    on p's cleared int pairs times 1, rho and rho^2, each divided once by
    its first nonzero entry, as ProjectiveTransform.apply does.  Two images
    of one point differ by a factor of norm 1 (each permutes p's coordinates
    up to units), so they give the same pairs; only distinct ones become points."""
    if not isinstance(p, ProjectivePoint):
        p = ProjectivePoint(p)
    units = [((a, b), (-b, a - b), (b - a, -a)) for a, b in _zrho.clear(p.coords)[0]]
    seen = {}
    for perm, exps in elements:
        y = [units[k][e] for k, e in zip(perm, exps)]
        a, b = next(v for v in y if v != (0, 0))
        seen[tuple(_zrho.mul(v, (a - b, -b)) for v in y)] = _zrho.norm((a, b))
    return [ProjectivePoint._raw(tuple(EisensteinScalar._raw(a, b, n) for a, b in v)) for v, n in seen.items()]


def orbit(p) -> Orbit:
    """The orbit of p: its images under the 18 group elements, without the group."""
    return Orbit(tuple(sorted(images(p, MONOMIALS), key=ProjectivePoint.sort_key)))


def fixes(form, g) -> bool:
    """Whether the monomial map g = (perm, exps) fixes the curve of form
    (exponent -> coefficient, as lambda_form gives it) up to a power of rho,
    by a sufficient test: x^e at g(x) is rho^(e . exps) * x^e', e'[perm[r]]
    = e[r]; each e' carries the coefficient of e, and e . exps is one value mod 3."""
    perm, exps = g
    return len({sum(n * w for n, w in zip(e, exps)) % 3 for e in form}) < 2 and all(
        form.get(tuple(e[perm.index(k)] for k in range(3))) == f for e, f in form.items())


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
    ProjectivePoint((ONE, ZERO, ZERO)),
    ProjectivePoint((ONE, ONE, ONE)),
    ProjectivePoint((ONE, ONE, RHO)),
    ProjectivePoint((ONE, ONE, RHO * RHO)),
)


def lambda_form(c: MultiPoly):
    """c cleared over Z[rho]: (form, den), form mapping each exponent to
    its coefficient as an int-pair polynomial in lambda, lowest power
    first, and den the lcm of the denominators of every scalar."""
    pairs, den = _zrho.clear([x for f in c.terms.values() for x in f.coeffs])
    pairs = iter(pairs)
    return {e: [next(pairs) for _ in f.coeffs] for e, f in c.terms.items()}, den


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
    form = lambda_form(c)[0]
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
