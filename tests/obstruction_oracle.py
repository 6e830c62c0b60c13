"""The orbit obstruction on MultiPoly and LambdaPoly objects: the oracle of
heisenberg.curve_orbit_obstruction and heisenberg.orbit; and the closure
under the three generators, the oracle of the group and of its orbits.

This is the path the library ran before it moved onto Z[rho] int pairs:
an orbit is the image of the point under every element of
enumerate_group(), each image a product of EisensteinScalars, and the obstruction composes the curve with
quadratic_map() (a MultiPoly substitution), evaluates the composite at
each orbit point as a LambdaPoly and takes the monic LambdaPoly.gcd over
the orbit.  Both must agree with the library exactly (==).
"""

from plucker_lab.curve import ProjectivePoint, dot
from plucker_lab.heisenberg import ORDER3_ORBIT_REPRESENTATIVES, Orbit, enumerate_group, iota, sigma, tau
from plucker_lab.polynomials import MultiPoly, quadratic_map
from plucker_lab.scalars import LambdaPoly


def apply(g, p) -> ProjectivePoint:
    """The image of p under the transform g on EisensteinScalar objects:
    the oracle of ProjectiveTransform.apply."""
    return ProjectivePoint([dot(row, p.coords) for row in g.rows])


def orbit(p) -> Orbit:
    """The images of p under all 18 group elements, sorted canonically."""
    if not isinstance(p, ProjectivePoint):
        p = ProjectivePoint(p)
    pts = {apply(g, p) for g in enumerate_group()}
    return Orbit(tuple(sorted(pts, key=ProjectivePoint.sort_key)))


def closure(start, step) -> set:
    """The smallest set holding start and closed under step(x, g) for
    each generator g of sigma, tau and iota.  The group is finite, so each
    inverse is a power of its element: closure(identity, *) is the group,
    and closure(p, g.apply) the orbit of p."""
    generators = sigma(), tau(), iota()
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for x in frontier:
            for g in generators:
                y = step(x, g)
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        frontier = grown
    return seen


def curve_orbit_obstruction(c: MultiPoly, use_quadratic_map: bool = False) -> dict:
    """Representative -> monic gcd of c (composed with the quadratic map
    first if asked) over the points of its orbit of size 3."""
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
