"""Plane projective curves: singular loci, singularity types, flexes,
dual curves, and genus bookkeeping.

Everything here works with exact Eisenstein-rational coordinates.  Points
whose coordinates leave that field are not enumerated; instead every
search result carries notes, one for each reason it may have missed a
point, so callers can tell "none found" from "none found among
scalar-resolvable points": a search is complete exactly when it has no
note.

The class, the flex count and the genus come from one rule,
pluecker_counts, and none of them is given when the singular locus is
incomplete or has an unclassified point.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from . import _zrho
from .scalars import (
    ONE,
    ZERO,
    EisensteinScalar,
    LambdaPoly,
    lambda_roots,  # noqa: F401 -- perfbench traces curve.lambda_roots by name
    scalar_sort_key,
)
from .polynomials import (
    MultiPoly,
    U_VARS,
    X_VARS,
    normalize_leading,
    parse_poly,
    parse_scalar,
)


class LambdaSymbolicError(ValueError):
    """Operation needs a concrete lambda; got a symbolic one."""


class NotOnCurveError(ValueError):
    pass


class NonsingularPointError(ValueError):
    pass


class DegenerateHessianError(ValueError):
    """The Hessian determinant vanishes identically (ruled or degenerate
    input such as a line or a double line)."""


class ProjectivePoint:
    """Point of the projective plane with Eisenstein-rational coordinates,
    stored with the first nonzero coordinate normalized to 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        cs = []
        for c in coords:
            if not isinstance(c, EisensteinScalar):
                c = EisensteinScalar(c)
            cs.append(c)
        if len(cs) != 3:
            raise ValueError("a projective point needs 3 coordinates")
        pivot = next((c for c in cs if c), None)
        if pivot is None:
            raise ValueError("(0:0:0) is not a projective point")
        inv = pivot.inverse()
        object.__setattr__(self, "coords", tuple(c * inv for c in cs))

    @classmethod
    def _raw(cls, coords: tuple) -> "ProjectivePoint":
        """The point of three EisensteinScalars already normalized: the
        first nonzero one is 1."""
        self = object.__new__(cls)
        object.__setattr__(self, "coords", coords)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError("ProjectivePoint is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ProjectivePoint, (self.coords,)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def sort_key(self):
        return tuple(scalar_sort_key(c) for c in self.coords)

    def __str__(self):
        return "(%s)" % " : ".join(str(c) for c in self.coords)

    def __repr__(self):
        return str(self)

    def as_list(self):
        return [str(c) for c in self.coords]


def parse_point(text: str) -> ProjectivePoint:
    """Parse `a:b:c` with scalar-grammar coordinates."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected three ':'-separated coordinates")
    return ProjectivePoint([parse_scalar(p) for p in parts])


KIND_NODE = "node"
KIND_CUSP = "cusp"
KIND_TACNODE = "tacnode"
KIND_ORDINARY = "ordinary"
KIND_UNCLASSIFIED = "unclassified"

_ADE = {KIND_NODE: "A1", KIND_CUSP: "A2", KIND_TACNODE: "A3"}


class SingularityRecord(NamedTuple):
    point: ProjectivePoint
    multiplicity: int
    kind: str
    delta: int
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "point": self.point.as_list(),
            "multiplicity": self.multiplicity,
            "kind": self.kind,
            "delta": self.delta,
        }
        if self.kind in _ADE:
            out["ade"] = _ADE[self.kind]
        if self.note:
            out["note"] = self.note
        return out


def _complete(search) -> bool:
    """A search result's notes give every reason it may have missed a
    point; it is complete exactly when there is none."""
    return not search.notes


class SingularLocus(NamedTuple):
    points: tuple
    notes: tuple = ()
    complete = property(_complete)


class PlaneCurve:
    """A nonzero homogeneous equation in three variables, lambda-free
    (specialize lambda before constructing).

    The equation is cleared over Z[rho] once, into form: exponent ->
    (a, b), the equation times the lcm of its denominators.  The singular
    locus, the jets, the Hessian, the flexes and the dual all run on that
    form with int pairs; the equation stays a MultiPoly for callers."""

    __slots__ = ("equation", "degree", "form")

    def __init__(self, equation: MultiPoly):
        if equation.arity != 3:
            raise ValueError("a plane curve needs exactly 3 variables")
        if equation.is_zero():
            raise ValueError("zero equation does not cut out a curve")
        if not equation.is_homogeneous():
            raise ValueError("curve equation must be homogeneous")
        if not equation.lambda_free():
            raise LambdaSymbolicError(
                "lambda is still symbolic; specialize it first"
            )
        object.__setattr__(self, "equation", equation)
        object.__setattr__(self, "degree", equation.total_degree())
        object.__setattr__(self, "form", equation.cleared()[0])

    def __setattr__(self, name, value=None):
        raise AttributeError("PlaneCurve is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return PlaneCurve, (self.equation,)

    @classmethod
    def from_text(cls, text: str, variables=X_VARS) -> "PlaneCurve":
        return cls(parse_poly(text, variables))

    @property
    def vars(self):
        return self.equation.vars

    def __str__(self):
        return str(self.equation)

    def __repr__(self):
        return "PlaneCurve(%s)" % self.equation


# ---------------------------------------------------------------------------
# Common zeros of polynomial systems, chart by chart


_POSITIVE_DIMENSIONAL = "solution set is positive-dimensional in a chart"


def _gcd_roots(fs, name, notes, at, more=()):
    """The roots of the gcd of the nonzero int-pair polynomials fs in
    name, as (a, b, d) triples.  Empty fs leave name free: the solution
    set is noted as positive-dimensional.  A cofactor left without roots
    (of degree >= 2) stands for zeros outside Q(rho) and is noted as
    unresolved, with the values at fixed so far.  The polys of the
    iterable more vanish at every value sought too; they are drawn only
    while such a cofactor is left, and only its gcd with each is kept,
    since every missing value is a root of it.

    The chain runs from the shortest f and stops at a gcd of degree <= 1;
    its root is kept only where the fs left out of the chain vanish, so
    the roots are those of the whole gcd.  A note needs a gcd of degree
    >= 2, which never stops early."""
    if not fs:
        if _POSITIVE_DIMENSIONAL not in notes:
            notes.append(_POSITIVE_DIMENSIONAL)
        return []
    g, *fs = sorted(fs, key=len)
    while fs and len(g) > 2:
        g = _zrho.gcd(g, fs.pop(0))
    if len(g) < 2:
        return []
    found, rest = _zrho.solve(g)
    more = iter(more)
    while len(rest) >= 2 and (f := next(more, None)) is not None:
        rest = _zrho.gcd(rest, f)
    if len(rest) >= 2:
        where = "".join(" at %s = %s" % (n, EisensteinScalar._raw(*x)) for n, x in at)
        notes.append("unresolved degree-%d factor in %s%s" % (len(rest) - 1, name, where))
    return [x for x in found if all(_zrho.value(f, x) == (0, 0) for f in fs)]


def _affine_zeros(tables, names, notes, at=()):
    """Common zeros of polynomials in the variables names (at most two;
    the others are fixed, the values at so far), as tuples of values in
    the order of names.  Each polynomial is given as its chart table (see
    _chart): rows over the powers of the second name of polynomials in
    the first.  Each reason a zero may be missing is appended to notes.

    One recursive elimination and back-substitution (Cox, Little &
    O'Shea, Ideals, Varieties, and Algorithms, ch. 3): the values of the
    first name are the roots of the gcd of the polys, or, with a second
    name left, of their resultants in it against the poly of least
    degree in it.  A factor that those leave without roots is cut down by
    the resultants of the other pairs before it is noted: the first ones
    alone can share values at which no zero lies.  Everything runs on
    Z[rho] int pairs: the resultants of the subresultant PRS
    _zrho.resultant, the gcds of the primitive PRS _zrho.gcd and the
    roots of _zrho.solve, the root core of lambda_roots.  Each value is
    substituted into all the tables at once (_zrho.substitute, one table
    of root powers for all) and the rest solved
    the same way, on the one-row tables that are not zero; with no name
    left, () is a zero exactly when every table is zero, and a table that
    is a nonzero constant leaves no zero before any resultant is taken.
    At the last name a value is kept only if every poly vanishes at it
    exactly, and only the values of kept zeros become scalars.
    """
    live = [t for t in tables if t]
    if not names or any(len(t) == 1 and len(t[0]) == 1 for t in live):
        return [] if live else [()]
    u, *rest = names
    cons, more = [t[0] for t in live if len(t) == 1], ()
    if rest:
        with_v = sorted(
            (t for t in live if len(t) > 1),
            key=lambda t: (len(t), sum(x != (0, 0) for row in t for x in row)),
        )
        cons += [r for t in with_v[1:] if (r := _zrho.resultant(with_v[0][::-1], t[::-1]))]
        pairs = itertools.combinations(with_v[1:], 2)
        more = (_zrho.resultant(s[::-1], t[::-1]) for s, t in pairs)
    zeros = []
    for x in _gcd_roots(cons, u, notes, at, more):
        if rest:
            subs = [[s] for s in _zrho.substitute(live, x) if s]
            tails = _affine_zeros(subs, rest, notes, at + ((u, x),))
        else:
            tails = [()] if all(_zrho.value(t[0], x) == (0, 0) for t in live) else []
        zeros.extend((EisensteinScalar._raw(*x),) + z for z in tails)
    return zeros


def _chart(form, k):
    """The chart table of the homogeneous int-pair form at x_k = 1 and
    x_j = 0 for j < k (_zrho.table): rows over the powers of x2 of
    polynomials in x1 for k = 0, one row in x2 for k = 1, and at most the
    constant for k = 2."""
    v, u = ((2, 1), (None, 2), (None, None))[k]
    return _zrho.table({e: x for e, x in form.items() if not any(e[:k])}, v, u)


def projective_common_zeros(forms, variables):
    """All common projective zeros with Eisenstein-rational coordinates
    of homogeneous int-pair forms (exponent -> (a, b), as PlaneCurve.form)
    in the three named variables.

    Works through the disjoint charts x_k = 1, x_j = 0 for j < k
    (k = 0, 1, 2), each by _affine_zeros on the chart tables; a chart
    zero is (0, .., 0, 1, z) with z normalized scalars, so its point is
    built as it stands (ProjectivePoint._raw).  Returns
    (points, notes): a note for each factor that _zrho.solve leaves
    without roots, and one if a chart has a positive-dimensional solution
    set.
    """
    notes, points = [], []
    for k in range(3):
        zeros = _affine_zeros([_chart(f, k) for f in forms], variables[k + 1 :], notes)
        points.extend(ProjectivePoint._raw((ZERO,) * k + (ONE,) + z) for z in zeros)
    return sorted(set(points), key=ProjectivePoint.sort_key), notes


def singular_locus(c: PlaneCurve) -> SingularLocus:
    """Scalar-resolvable common zeros of the three partial derivatives.

    For homogeneous equations in characteristic zero these automatically
    lie on the curve (Euler identity).
    """
    forms = [g for g in _zrho.gradient(c.form) if g]
    if not forms:
        raise ValueError("all partials vanish identically")
    points, notes = projective_common_zeros(forms, c.vars)
    return SingularLocus(tuple(points), tuple(notes))


# ---------------------------------------------------------------------------
# Local singularity classification
#
# Jets are computed over Z[rho] with plain ints, in the format of _zrho.


@functools.cache
def _binomials(d: int, order: int):
    """The rows C(e, 0..min(e, order)) for e = 0..d, built once per
    (d, order) pair that occurs; read only."""
    return tuple(tuple(math.comb(e, u) for u in range(min(e, order) + 1)) for e in range(d + 1))


def _taylor_jets(c: PlaneCurve, p: ProjectivePoint, order: int, low: int = 0):
    """The jets of degree 0..order of the curve at p, over Z[rho] ([] below low).

    Let i be the index of p's first nonzero coordinate and j < k the
    other two.  Write p = (D : A : B) in the order (i, j, k), with D the
    lcm of the denominators of p_j and p_k and A, B in Z[rho], and let L
    be the lcm of the equation's denominators.  jets[n] is the degree-n
    part of L * F(x_i = D, x_j = A + s, x_k = B + t), expanded by
    binomials with every term of degree above order dropped.  It equals
    L * D^(d-n) times the degree-n part of F(x_i = 1, x_j = p_j + s,
    x_k = p_k + t): the same jets up to one nonzero factor per degree.
    The binomials C(e, u) are tabled once per (d, order) by _binomials,
    and each product of shifts runs over their nonzero terms only.
    """
    i = next(idx for idx, v in enumerate(p.coords) if v)
    j, k = (idx for idx in range(3) if idx != i)
    ab, den = _zrho.clear((p.coords[j], p.coords[k]))
    d = c.degree
    binom = _binomials(d, order)
    # shifts[e]: the (u, a, b) with a + b*rho = C(e, u) * A^(e-u) nonzero,
    # the coefficient of s^u in (A + s)^e, u ascending
    shift_s, shift_t = (
        [
            [(u, m * pw[e - u][0], m * pw[e - u][1]) for u, m in enumerate(row) if pw[e - u] != (0, 0)]
            for e, row in enumerate(binom)
        ]
        for pw in (_zrho.powers(x, d) for x in ab)
    )
    den_pow = [den**e for e in range(d + 1)]
    out_a = [[0] * (n + 1) if n >= low else [] for n in range(order + 1)]
    out_b = [[0] * (n + 1) if n >= low else [] for n in range(order + 1)]
    for exp, (ca, cb) in c.form.items():
        f = den_pow[exp[i]]
        ca, cb = ca * f, cb * f
        tail = shift_t[exp[k]]
        for u, sa, sb in shift_s[exp[j]]:
            bb = cb * sb
            xa, xb = ca * sa - bb, ca * sb + cb * sa - bb
            for v, ta, tb in (tail if u >= low else [t for t in tail if u + t[0] >= low]):
                if u + v > order:
                    break
                bb = xb * tb
                out_a[u + v][u] += xa * ta - bb
                out_b[u + v][u] += xa * tb + xb * ta - bb
    return [list(zip(ra, rb)) for ra, rb in zip(out_a, out_b)]


def _is_squarefree_form(form) -> bool:
    """Whether the binary form has no repeated linear factor: at t = 1 it
    is a squarefree polynomial in s, and t divides it at most once (its
    s-degree is n or n - 1)."""
    f = list(form)
    while f[-1] == (0, 0):
        f.pop()
    return len(f) >= len(form) - 1 and len(_zrho.gcd(f, _zrho.derivative(f))) == 1


def classify_singularity(c: PlaneCurve, p: ProjectivePoint) -> SingularityRecord:
    """Decide node/cusp/tacnode/ordinary-m at p by jet inspection.

    Reads the Z[rho] jets of _taylor_jets; every test below is a zero
    test invariant under their per-degree factors.  The jets are built to
    order 3 first: nodes, cusps and ordinary triple points read nothing
    above them.  An m-fold point with a squarefree m-jet is ordinary (for
    m = 2 a node: the discriminant of the 2-jet is nonzero); at m >= 4
    the jets are built once more, to order d.  A double point with a
    repeated tangent is put in coordinates (s, t) -> s*v + t*w, v along
    the tangent, where the 2-jet is gamma*t^2: a nonzero s^3 coefficient
    J3(v) is a cusp, otherwise a nonzero square-completed s^4 coefficient
    is a tacnode, read from the 4-jet alone, which only this branch builds.
    The powers of v's coordinates are built once and shared by every
    form_at call.  Anything deeper is reported unclassified (delta is
    then a lower bound), as is an m-fold point with m > 2 and a repeated
    tangent.
    """
    for order in (3, c.degree):  # the second only at multiplicity >= 4
        jets = _taylor_jets(c, p, order)
        live = (n for n, jet in enumerate(jets) if any(x != (0, 0) for x in jet))
        m = next(live, None)
        if m is not None:
            break
    if m == 0:
        raise NotOnCurveError("%s does not lie on the curve" % p)
    if m == 1:
        raise NonsingularPointError("%s is a smooth point of the curve" % p)
    if m > 2:
        if _is_squarefree_form(jets[m]):
            return SingularityRecord(p, m, KIND_ORDINARY, m * (m - 1) // 2)
        return SingularityRecord(
            p,
            m,
            KIND_UNCLASSIFIED,
            m * (m - 1) // 2,
            note="multiplicity-%d point with repeated tangent; delta is a "
            "lower bound" % m,
        )
    c0, b, a = jets[2]  # the 2-jet a*s^2 + b*s*t + c0*t^2
    bb, ac = _zrho.mul(b, b), _zrho.mul(a, c0)
    if (bb[0] - 4 * ac[0], bb[1] - 4 * ac[1]) != (0, 0):
        return SingularityRecord(p, 2, KIND_NODE, 1)
    swap = a == (0, 0)
    if swap:
        # the 2-jet is c0*t^2: swap s and t
        jets = [jet[::-1] for jet in jets]
        _, b, a = jets[2]
    # 4a * (2-jet) = (2a*s + b*t)^2: the tangent direction is v = (b, -2a),
    # and with w = (1, 0) the 2-jet becomes gamma*t^2 for gamma = a
    v = (b, (-2 * a[0], -2 * a[1]))
    gamma = a
    pw = (_zrho.powers(v[0], 4), _zrho.powers(v[1], 4))
    if gamma == (0, 0) or _zrho.form_at(jets[2], pw) != (0, 0):
        raise ArithmeticError("tangent alignment failed at %s" % p)
    if _zrho.form_at(jets[3], pw) != (0, 0):
        return SingularityRecord(p, 2, KIND_CUSP, 1)
    # the s^2*t coefficient d/dw J3(v), and the s^4 coefficient J4(v)
    c3 = _zrho.form_at([(u * x, u * y) for u, (x, y) in enumerate(jets[3])][1:], pw)
    jet4 = _taylor_jets(c, p, 4, 4)[4]
    b4 = _zrho.form_at(jet4[::-1] if swap else jet4, pw)
    # complete the square in t: 4*gamma times the surviving s^4 coefficient
    g4, c3c3 = _zrho.mul(gamma, b4), _zrho.mul(c3, c3)
    if (4 * g4[0] - c3c3[0], 4 * g4[1] - c3c3[1]) != (0, 0):
        return SingularityRecord(p, 2, KIND_TACNODE, 2)
    return SingularityRecord(
        p,
        2,
        KIND_UNCLASSIFIED,
        2,
        note="double point beyond a tacnode; delta is a lower bound",
    )


def classified_singularities(c: PlaneCurve):
    locus = singular_locus(c)
    return tuple(classify_singularity(c, p) for p in locus.points), locus


def pluecker_counts(d: int, records, locus):
    """(m, f, g): the class, flex count and geometric genus of a curve of
    degree d by pluecker's (1), (3) and (g) on one (nu, kappa) count, a
    cusp as one cusp and any other classified point as delta nodes (a
    tacnode as 2, an ordinary m-fold point as m(m-1)/2; Brieskorn &
    Knoerrer, Plane Algebraic Curves, section 9).  None unless locus is
    complete and every record classified: a missed point, or the lower
    bound delta of an unclassified one, moves all three by an unknown
    amount.  A negative value means the curve is reducible."""
    if not locus.complete or any(r.kind == KIND_UNCLASSIFIED for r in records):
        return None
    kappa = sum(r.kind == KIND_CUSP for r in records)
    nu = sum(r.delta for r in records) - kappa
    return (
        d * (d - 1) - 2 * nu - 3 * kappa,
        3 * d * (d - 2) - 6 * nu - 8 * kappa,
        (d - 1) * (d - 2) // 2 - nu - kappa,
    )


# ---------------------------------------------------------------------------
# Flexes


class FlexSearch(NamedTuple):
    points: tuple
    count_with_multiplicity: int | None
    notes: tuple = ()
    complete = property(_complete)


def cross(u, v):
    """Cross product of two 3-vectors over any ring (scalars or
    polynomials): the cofactors of the rows u and v."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u, v):
    """Sum of the products u[i] * v[i] over any ring, leaving out those
    with u[i] zero (a zero u gives u[0] * v[0], the zero of the ring)."""
    products = [a * b for a, b in zip(u, v) if a] or [u[0] * v[0]]
    return sum(products[1:], products[0])


def det3(rows):
    """Determinant of a 3x3 matrix over any ring, by cofactors along the
    first row."""
    return dot(rows[0], cross(rows[1], rows[2]))


def flexes(c: PlaneCurve, classified=None) -> FlexSearch:
    """Smooth inflection points and their Bezout-weighted count.

    The curve meets its Hessian in 3d(d-2) points counted with
    multiplicity; singular points absorb a known share each and the rest
    are flexes: the count is the f of pluecker_counts, or None.
    classified is the (records, locus) pair of classified_singularities(c)
    when the caller has it already.
    """
    h = _zrho.hessian(c.form)
    if not h:
        raise DegenerateHessianError(
            "identically-zero Hessian: ruled or degenerate input"
        )
    records, locus = classified or classified_singularities(c)
    counts = pluecker_counts(c.degree, records, locus)
    total = None if counts is None else counts[1]
    notes = list(locus.notes) + [
        "count not certified: unclassified singularity at %s" % rec.point
        for rec in records if rec.kind == KIND_UNCLASSIFIED
    ]
    if total is not None and total < 0:
        notes.append("flex count went negative; input likely reducible")
        total = 0
    pts, zero_notes = projective_common_zeros([c.form, h], c.vars)
    notes.extend(zero_notes)
    sing_points = {rec.point for rec in records}
    flex_points = tuple(p for p in pts if p not in sing_points)
    return FlexSearch(flex_points, total, tuple(dict.fromkeys(notes)))


# ---------------------------------------------------------------------------
# Dual curves


class DualKernelError(ValueError):
    """The linear system for the dual form of degree m has a kernel that
    is not one-dimensional (a non-reduced or line-containing input)."""

    def __init__(self, degree: int, dimension: int):
        super().__init__(
            "the dual form of degree %d has a %d-dimensional kernel, not 1: "
            "no unique dual curve" % (degree, dimension)
        )
        self.degree = degree
        self.dimension = dimension


def dual_curve(c: PlaneCurve) -> PlaneCurve:
    """The curve of tangent lines, as an equation in dual coordinates.

    Finds the form G of degree m with f | G(grad f) as one exact linear
    kernel: column alpha (|alpha| = m) is the normal form of grad(f)^alpha
    modulo f with respect to f's grlex leading monomial ({f} is a Groebner
    basis of (f) for every term order), so the kernel vector is an exact
    certificate.  Column alpha is the normal form of the product of the
    columns of beta and alpha - beta, |beta| = m // 2: degree m needs the
    levels m // 2 and m - m // 2, and so on down to the reduced gradients.
    All of it runs on Z[rho] int pairs (_zrho.times, reduce and kernel),
    each column with a rational scale undone at the end.  The kernel is
    decided block by block, over the connected components of columns and
    the monomials they touch: the largest block, which holds the dual on
    every corpus curve (10 of the Fermat quartic's 91 columns), is
    eliminated exactly, and a smaller one only when it is not proved full
    rank mod one prime.  m is the class of pluecker_counts when it gives
    one; otherwise every level is built in turn up to the least m <= d(d-1)
    with a nonzero kernel.  A class below 2 (lines, whose dual is a set
    of points) raises ValueError; a kernel that is not 1-dimensional
    raises DualKernelError.  A curve whose Hessian vanishes identically
    (a rank-2 conic, concurrent lines) raises DegenerateHessianError
    first: by Gordan and Noether (Math. Ann. 10, 1876) a ternary form has
    an identically zero Hessian exactly when its partials are linearly
    dependent, which the same kernel decides.
    """
    f = dict(c.form)
    grads = _zrho.gradient(f)
    if _zrho.kernel(grads):
        raise DegenerateHessianError(
            "identically-zero Hessian: the curve is a union of concurrent "
            "lines and has no dual curve"
        )
    d = c.degree
    out_vars = U_VARS if c.vars != U_VARS else X_VARS
    counts = pluecker_counts(d, *classified_singularities(c))
    m_expected = None if counts is None else counts[0]
    if m_expected is not None and m_expected < 2:  # a non-line has class >= 2
        raise ValueError(
            "the curve is a union of lines (class %d): its dual is a set of "
            "points, not a curve" % m_expected
        )
    # n*x^lead = tail modulo f with n the norm of the leading coefficient
    lead = max(f)  # f is homogeneous: its grlex leading monomial is the lex largest
    lc = f.pop(lead)
    minus_conj = (lc[1] - lc[0], lc[1])  # lc * conj(lc) = N(lc)
    tail = {e: _zrho.mul(x, minus_conj) for e, x in f.items()}
    n = _zrho.norm(lc)
    g = math.gcd(n, _zrho.content(tail))
    tail, n = list(_zrho.divide(tail, g).items()), n // g
    # level m maps alpha to column alpha as (r, u, k), r a form over Z[rho]:
    # the normal form is r * u / n^k; beta is taken greedily from x0 down
    levels = {0: {(0, 0, 0): ({(0, 0, 0): (1, 0)}, 1, 0)}}
    raw = {e: (g, 1, 0) for e, g in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), grads)}

    def level(m):
        if m not in levels:
            h, columns = m // 2, {}
            low, high = level(h), level(m - h) if m > 1 else raw
            for a0 in range(m, -1, -1):
                for a1 in range(m - a0, -1, -1):
                    b0, b1 = min(a0, h), min(a1, max(h - a0, 0))
                    r1, u1, k1 = low[b0, b1, h - b0 - b1]
                    r2, u2, k2 = high[a0 - b0, a1 - b1, m - a0 - a1 - h + b0 + b1]
                    r, k = _zrho.reduce(_zrho.times(r1, r2), lead, tail, n)
                    u = u1 * u2
                    if k:
                        g = _zrho.content(r)
                        if g > 1:
                            r, u = _zrho.divide(r, g), u * g
                    columns[a0, a1, m - a0 - a1] = (r, u, k1 + k2 + k)
            levels[m] = columns
        return levels[m]

    top = d * (d - 1) if m_expected is None else m_expected
    for m in range(1 if m_expected is None else top, top + 1):
        columns = level(m)
        kernel = _zrho.kernel([r for r, _, _ in columns.values()])
        if kernel:
            break
    else:
        raise DualKernelError(top, 0)
    if len(kernel) != 1:
        raise DualKernelError(m, len(kernel))
    # a kernel vector v of the forms r gives the kernel vector with
    # entries v_j * n^k / u of the normal forms
    alphas, scales = list(columns), [(u, k) for _, u, k in columns.values()]
    terms = {}
    for j, (a, b) in kernel[0].items():
        u, k = scales[j]
        terms[alphas[j]] = LambdaPoly((EisensteinScalar._raw(a * n**k, b * n**k, u),))
    dual = MultiPoly._raw(out_vars, terms)
    return PlaneCurve(normalize_leading(dual))


# ---------------------------------------------------------------------------
# Whole-curve report


def analysis_report(c: PlaneCurve) -> dict:
    """Everything at once, JSON-ready: singularities, flexes, genus.  The
    genus and the flex count are the g and f of pluecker_counts, or None
    where it certifies none."""
    records, locus = classified_singularities(c)
    counts = pluecker_counts(c.degree, records, locus)
    genus = None if counts is None else counts[2]
    notes = list(locus.notes)
    genus_warning = genus is not None and genus < 0
    if genus_warning:
        notes.append("negative geometric genus (%d): the curve is reducible" % genus)
    flex_data = None
    try:
        fx = flexes(c, (records, locus))
        flex_data = {
            "points": [p.as_list() for p in fx.points],
            "count_with_multiplicity": fx.count_with_multiplicity,
            "complete": fx.complete,
        }
        notes.extend(n for n in fx.notes if n not in notes)
    except DegenerateHessianError as e:
        notes.append(str(e))
    return {
        "equation": str(c.equation),
        "variables": list(c.vars),
        "degree": c.degree,
        "singularities": [r.as_dict() for r in records],
        "singular_locus_complete": locus.complete,
        "flexes": flex_data,
        "geometric_genus": genus,
        "genus_warning": genus_warning,
        "notes": notes,
    }
