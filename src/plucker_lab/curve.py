"""Plane projective curves: singular loci, singularity types, flexes,
dual curves, and genus bookkeeping.

Everything here works with exact Eisenstein-rational coordinates.  Points
whose coordinates leave that field are not enumerated; instead every
search result carries a completeness flag so callers can tell "none
found" from "none found among scalar-resolvable points".
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import _zrho
from .scalars import (
    ONE,
    ZERO,
    EisensteinScalar,
    LambdaPoly,
    lambda_roots,
    scalar_sort_key,
)
from .polynomials import (
    MultiPoly,
    U_VARS,
    X_VARS,
    as_scalar_univariate,
    normalize_leading,
    parse_poly,
    parse_scalar,
    resultant,
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

    def __setattr__(self, name, value):
        raise AttributeError("ProjectivePoint is immutable")

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

# drop in class d(d-1) - ... per singularity, and local intersection
# multiplicity with the Hessian curve, by kind
_CLASS_DROP = {KIND_NODE: 2, KIND_CUSP: 3, KIND_TACNODE: 4}
_HESSIAN_DROP = {KIND_NODE: 6, KIND_CUSP: 8, KIND_TACNODE: 12}


@dataclass(frozen=True)
class SingularityRecord:
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


@dataclass(frozen=True)
class SingularLocus:
    points: tuple
    complete: bool
    notes: tuple = ()


class PlaneCurve:
    """A nonzero homogeneous equation in three variables, lambda-free
    (specialize lambda before constructing)."""

    __slots__ = ("equation", "degree")

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

    def __setattr__(self, name, value):
        raise AttributeError("PlaneCurve is immutable")

    @classmethod
    def from_text(cls, text: str, variables=X_VARS) -> "PlaneCurve":
        return cls(parse_poly(text, variables))

    @property
    def vars(self):
        return self.equation.vars

    def partials(self):
        return [self.equation.partial_derivative(v) for v in self.vars]

    def contains(self, p: ProjectivePoint) -> bool:
        return self.equation.evaluate(p.coords).is_zero()

    def __str__(self):
        return str(self.equation)

    def __repr__(self):
        return "PlaneCurve(%s)" % self.equation


# ---------------------------------------------------------------------------
# Common zeros of polynomial systems, chart by chart


_POSITIVE_DIMENSIONAL = "solution set is positive-dimensional in a chart"


def _affine_zeros(polys, names, notes, at=()):
    """Common zeros of lambda-free polys in the variables names (at most
    two; every other variable is specialized already), as tuples of
    values in the order of names.  Returns (zeros, complete).

    Elimination and back-substitution (Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, ch. 3): the values of the first variable
    are the roots of the gcd of the polys, or, with a second variable
    left, of their resultants in it against the poly of least degree in
    it.  Each value is substituted back and the rest solved by recursion,
    so every zero is checked exactly on the polys themselves once no
    variable is left.  at holds the (name, value) pairs substituted so
    far, for the notes.
    """
    live = [p for p in polys if not p.is_zero()]
    if any(p.is_constant() for p in live):
        return [], True
    if not names:
        return [()], True
    u, *rest = names
    cons = live
    if rest:
        v = rest[0]
        with_v = sorted(
            (p for p in live if p.degree_in(v)),
            key=lambda p: (p.degree_in(v), len(p.terms)),
        )
        elim = (resultant(with_v[0], q, v) for q in with_v[1:])
        cons = [p for p in live if not p.degree_in(v)]
        cons += [r for r in elim if not r.is_zero()]
    if not cons:
        if _POSITIVE_DIMENSIONAL not in notes:
            notes.append(_POSITIVE_DIMENSIONAL)
        return [], False
    g = LambdaPoly(())
    for p in cons:
        g = g.gcd(as_scalar_univariate(p, u))
    if g.is_constant():
        return [], True
    rs = lambda_roots(g)
    if rs.unresolved:
        notes.append(
            "unresolved degree-%d factor in %s%s"
            % (rs.unresolved[0].degree, u, "".join(" at %s = %s" % b for b in at))
        )
    zeros, complete = [], rs.complete
    for a in rs.values:
        tails, ok = _affine_zeros(
            [p.specialize(u, a) for p in live], rest, notes, at + ((u, a),)
        )
        complete &= ok
        zeros.extend((a,) + t for t in tails)
    return zeros, complete


def _chart(p: MultiPoly, k: int) -> MultiPoly:
    """p at x_k = 1 and x_j = 0 for j < k."""
    out = {}
    for exp, c in p.terms.items():
        if not any(exp[:k]):
            e = (0,) * (k + 1) + exp[k + 1 :]
            out[e] = out[e] + c if e in out else c
    return MultiPoly._raw(p.vars, {e: c for e, c in out.items() if c})


def projective_common_zeros(polys):
    """All common projective zeros with Eisenstein-rational coordinates.

    Works through the disjoint charts x_k = 1, x_j = 0 for j < k
    (k = 0, 1, 2), each by _affine_zeros.  Returns (points, complete,
    notes); complete goes false when lambda_roots leaves a factor of
    degree > 2 unresolved or a chart has a positive-dimensional solution
    set.
    """
    if not polys:
        raise ValueError("empty polynomial system")
    variables = polys[0].vars
    if len(variables) != 3:
        raise ValueError("expected a 3-variable system")
    for p in polys:
        if p.vars != variables:
            raise ValueError("mixed variable sets in system")
        if not p.lambda_free():
            raise LambdaSymbolicError(
                "lambda is still symbolic; specialize it first"
            )
    notes: list = []
    points = []
    complete = True
    for k in range(3):
        zeros, ok = _affine_zeros(
            [_chart(p, k) for p in polys], variables[k + 1 :], notes
        )
        complete &= ok
        points.extend(ProjectivePoint((ZERO,) * k + (ONE,) + z) for z in zeros)
    unique = sorted(set(points), key=ProjectivePoint.sort_key)
    return unique, complete, notes


def singular_locus(c: PlaneCurve) -> SingularLocus:
    """Scalar-resolvable common zeros of the three partial derivatives.

    For homogeneous equations in characteristic zero these automatically
    lie on the curve (Euler identity).
    """
    polys = [p for p in c.partials() if not p.is_zero()]
    if not polys:
        raise ValueError("all partials vanish identically")
    points, complete, notes = projective_common_zeros(polys)
    return SingularLocus(tuple(points), complete, tuple(notes))


# ---------------------------------------------------------------------------
# Local singularity classification
#
# Jets are computed over Z[rho] with plain ints, in the format of _zrho.


def _taylor_jets(c: PlaneCurve, p: ProjectivePoint, order: int):
    """The jets of degree 0..order of the curve at p, over Z[rho].

    Let i be the index of p's first nonzero coordinate and j < k the
    other two.  Write p = (D : A : B) in the order (i, j, k), with D the
    lcm of the denominators of p_j and p_k and A, B in Z[rho], and let L
    be the lcm of the equation's denominators.  jets[n] is the degree-n
    part of L * F(x_i = D, x_j = A + s, x_k = B + t), expanded by
    binomials with every term of degree above order dropped.  It equals
    L * D^(d-n) times the degree-n part of F(x_i = 1, x_j = p_j + s,
    x_k = p_k + t): the same jets up to one nonzero factor per degree.
    """
    i = next(idx for idx, v in enumerate(p.coords) if v)
    j, k = (idx for idx in range(3) if idx != i)
    ab, den = _zrho.clear((p.coords[j], p.coords[k]))
    d = c.degree
    # shifts[e][u]: the coefficient C(e, u) * A^(e-u) of s^u in (A + s)^e
    shifts = []
    for x in ab:
        pw = _zrho.powers(x, d)
        shifts.append([
            [(math.comb(e, u) * pw[e - u][0], math.comb(e, u) * pw[e - u][1])
             for u in range(min(e, order) + 1)]
            for e in range(d + 1)
        ])
    shift_s, shift_t = shifts
    terms = c.equation.terms
    coeffs, _ = _zrho.clear([cf.coeffs[0] for cf in terms.values()])
    out_a = [[0] * (n + 1) for n in range(order + 1)]
    out_b = [[0] * (n + 1) for n in range(order + 1)]
    for exp, (ca, cb) in zip(terms, coeffs):
        f = den ** exp[i]
        base = (ca * f, cb * f)
        for u, x in enumerate(shift_s[exp[j]]):
            x = _zrho.mul(base, x)
            for v, y in enumerate(shift_t[exp[k]][: order - u + 1]):
                a, b = _zrho.mul(x, y)
                out_a[u + v][u] += a
                out_b[u + v][u] += b
    return [list(zip(ra, rb)) for ra, rb in zip(out_a, out_b)]


def _is_squarefree_form(form) -> bool:
    """Whether the binary form has no repeated linear factor: at t = 1 it
    is a squarefree polynomial in s, and t divides it at most once (its
    s-degree is n or n - 1)."""
    f = LambdaPoly([EisensteinScalar._raw(a, b, 1) for a, b in form])
    return f.degree >= len(form) - 2 and f.gcd(f.derivative()).is_constant()


def classify_singularity(c: PlaneCurve, p: ProjectivePoint) -> SingularityRecord:
    """Decide node/cusp/tacnode/ordinary-m at p by jet inspection.

    Reads the Z[rho] jets of _taylor_jets; every test below is a zero
    test invariant under their per-degree factors.  An m-fold point with
    a squarefree m-jet is ordinary (for m = 2 a node: the discriminant
    of the 2-jet is nonzero).  A double point with a repeated tangent is
    put in coordinates (s, t) -> s*v + t*w, v along the tangent, where
    the 2-jet is gamma*t^2: a nonzero s^3 coefficient J3(v) is a cusp,
    otherwise a nonzero square-completed s^4 coefficient is a tacnode;
    anything deeper is reported unclassified (delta is then a lower
    bound), as is an m-fold point with m > 2 and a repeated tangent.
    """
    for order in (4, c.degree):  # the second only at multiplicity >= 5
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
    if a == (0, 0):
        # the 2-jet is c0*t^2: swap s and t
        jets = [jet[::-1] for jet in jets]
        _, b, a = jets[2]
    # 4a * (2-jet) = (2a*s + b*t)^2: the tangent direction is v = (b, -2a),
    # and with w = (1, 0) the 2-jet becomes gamma*t^2 for gamma = a
    v = (b, (-2 * a[0], -2 * a[1]))
    gamma = a
    if gamma == (0, 0) or _zrho.form_at(jets[2], v) != (0, 0):
        raise ArithmeticError("tangent alignment failed at %s" % p)
    if _zrho.form_at(jets[3], v) != (0, 0):
        return SingularityRecord(p, 2, KIND_CUSP, 1)
    # the s^2*t coefficient d/dw J3(v), and the s^4 coefficient J4(v)
    c3 = _zrho.form_at([(u * x, u * y) for u, (x, y) in enumerate(jets[3])][1:], v)
    b4 = _zrho.form_at(jets[4], v)
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


def classified_singularities(c: PlaneCurve, locus: SingularLocus = None):
    if locus is None:
        locus = singular_locus(c)
    return tuple(classify_singularity(c, p) for p in locus.points), locus


# ---------------------------------------------------------------------------
# Flexes


@dataclass(frozen=True)
class FlexSearch:
    points: tuple
    count_with_multiplicity: int
    complete: bool
    notes: tuple = ()


def det3(rows):
    """Determinant of a 3x3 matrix over any ring (scalars or polynomials),
    by cofactors along the first row."""
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def hessian(c: PlaneCurve) -> MultiPoly:
    v = c.vars
    return det3(
        [[c.equation.partial_derivative(a).partial_derivative(b) for b in v] for a in v]
    )


def flexes(c: PlaneCurve, classified=None) -> FlexSearch:
    """Smooth inflection points and their Bezout-weighted count.

    The curve meets its Hessian in 3d(d-2) points counted with
    multiplicity; singular points absorb a known share each (6 per node,
    8 per cusp, 12 per tacnode, 3m(m-1) per ordinary m-fold point) and
    the rest are flexes.  classified is the (records, locus) pair of
    classified_singularities(c) when the caller has it already.
    """
    h = hessian(c)
    if h.is_zero():
        raise DegenerateHessianError(
            "identically-zero Hessian: ruled or degenerate input"
        )
    d = c.degree
    notes: list = []
    records, locus = classified or classified_singularities(c)
    complete = locus.complete
    notes.extend(locus.notes)
    total = 3 * d * (d - 2)
    for rec in records:
        if rec.kind in _HESSIAN_DROP:
            total -= _HESSIAN_DROP[rec.kind]
        elif rec.kind == KIND_ORDINARY:
            total -= 3 * rec.multiplicity * (rec.multiplicity - 1)
        else:
            notes.append(
                "count not certified: unclassified singularity at %s"
                % rec.point
            )
            complete = False
    if total < 0:
        notes.append("flex count went negative; input likely reducible")
        total = 0
        complete = False
    pts, ok, zero_notes = projective_common_zeros([c.equation, h])
    notes.extend(zero_notes)
    complete &= ok
    sing_points = {rec.point for rec in records}
    flex_points = tuple(p for p in pts if p not in sing_points)
    return FlexSearch(flex_points, total, complete, tuple(notes))


# ---------------------------------------------------------------------------
# Dual curves


def expected_class(d: int, records) -> int:
    """Plucker class d(d-1) minus the drop of each classified singularity
    (a tacnode counting as two nodes)."""
    m = d * (d - 1)
    for rec in records:
        if rec.kind in _CLASS_DROP:
            m -= _CLASS_DROP[rec.kind]
        elif rec.kind == KIND_ORDINARY:
            m -= rec.multiplicity * (rec.multiplicity - 1)
        else:
            raise ValueError("unclassified singularity: no class certificate")
    return m


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


def _int_gradient(c: PlaneCurve):
    """The equation cleared of denominators over Z[rho] and its three
    partials, as sparse forms exponent -> pair."""
    pairs, _ = _zrho.clear([cf.constant_value() for cf in c.equation.terms.values()])
    f = dict(zip(c.equation.terms, pairs))
    grads = [
        {e[:i] + (e[i] - 1,) + e[i + 1 :]: (e[i] * a, e[i] * b) for e, (a, b) in f.items() if e[i]}
        for i in range(3)
    ]
    return f, grads


def dual_curve(c: PlaneCurve) -> PlaneCurve:
    """The curve of tangent lines, as an equation in dual coordinates.

    Finds the form G of degree m with f | G(grad f) as one exact linear
    kernel: column alpha (|alpha| = m) of the matrix is the normal form
    of grad(f)^alpha modulo f with respect to f's grlex leading monomial
    ({f} is a Groebner basis of (f) for every term order), computed from
    the column of a neighbour alpha - e_i by one multiplication and one
    reduction.  A zero normal form is an exact proof of divisibility, so
    the kernel vector is the certificate.  Columns and kernel are computed
    over Z[rho] on int pairs (_zrho.times, reduce and the fraction-free
    _zrho.kernel), each column with a rational scale; the kernel vector is
    unscaled at the end.  m is the predicted class when
    the singular locus is complete and classified; otherwise the least m
    <= d(d-1) with a nonzero kernel.  A kernel that is not 1-dimensional
    raises DualKernelError.  A curve whose Hessian vanishes identically
    (a rank-2 conic, concurrent lines) raises DegenerateHessianError
    first: by Gordan and Noether (Math. Ann. 10, 1876) a ternary form has
    an identically zero Hessian exactly when its partials are linearly
    dependent, which the same kernel decides.
    """
    f, grads = _int_gradient(c)
    if _zrho.kernel(grads):
        raise DegenerateHessianError(
            "identically-zero Hessian: the curve is a union of concurrent "
            "lines and has no dual curve"
        )
    d = c.degree
    out_vars = U_VARS if c.vars != U_VARS else X_VARS
    records, locus = classified_singularities(c)
    try:
        m_expected = expected_class(d, records) if locus.complete else None
    except ValueError:
        m_expected = None
    # n*x^lead = tail modulo f with n the norm of the leading coefficient
    lead, _ = c.equation.leading_term()
    lc = f.pop(lead)
    minus_conj = (lc[1] - lc[0], lc[1])  # lc * conj(lc) = N(lc)
    tail = {e: _zrho.mul(x, minus_conj) for e, x in f.items()}
    n = _zrho.norm(lc)
    g = math.gcd(n, _zrho.content(tail))
    tail, n = list(_zrho.divide(tail, g).items()), n // g
    # column alpha is the normal form of grad(f)^alpha, kept as (r, u, k)
    # with r a form over Z[rho]: the normal form is r * u / n^k, up to a
    # factor common to every column of degree m
    top = d * (d - 1) if m_expected is None else m_expected
    columns = {(0, 0, 0): ({(0, 0, 0): (1, 0)}, 1, 0)}
    for m in range(1, top + 1):
        prev, columns = columns, {}
        for a in range(m, -1, -1):
            for b in range(m - a, -1, -1):
                alpha = (a, b, m - a - b)
                i = next(k for k in range(3) if alpha[k])
                below = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
                r, u, k = prev[below]
                r, k_new = _zrho.reduce(_zrho.times(r, grads[i]), lead, tail, n)
                if k_new:
                    g = _zrho.content(r)
                    if g > 1:
                        r, u = _zrho.divide(r, g), u * g
                columns[alpha] = (r, u, k + k_new)
        if m_expected is not None and m < m_expected:
            continue
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
# Genus


def geometric_genus(c: PlaneCurve, sings) -> int:
    """(d-1)(d-2)/2 minus the delta invariants; a negative value means
    the completeness assumption failed (reducible input) and raises a
    UserWarning."""
    g = (c.degree - 1) * (c.degree - 2) // 2 - sum(r.delta for r in sings)
    if g < 0:
        warnings.warn(
            "negative geometric genus (%d): the curve is reducible" % g,
            UserWarning,
            stacklevel=2,
        )
    return g


# ---------------------------------------------------------------------------
# Whole-curve report


def analysis_report(c: PlaneCurve) -> dict:
    """Everything at once, JSON-ready: singularities, flexes, genus."""
    records, locus = classified_singularities(c)
    notes = list(locus.notes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        genus = geometric_genus(c, records)
    genus_warning = bool(caught)
    if genus_warning:
        notes.append(str(caught[0].message))
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
