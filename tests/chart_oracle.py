"""The chart solver on scalar objects: the oracle of curve._affine_zeros.

This is the elimination and back-substitution of curve._affine_zeros as it
ran on EisensteinScalar and LambdaPoly objects: charts of MultiPolys,
resultants by polynomials.resultant, gcds by LambdaPoly.gcd, roots by
lambda_roots, and each value substituted into MultiPolys.  Zeros and
notes must match the integer solver's exactly, which runs on the int-pair
tables of curve._chart, and the complete flag the oracle keeps must be
True exactly when that solver noted nothing.  The systems come from the
MultiPoly partials and Hessian of a curve's equation, the references for
_zrho.gradient and _zrho.hessian.
"""

import itertools

from plucker_lab.curve import det3
from plucker_lab.polynomials import MultiPoly, resultant
from plucker_lab.scalars import ZERO, EisensteinScalar, LambdaPoly, lambda_roots

POSITIVE_DIMENSIONAL = "solution set is positive-dimensional in a chart"


def partials(c) -> list:
    """The partial derivatives of the curve's equation, as MultiPolys."""
    return [c.equation.partial_derivative(v) for v in c.vars]


def hessian(c) -> MultiPoly:
    """The Hessian determinant of the curve's equation, as a MultiPoly."""
    return det3([[p.partial_derivative(v) for v in c.vars] for p in partials(c)])


def chart(p: MultiPoly, k: int) -> MultiPoly:
    """p at x_k = 1 and x_j = 0 for j < k."""
    out = {}
    for exp, c in p.terms.items():
        if not any(exp[:k]):
            e = (0,) * (k + 1) + exp[k + 1 :]
            out[e] = out[e] + c if e in out else c
    return MultiPoly._raw(p.vars, {e: c for e, c in out.items() if c})


def specialize(p: MultiPoly, var: str, value: EisensteinScalar) -> MultiPoly:
    """p with the constant value substituted for var; var stays declared."""
    i = p.vars.index(var)
    out = {}
    for exp, coeff in p.terms.items():
        c = coeff.scale(value ** exp[i]) if exp[i] else coeff
        if not c:
            continue
        nexp = exp[:i] + (0,) + exp[i + 1 :]
        s = out.get(nexp)
        out[nexp] = c if s is None else s + c
    return MultiPoly._raw(p.vars, {e: c for e, c in out.items() if c})


def as_univariate(p: MultiPoly, var: str) -> LambdaPoly:
    """The lambda-free p, free of every variable but var, as a LambdaPoly."""
    i = p.vars.index(var)
    coeffs = [ZERO] * (max(p.degree_in(var), 0) + 1)
    for exp, c in p.terms.items():
        assert not any(e for j, e in enumerate(exp) if j != i)
        coeffs[exp[i]] = c.constant_value()
    return LambdaPoly(coeffs)


def affine_zeros(polys, names, notes, at=()):
    """Common zeros of lambda-free polys in the variables names (at most
    two), as tuples of scalars in the order of names; returns (zeros,
    complete) and appends to notes, as curve._affine_zeros does.

    The cofactor of the gcd that lambda_roots leaves once every root is
    divided out is cut down by its gcd with the resultants of the other
    pairs, and noted if it still has degree >= 2: it has no root in
    Q(rho), but its roots are zeros all the same."""
    live = [p for p in polys if not p.is_zero()]
    if any(p.is_constant() for p in live):
        return [], True
    if not names:
        return [()], True
    u, *rest = names
    cons, more = live, ()
    if rest:
        v = rest[0]
        with_v = sorted(
            (p for p in live if p.degree_in(v)),
            key=lambda p: (p.degree_in(v), len(p.terms)),
        )
        elim = (resultant(with_v[0], q, v) for q in with_v[1:])
        cons = [p for p in live if not p.degree_in(v)]
        cons += [r for r in elim if not r.is_zero()]
        more = (resultant(p, q, v) for p, q in itertools.combinations(with_v[1:], 2))
    if not cons:
        if POSITIVE_DIMENSIONAL not in notes:
            notes.append(POSITIVE_DIMENSIONAL)
        return [], False
    g = LambdaPoly(())
    for p in cons:
        g = g.gcd(as_univariate(p, u))
    if g.is_constant():
        return [], True
    rs = lambda_roots(g)
    left = g
    for a, m in rs.roots:
        left = left.exact_div(LambdaPoly((-a, 1)) ** m)
    for r in more:
        if left.degree < 2:
            break
        left = left.gcd(as_univariate(r, u))
    complete = left.degree < 2
    if not complete:
        notes.append(
            "unresolved degree-%d factor in %s%s"
            % (left.degree, u, "".join(" at %s = %s" % b for b in at))
        )
    zeros = []
    for a in rs.values:
        tails, ok = affine_zeros(
            [specialize(p, u, a) for p in live], rest, notes, at + ((u, a),)
        )
        complete &= ok
        zeros.extend((a,) + t for t in tails)
    return zeros, complete
