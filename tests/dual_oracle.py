"""The dual curve's normal forms and kernel over EisensteinScalar objects.

A differential oracle for the Z[rho] int-pair code in plucker_lab._zrho
that plucker_lab.curve.dual_curve runs on, with every entry a Q(rho)
scalar and every pivot normalized to 1.  Its columns are built one degree
at a time, each from a neighbour alpha - e_i by one multiplication and one
reduction, where dual_curve multiplies two columns of about half the
degree.  Forms are dicts exponent triple -> scalar; columns are dicts
row -> scalar.  proportional compares equations up to a scalar.
"""

import heapq

from plucker_lab.polynomials import MultiPoly, U_VARS, normalize_leading
from plucker_lab.scalars import ONE, LambdaPoly


def reduce(p: dict, lead, tail) -> dict:
    """p (homogeneous) reduced in place modulo f, where x^lead = sum of
    tail modulo f: every monomial divisible by lead is rewritten, largest
    first.  The tail is lex-smaller than lead, so each rewrite only
    touches smaller monomials."""
    l0, l1, l2 = lead
    heap = [(-e[0], -e[1], -e[2]) for e in p if e[0] >= l0 and e[1] >= l1 and e[2] >= l2]
    heapq.heapify(heap)
    while heap:
        n0, n1, n2 = heapq.heappop(heap)
        c = p.pop((-n0, -n1, -n2), None)
        if c is None:  # a duplicate entry, or cancelled meanwhile
            continue
        q0, q1, q2 = -n0 - l0, -n1 - l1, -n2 - l2
        for (t0, t1, t2), tc in tail:
            t = (q0 + t0, q1 + t1, q2 + t2)
            s = p.get(t)
            v = c * tc if s is None else s + c * tc
            if v:
                p[t] = v
                if s is None and t[0] >= l0 and t[1] >= l1 and t[2] >= l2:
                    heapq.heappush(heap, (-t[0], -t[1], -t[2]))
            else:
                del p[t]
    return p


def times(p: dict, g: dict) -> dict:
    """The product of two exponent -> scalar dicts."""
    out = {}
    for (a0, a1, a2), x in p.items():
        for (b0, b1, b2), y in g.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            s = out.get(e)
            out[e] = x * y if s is None else s + x * y
    return {e: v for e, v in out.items() if v}


def _axpy(v: dict, c, w: dict) -> None:
    """v -= c * w, in place, dropping zeros."""
    for k, x in w.items():
        s = v.get(k)
        if s is None:
            v[k] = -(c * x)
        else:
            s = s - c * x
            if s:
                v[k] = s
            else:
                del v[k]


def kernel(columns) -> list:
    """Basis of the kernel of the matrix with the given sparse columns, as
    dicts column index -> scalar.  Columns are reduced one by one against
    the echelon basis of those before; a column that reduces to zero
    yields the kernel vector its tag records, with entry 1 at its own
    index."""
    basis = []  # (pivot row, column normalized to 1 there, its tag)
    out = []
    for j, col in enumerate(columns):
        v, tag = dict(col), {j: ONE}
        for r, w, wt in basis:
            c = v.get(r)
            if c is not None:
                _axpy(v, c, w)
                _axpy(tag, c, wt)
        if not v:
            out.append(tag)
            continue
        r = min(v)
        inv = v[r].inverse()
        basis.append(
            (r, {k: x * inv for k, x in v.items()}, {k: x * inv for k, x in tag.items()})
        )
    return out


def rewrite_rule(equation: MultiPoly):
    """(lead, tail) with x^lead = sum of tail modulo the equation."""
    lead, lc = equation.leading_term()
    scale = -lc.constant_value().inverse()
    tail = [(e, x.constant_value() * scale) for e, x in equation.terms.items() if e != lead]
    return lead, tail


def dual(c, m: int) -> MultiPoly:
    """The dual of the curve c as the form G of degree m with
    f | G(grad f), from the kernel of the normal forms of grad(f)^alpha;
    the kernel must be one-dimensional."""
    lead, tail = rewrite_rule(c.equation)
    partials = (c.equation.partial_derivative(v) for v in c.vars)
    grads = [{e: x.constant_value() for e, x in g.terms.items()} for g in partials]
    columns = {(0, 0, 0): {(0, 0, 0): ONE}}
    for k in range(1, m + 1):
        prev, columns = columns, {}
        for a in range(k, -1, -1):
            for b in range(k - a, -1, -1):
                alpha = (a, b, k - a - b)
                i = next(idx for idx in range(3) if alpha[idx])
                below = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
                columns[alpha] = reduce(times(prev[below], grads[i]), lead, tail)
    (vec,) = kernel(list(columns.values()))
    alphas = list(columns)
    return normalize_leading(
        MultiPoly._raw(U_VARS, {alphas[j]: LambdaPoly((x,)) for j, x in vec.items()})
    )


def proportional(p: MultiPoly, q: MultiPoly) -> bool:
    """True when p and q agree up to a nonzero constant scalar factor."""
    if p.vars != q.vars:
        return False
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return normalize_leading(p) == normalize_leading(q)
