"""Integer arithmetic in Z[rho], the ring of integers of Q(rho).

An element a + b*rho of Z[rho] is an (a, b) pair of ints, with
rho^2 = -1 - rho.  A polynomial over Z[rho] in one variable is a list of
pairs, lowest degree first, with no trailing (0, 0) ([] is zero); a
binary form of degree n is the list of its coefficients of s^u t^(n-u),
u = 0..n.  Mod p^k a polynomial is a list of ints, lowest power first,
that is only ever evaluated: its roots mod p are found by trying every
residue.

The integer kernels of the package run on this format: the Bareiss
recurrence of the chart resultants, the Taylor jets of the singularity
classifier, the normal forms and fraction-free kernel of the dual curve,
and the p-adic core of lambda_roots.  Scalars of Q(rho) enter
through clear; every other function sees only ints.
"""

import math
from itertools import chain


def clear(scalars):
    """The scalars (an + bn*rho) / den of a sequence over their least
    common denominator: returns (pairs, den) with pairs[i] / den equal to
    scalars[i]."""
    den = math.lcm(*(s.den for s in scalars))
    return [(s.an * (den // s.den), s.bn * (den // s.den)) for s in scalars], den


def mul(x, y):
    a1, b1 = x
    a2, b2 = y
    bb = b1 * b2  # rho^2 = -1 - rho
    return (a1 * a2 - bb, a1 * b2 + b1 * a2 - bb)


def norm(x):
    """N(a + b*rho) = a^2 - a*b + b^2, a non-negative int."""
    a, b = x
    return a * a - a * b + b * b


def powers(x, n):
    """[1, x, x^2, ..., x^n]."""
    out = [(1, 0)]
    for _ in range(n):
        out.append(mul(out[-1], x))
    return out


# ---------------------------------------------------------------------------
# Dense univariate polynomials: the resultant kernel


def cross(x, pivot, lead, y):
    """x*pivot - lead*y."""
    n = max(len(x) + len(pivot), len(lead) + len(y), 1) - 1
    out_a = [0] * n
    out_b = [0] * n
    for p, q, neg in ((x, pivot, False), (lead, y, True)):
        for i, (a1, b1) in enumerate(p):
            if not (a1 or b1):
                continue
            if neg:
                a1, b1 = -a1, -b1
            for j, (a2, b2) in enumerate(q, i):
                bb = b1 * b2
                out_a[j] += a1 * a2 - bb
                out_b[j] += a1 * b2 + b1 * a2 - bb
    out = list(zip(out_a, out_b))
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def exact_div(p, d):
    """p / d; raises ArithmeticError on a nonzero remainder.

    Each quotient coefficient is the remainder's leading coefficient times
    the conjugate of d's, divided by the norm of d's leading coefficient."""
    if not p:
        return []
    top = len(d) - 1
    c, e = d[-1]
    ca, cb = c - e, -e  # conjugate: rho -> rho^2 = -1 - rho
    n = c * c - c * e + e * e
    rem_a = [a for a, _ in p]
    rem_b = [b for _, b in p]
    quot = [(0, 0)] * max(len(p) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        a, b = rem_a[k + top], rem_b[k + top]
        if not (a or b):
            continue
        bb = b * cb
        qa, ra = divmod(a * ca - bb, n)
        qb, rb = divmod(a * cb + b * ca - bb, n)
        if ra or rb:
            break
        quot[k] = (qa, qb)
        for i, (da, db) in enumerate(d, k):
            bb = qb * db
            rem_a[i] -= qa * da - bb
            rem_b[i] -= qa * db + qb * da - bb
    if not quot or any(rem_a) or any(rem_b):
        raise ArithmeticError("inexact division over Z[rho]")
    return quot


def bareiss(mat):
    """Determinant of a square matrix of polynomials over Z[rho] ([] is
    zero) by Bareiss's fraction-free elimination: each step replaces an
    entry by (entry * pivot - lead * pivot-row entry) / previous pivot, a
    division that is exact; a zero pivot swaps in a later row."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = [(1, 0)]
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot, row_k = m[k][k], m[k]
        for row_i in m[k + 1 :]:
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = exact_div(cross(row_i[j], pivot, lead, row_k[j]), prev)
            row_i[k] = []
        prev = pivot
    det = m[n - 1][n - 1]
    return [(-a, -b) for a, b in det] if sign < 0 else det


# ---------------------------------------------------------------------------
# Binary forms: the jets


def form_at(form, v):
    """The binary form at (s, t) = v, v a pair of elements."""
    n = len(form) - 1
    s_pow = powers(v[0], n)
    t_pow = powers(v[1], n)
    a = b = 0
    for u, cf in enumerate(form):
        x, y = mul(cf, mul(s_pow[u], t_pow[n - u]))
        a += x
        b += y
    return a, b


# ---------------------------------------------------------------------------
# Ternary forms and sparse columns: the dual curve
#
# A ternary form is a dict exponent triple -> nonzero pair; a sparse vector
# is a dict index -> nonzero pair.


def content(*vectors):
    """The gcd of every int in the given sparse vectors (0 if all are empty)."""
    return math.gcd(*chain.from_iterable(chain.from_iterable(v.values() for v in vectors)))


def divide(v, g):
    """The sparse vector v with every int divided exactly by g."""
    return {k: (a // g, b // g) for k, (a, b) in v.items()}


def times(p, g):
    """The product of two ternary forms."""
    out = {}
    for (a0, a1, a2), (xa, xb) in p.items():
        for (b0, b1, b2), (ya, yb) in g.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            bb = xb * yb
            sa, sb = out.get(e, (0, 0))
            out[e] = (sa + xa * ya - bb, sb + xa * yb + xb * ya - bb)
    return {e: x for e, x in out.items() if x != (0, 0)}


def reduce(p, lead, tail, n):
    """The normal form of the form p modulo f, where n*x^lead = tail
    modulo f (n a positive int, tail a list of (exponent, pair) whose
    monomials lie below lead in a term order).  p is consumed.

    Returns (r, k) with r = n^k * p modulo f and no monomial of r
    divisible by x^lead.  Each round multiplies the form by n once and
    rewrites every divisible monomial present; the rewrites only add
    smaller monomials, so the largest divisible one falls every round."""
    l0, l1, l2 = lead
    k = 0
    while True:
        due = [e for e in p if e[0] >= l0 and e[1] >= l1 and e[2] >= l2]
        if not due:
            return p, k
        k += 1
        due = [(e, p.pop(e)) for e in due]
        if n != 1:
            p = {e: (a * n, b * n) for e, (a, b) in p.items()}
        for (e0, e1, e2), (ca, cb) in due:
            q0, q1, q2 = e0 - l0, e1 - l1, e2 - l2
            for (t0, t1, t2), (ta, tb) in tail:
                t = (q0 + t0, q1 + t1, q2 + t2)
                bb = cb * tb
                sa, sb = p.get(t, (0, 0))
                xa, xb = sa + ca * ta - bb, sb + ca * tb + cb * ta - bb
                if xa or xb:
                    p[t] = (xa, xb)
                else:  # a cancellation: a product of nonzero pairs is nonzero
                    del p[t]


def _combine(v, m, c, w):
    """m*v - c*w for an int m and a pair c, dropping zeros."""
    ca, cb = c
    out = {k: (m * a, m * b) for k, (a, b) in v.items()} if m != 1 else dict(v)
    for k, (wa, wb) in w.items():
        bb = cb * wb
        sa, sb = out.get(k, (0, 0))
        xa, xb = sa - ca * wa + bb, sb - ca * wb - cb * wa + bb
        if xa or xb:
            out[k] = (xa, xb)
        else:  # a cancellation, as c*w[k] is nonzero
            del out[k]
    return out


def _primitive(v, tag):
    """v and tag divided by the integer content of both; tag is nonzero."""
    g = content(v, tag)
    return (v, tag) if g == 1 else (divide(v, g), divide(tag, g))


def kernel(columns):
    """Basis of the kernel of the matrix over Z[rho] with the given sparse
    columns (row -> pair), as sparse vectors column index -> pair.

    Fraction-free elimination with tags, after Bareiss: each column is
    reduced against the basis built from the columns before it, and its
    tag records it as a combination of the original columns.  Against a
    basis vector w with pivot P at row r (a positive int) and the entry c
    of v at r, v becomes (P*v - c*w) / g with g the common factor of P
    and c.  A column that reduces to zero yields its tag as a kernel
    vector; any other is multiplied by the conjugate of its pivot, which
    makes the pivot the rational integer N(pivot), and joins the basis.
    The integer content of (column, tag) is removed after every step; the
    conjugate step is what keeps the coefficients from growing without
    bound on dense inputs."""
    basis = []  # (pivot row, pivot, column, tag)
    out = []
    for j, col in enumerate(columns):
        v, tag = col, {j: (1, 0)}
        for r, piv, w, wt in basis:
            c = v.get(r)
            if c is None:
                continue
            g = math.gcd(piv, *c)
            m, c = piv // g, (c[0] // g, c[1] // g)
            v, tag = _primitive(_combine(v, m, c, w), _combine(tag, m, c, wt))
        if not v:
            out.append(tag)
            continue
        r = min(v)
        a, b = v[r]
        conj = (a - b, -b)
        v, tag = _primitive(
            {k: mul(x, conj) for k, x in v.items()}, {k: mul(x, conj) for k, x in tag.items()}
        )
        basis.append((r, v[r][0], v, tag))
    return out


# ---------------------------------------------------------------------------
# p-adic roots


def _horner(f: list, u: int, m: int) -> int:
    """f(u) mod m, f a list of ints, lowest power first."""
    acc = 0
    for c in reversed(f):
        acc = (acc * u + c) % m
    return acc


def _hensel_lift(f: list, u: int, p: int, modulus: int) -> int:
    """Newton-lift a simple root u of f mod p to the root mod modulus = p^k."""
    df = [k * c for k, c in enumerate(f) if k]
    m = p
    while m < modulus:
        m = min(m * m, modulus)
        u = (u - _horner(f, u, m) * pow(_horner(df, u, m), -1, m)) % m
    return u


def _is_small_prime(n: int) -> bool:
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def roots(cs, is_root):
    """The roots in Q(rho) of the squarefree polynomial cs over Z[rho]
    (degree >= 1), as (D*a, D*b, D) triples for a root a + b*rho, where D
    is the norm of the leading coefficient.

    Candidates come from p-adic lifting in both embeddings of Z[rho] into
    Z/p^k (the prime rule and the bound that makes the search complete
    are argued in scalars.lambda_roots).  is_root(D*a, D*b, D) is the
    exact test; a candidate is kept only if it holds."""
    d = norm(cs[-1])
    top = max(norm(c) for c in cs[:-1])
    m_bound = math.isqrt(top // d) + 2
    bound = d * (math.isqrt(4 * m_bound * m_bound // 3) + 1)
    p = 7
    while True:
        if _is_small_prime(p) and d % p:
            cubes = (pow(h, (p - 1) // 3, p) for h in range(2, p))
            r = next(x for x in cubes if x != 1)
            images = [[(a + b * s) % p for a, b in cs] for s in (r, p - 1 - r)]
            zeros = [[u for u in range(p) if not _horner(f, u, p)] for f in images]
            derivs = [[k * c for k, c in enumerate(f) if k] for f in images]
            if all(_horner(df, u, p) for df, us in zip(derivs, zeros) for u in us):
                break
        p += 6
    modulus = p
    while modulus <= 2 * bound:
        modulus *= p
    big_r = _hensel_lift([1, 1, 1], r, p, modulus)
    lifted = []
    for s, us in zip((big_r, -1 - big_r), zeros):
        f = [(a + b * s) % modulus for a, b in cs]
        lifted.append([_hensel_lift(f, u, p, modulus) for u in us])
    inv = pow(2 * big_r + 1, -1, modulus)  # R - R^2 = 2R + 1 (mod p^k)
    half = modulus // 2
    found = []
    for u in lifted[0]:
        for v in lifted[1]:
            b = (u - v) * inv % modulus
            da = d * (u - b * big_r) % modulus
            db = d * b % modulus
            da = da - modulus if da > half else da
            db = db - modulus if db > half else db
            if abs(da) > bound or abs(db) > bound:
                continue
            if is_root(da, db, d):
                found.append((da, db, d))
                lifted[1].remove(v)
                break
    return found
