"""Integer arithmetic in Z[rho], the ring of integers of Q(rho).

An element a + b*rho of Z[rho] is an (a, b) pair of ints, with
rho^2 = -1 - rho.  A polynomial over Z[rho] in one variable is a list of
pairs, lowest degree first, with no trailing (0, 0) ([] is zero); a
binary form of degree n is the list of its coefficients of s^u t^(n-u),
u = 0..n.  Mod p^k a polynomial is a list of ints, lowest power first,
that is only ever evaluated: its roots mod p are found by trying every
residue.

The integer kernels of the package run on this format: the subresultant
PRS of the chart resultants, the Taylor jets of the singularity
classifier, the normal forms and fraction-free kernel of the dual curve,
the values of a lambda-family of curves in the orbit obstruction,
and everything the chart solver of curve does below the resultant: the
primitive-PRS gcd, the normal form of a polynomial up to a factor, exact
evaluation (which LambdaPoly.evaluate runs too) and back-substitution,
and the root core solve, which lambda_roots runs as well.  Scalars of
Q(rho) enter through clear; every other function sees only ints.
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


def _power(f, n):
    """f^n for a polynomial f and an int n >= 0."""
    out = [(1, 0)]
    for _ in range(n):
        out = cross(out, f, [], [])
    return out


def _prem(p, q):
    """The pseudo-remainder lc(q)^(deg p - deg q + 1) * p mod q of two
    polynomials in x (deg p >= deg q), with its zero leading coefficients
    dropped ([] is zero)."""
    lc, pad = q[0], q[1:] + [[]] * (len(p) - len(q))
    for _ in range(len(p) - len(q) + 1):
        lead = p[0]
        p = [cross(x, lc, lead, y) for x, y in zip(p[1:], pad)]
    k = next((k for k, c in enumerate(p) if c), len(p))
    return p[k:]


def resultant(p, q):
    """Res(p, q), the Sylvester determinant, of two polynomials in x over
    Z[rho][y] of degree >= 1, each the list of its coefficients in x,
    leading first, which are polynomials in y.

    Collins' subresultant PRS in Brown's form: each step replaces (p, q)
    by (q, prem(p, q) / (g*h^delta)), an exact division, where
    delta = deg p - deg q; then g becomes the new lc(p) and h becomes
    g^delta / h^(delta-1), starting from g = h = 1.  For a constant
    q = c, Res = c^d / h^(d-1) with d = deg p.  A swap to deg p >= deg q,
    and every step in which both degrees are odd, change the sign."""
    sign = 1
    if len(p) < len(q):
        p, q = q, p
        sign = -1 if (len(p) - 1) * (len(q) - 1) % 2 else 1
    g = h = [(1, 0)]
    while len(q) > 1:
        dp, dq = len(p) - 1, len(q) - 1
        if dp % 2 and dq % 2:
            sign = -sign
        r = _prem(p, q)
        if not r:
            return []
        delta = dp - dq
        div = cross(g, _power(h, delta), [], [])
        p, q = q, r if div == [(1, 0)] else [exact_div(c, div) for c in r]
        g = p[0]
        if delta:
            h = g if delta == 1 else exact_div(_power(g, delta), _power(h, delta - 1))
    d = len(p) - 1
    res = exact_div(_power(q[0], d), _power(h, d - 1)) if d > 1 else q[0]
    return [(-a, -b) for a, b in res] if sign < 0 else res


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
# Ternary forms over Z[rho][lambda]: the orbit obstruction


def form_value(form, point):
    """The ternary form with polynomial coefficients (exponent -> dense
    polynomial in lambda) at the point whose three coordinates are
    polynomials in lambda (trailing zeros allowed, as every product here
    drops them): a polynomial in lambda."""
    pows = []
    for i, y in enumerate(point):
        ps = [[(1, 0)]]
        for _ in range(max((e[i] for e in form), default=0)):
            ps.append(cross(ps[-1], y, [], []))
        pows.append(ps)
    out = []
    for (e0, e1, e2), c in form.items():
        t = cross(cross(c, pows[0][e0], [], []), cross(pows[1][e1], pows[2][e2], [], []), [], [])
        out = cross(out, [(1, 0)], [(-1, 0)], t)  # out + t
    return out


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


def table(form, v, u):
    """The sparse form as a list over the powers of variable v of dense
    polynomials in variable u, with no trailing empty row (None for v or
    u: that exponent is read as 0).  No two terms may share their
    exponents of u and v, as in a chart of a homogeneous form."""
    rows = []
    for e, x in form.items():
        r, at = e[v] if v is not None else 0, e[u] if u is not None else 0
        rows.extend([] for _ in range(r + 1 - len(rows)))
        rows[r].extend([(0, 0)] * (at + 1 - len(rows[r])))
        rows[r][at] = x
    return rows


def gradient(f):
    """The three partial derivatives of the ternary form f."""
    return [
        {e[:i] + (e[i] - 1,) + e[i + 1 :]: (e[i] * a, e[i] * b) for e, (a, b) in f.items() if e[i]}
        for i in range(3)
    ]


def hessian(f):
    """The determinant of the matrix of second partials of the ternary
    form f: with rows (a, b, c), (b, e, g), (c, g, i) it is
    a*e*i + 2*b*c*g - a*g^2 - e*c^2 - i*b^2."""
    (a, b, c), (_, e, g), (_, _, i) = (gradient(h) for h in gradient(f))
    out = {}
    for k, x, y, z in ((1, a, e, i), (2, b, c, g), (-1, a, g, g), (-1, e, c, c), (-1, i, b, b)):
        for m, (xa, xb) in times(times(x, y), z).items():
            sa, sb = out.get(m, (0, 0))
            out[m] = (sa + k * xa, sb + k * xb)
    return {m: x for m, x in out.items() if x != (0, 0)}


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


def _eliminate(columns, block):
    """The kernel vectors of the columns with the given indices (in
    order), as kernel returns them.

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
    for j in block:
        v, tag = columns[j], {j: (1, 0)}
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


# The prime of kernel's rank test: P = 1 mod 3, so Z/P holds a primitive
# cube root of unity W, and rho -> W maps Z[rho] onto Z/P as a ring.
_P = 2**31 - 1
_W = next(w for w in (pow(h, (_P - 1) // 3, _P) for h in range(2, _P)) if w != 1)


def _blocks(columns):
    """The nonzero columns split into the connected components of the
    graph that links a column to the rows it touches, each block the list
    of its column indices in order."""
    owner, parent = {}, list(range(len(columns)))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for j, col in enumerate(columns):
        for r in col:  # j is still a root here
            parent[find(owner.setdefault(r, j))] = j
    blocks = {}
    for j, col in enumerate(columns):
        if col:
            blocks.setdefault(find(j), []).append(j)
    return list(blocks.values())


def _independent_mod_p(columns):
    """Whether the columns are linearly independent mod (P, rho - W).

    The map is a ring homomorphism, so a minor nonzero mod P is nonzero in
    Z[rho]: True proves the columns independent over Q(rho); False
    decides nothing."""
    basis = []  # (pivot row, column scaled to pivot 1)
    for col in columns:
        v = {}
        for k, (a, b) in col.items():
            x = (a + b * _W) % _P
            if x:
                v[k] = x
        for r, w in basis:
            c = v.get(r)
            if c:
                for k, x in w.items():
                    y = (v.get(k, 0) - c * x) % _P
                    if y:
                        v[k] = y
                    else:  # c*x is nonzero, so k was present
                        del v[k]
        if not v:
            return False
        r = min(v)
        inv = pow(v[r], -1, _P)
        basis.append((r, {k: x * inv % _P for k, x in v.items()}))
    return True


def kernel(columns):
    """Basis of the kernel of the matrix over Z[rho] with the given sparse
    columns (row -> pair), as sparse vectors column index -> pair, in the
    order of their last column.

    The exact elimination (_eliminate) runs block by block.  A block is a
    connected component of the graph that links a column to the rows it
    touches; a basis vector never leaves the rows of its block, so a
    column meets only the basis of its own block, gets the same tag as in
    the whole matrix, and the kernel is the union of the blocks' kernels.  A zero column is a
    kernel vector on its own and a single nonzero column is independent.
    Every other block but the largest is first eliminated mod
    (P, rho - W), P = 2^31 - 1: a rank can only drop under that map, so a
    block of full rank there has no kernel, and only the rest go through
    the exact elimination.  The largest block goes straight to it: it is
    the one that holds the kernel of every dual in the curve corpus, so a
    modular pass there is wasted.  An unlucky prime only costs time: the
    exact elimination is the one source of kernel vectors."""
    blocks = _blocks(columns)
    largest = max(blocks, key=len, default=None)
    out = [{j: (1, 0)} for j, col in enumerate(columns) if not col]
    for block in blocks:
        if len(block) > 1 and (
            block is largest or not _independent_mod_p([columns[j] for j in block])
        ):
            out.extend(_eliminate(columns, block))
    out.sort(key=max)
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


def roots(cs):
    """The roots in Q(rho) of the squarefree polynomial cs over Z[rho]
    (degree >= 1), as (D*a, D*b, D) triples for a root a + b*rho, where D
    is the norm of the leading coefficient.

    Candidates come from p-adic lifting in both embeddings of Z[rho] into
    Z/p^k (the prime rule and the bound that makes the search complete
    are argued in scalars.lambda_roots).  A candidate is kept only if cs
    vanishes at it exactly (value)."""
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
            if value(cs, (da, db, d)) == (0, 0):
                found.append((da, db, d))
                lifted[1].remove(v)
                break
    return found


# ---------------------------------------------------------------------------
# Univariate polynomials up to a factor: gcd, values and the root core
#
# Only the roots of these polynomials matter, so each is kept up to a
# nonzero factor in Q(rho), and a common factor of its ints is dropped.


def primitive(f):
    """f divided by the gcd of its ints (f nonzero)."""
    g = math.gcd(*chain.from_iterable(f))
    return f if g == 1 else [(a // g, b // g) for a, b in f]


def normalize(f):
    """The multiple of f (nonzero) whose ints have no common factor and
    whose leading coefficient is a positive rational integer: f times the
    conjugate of its leading coefficient, which turns that coefficient
    into its norm, divided by the gcd of its ints.  Multiples of one monic
    polynomial share it, so it is clear(f / lc(f))[0]: the cleared monic
    polynomial."""
    a, b = f[-1]
    return primitive([mul(x, (a - b, -b)) for x in f])


def derivative(f):
    return [(k * a, k * b) for k, (a, b) in enumerate(f) if k]


def _remainder(f, g):
    """The remainder of c*f on division by g (deg f >= deg g >= 0), where
    c is lc(g) to the number of steps that had a term to cancel: the
    pseudo-remainder without its idle factors of lc(g)."""
    n = len(g) - 1
    la, lb = g[-1]
    ra = [a for a, _ in f]
    rb = [b for _, b in f]
    for k in range(len(f) - 1, n - 1, -1):
        ca, cb = ra[k], rb[k]
        if not (ca or cb):
            continue
        for i in range(k):  # r = lc(g) * r, below the cancelled term
            a, b = ra[i], rb[i]
            bb = b * lb
            ra[i], rb[i] = a * la - bb, a * lb + b * la - bb
        for i, (ga, gb) in enumerate(g[:-1], k - n):  # r -= r_k * x^(k-n) * g
            bb = cb * gb
            ra[i] -= ca * ga - bb
            rb[i] -= ca * gb + cb * ga - bb
    out = list(zip(ra[:n], rb[:n]))
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def gcd(f, g):
    """A gcd over Q(rho) of f and g (f nonzero), primitive, by Collins'
    primitive PRS: a pseudo-remainder sequence in which every remainder
    is divided by the gcd of its ints.  Both steps keep the gcd up to a
    factor in Q(rho), and the last nonzero remainder divides the one
    before it, hence every term of the sequence."""
    if len(f) < len(g):
        f, g = g, f
    f = primitive(f)
    while g:
        g = primitive(g)
        f, g = g, _remainder(f, g)
    return f


def value(f, root):
    """d^n * f(x/d) for n = deg f and root = (a, b, d), x = a + b*rho,
    d != 0: Horner's rule on d^n * f(y/d) = sum f_i * y^i * d^(n-i), a
    pair that is zero exactly when f vanishes at x/d."""
    xa, xb, d = root
    ya, yb = f[-1]
    dk = 1
    for a, b in reversed(f[:-1]):
        dk *= d
        bb = yb * xb
        ya, yb = ya * xa - bb + a * dk, ya * xb + yb * xa - bb + b * dk
    return ya, yb


def substitute(rows, root):
    """sum_j rows[j](x/d) * y^j times d^n, for root = (a, b, d) as in
    value and n the largest degree of the rows (polynomials in one
    variable, [] for zero): a polynomial in y on ints."""
    n = max(map(len, rows))
    out = [value(r + [(0, 0)] * (n - len(r)), root) for r in rows]
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def _deflate(f, root):
    """Divide X - x/d out of f as often as it divides, for root = (a, b, d)
    as in value; returns the normalized quotient and the count.
    P(y) = d^n * f(y/d) is a polynomial over Z[rho] with the root x, so
    each synthetic division by the monic y - x is exact on ints; the
    quotient in X is Q(d*X)."""
    xa, xb, d = root
    n = len(f) - 1
    p = [(a * d ** (n - i), b * d ** (n - i)) for i, (a, b) in enumerate(f)]
    m = 0
    while True:
        q, ya, yb = [], 0, 0
        for a, b in reversed(p):
            bb = yb * xb
            ya, yb = ya * xa - bb + a, ya * xb + yb * xa - bb + b
            q.append((ya, yb))
        if q.pop() != (0, 0):
            return normalize([(a * d**i, b * d**i) for i, (a, b) in enumerate(p)]), m
        p = q[::-1]
        m += 1


def _squarefree(f):
    """The normalized squarefree part f / gcd(f, f') of the normalized f
    (deg f >= 1).  With h the normalized gcd, of leading coefficient L,
    L^(deg f - deg h + 1) * f / h is exact over Z[rho]: the pseudo-quotient
    of a division without remainder."""
    h = gcd(f, derivative(f))
    if len(h) == 1:
        return f
    h = normalize(h)
    c = h[-1][0] ** (len(f) - len(h) + 1)
    return normalize(exact_div([(a * c, b * c) for a, b in f], h))


def _lowest(a, b, d):
    """The triple of (a + b*rho)/d in lowest terms, d > 0."""
    g = math.gcd(a, b, d)
    return a // g, b // g, d // g


def _sort_key(root):
    """The order of scalars.scalar_sort_key on a root (a, b, d)."""
    a, b, d = root
    ga, gb = math.gcd(a, d), math.gcd(b, d)
    return a // ga, d // ga, b // gb, d // gb


def _linear_root(f):
    """The root -c0/c1 of f = c0 + c1*x (c1 nonzero) as a triple in lowest
    terms: -c0 times the conjugate of c1, over N(c1)."""
    (a0, b0), (la, lb) = f
    a, b = mul((-a0, -b0), (la - lb, -lb))
    return _lowest(a, b, norm((la, lb)))


def solve(f):
    """Every root in Q(rho) of the nonzero polynomial f over Z[rho], and
    the cofactor left once all are divided out.

    Returns (found, rest): found lists the distinct roots (a, b, d), each
    (a + b*rho)/d in lowest terms with d > 0, in the order of
    scalars.scalar_sort_key; rest is the normalized cofactor, which has
    no root in Q(rho).  Zero roots are stripped first and degree 1 is
    solved in closed form.  Otherwise f is normalized and its squarefree
    part, which has the roots of f once each, is solved: in closed form if
    linear (f = c*(x - r)^m), else by the p-adic search roots.  If they
    number its degree, rest is 1; only otherwise is each divided out of f
    for its multiplicity (_deflate).  No root is missed: scalars.lambda_roots."""
    k = next(i for i, x in enumerate(f) if x != (0, 0))
    f = f[k:]
    found = [(0, 0, 1)] if k else []
    if len(f) == 2:
        found.append(_linear_root(f))
        f = f[1:]
    elif len(f) > 2:
        f = normalize(f)
        s = _squarefree(f)
        roots_of_s = [_linear_root(s)] if len(s) == 2 else [_lowest(*r) for r in roots(s)]
        found += roots_of_s
        if len(roots_of_s) == len(s) - 1:
            f = f[-1:]
        else:
            for root in roots_of_s:
                f = _deflate(f, root)[0]
    found.sort(key=_sort_key)
    return found, normalize(f)
