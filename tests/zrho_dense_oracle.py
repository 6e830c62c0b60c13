"""Dense references for the int-pair kernels that loop over nonzero
coefficients only.

Differential oracles, in the format of plucker_lab._zrho, that run over
every coefficient slot, zeros included: cross, exact_div and _remainder
of the resultant and gcd kernels, substitute of the chart solver (one
table, each row padded to the table's largest degree and evaluated by
_zrho.value), and taylor_jets of the singularity classifier.
"""

import math

from plucker_lab import _zrho


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
    """p / d; raises ArithmeticError on a nonzero remainder."""
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


def remainder(f, g):
    """The remainder of c*f on division by g (deg f >= deg g >= 0), where
    c is lc(g) to the number of steps that had a term to cancel."""
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


def substitute(rows, root):
    """sum_j rows[j](x/d) * y^j times d^n, for root = (a, b, d) as in
    _zrho.value and n the largest degree of the rows: a polynomial in y."""
    n = max(map(len, rows))
    out = [_zrho.value(r + [(0, 0)] * (n - len(r)), root) for r in rows]
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def taylor_jets(c, p, order):
    """The jets of degree 0..order of the curve c at the point p over
    Z[rho], as curve._taylor_jets gives them: with i the index of p's
    first nonzero coordinate, j < k the others and (A, B) = D * (p_j, p_k)
    cleared, jets[n] is the degree-n part of L * F(x_i = D, x_j = A + s,
    x_k = B + t) for the cleared form L * F of c."""
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
    out_a = [[0] * (n + 1) for n in range(order + 1)]
    out_b = [[0] * (n + 1) for n in range(order + 1)]
    for exp, (ca, cb) in c.form.items():
        f = den ** exp[i]
        base = (ca * f, cb * f)
        for u, x in enumerate(shift_s[exp[j]]):
            x = _zrho.mul(base, x)
            for v, y in enumerate(shift_t[exp[k]][: order - u + 1]):
                a, b = _zrho.mul(x, y)
                out_a[u + v][u] += a
                out_b[u + v][u] += b
    return [list(zip(ra, rb)) for ra, rb in zip(out_a, out_b)]
