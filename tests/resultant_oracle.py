"""Sylvester resultants by Bareiss's fraction-free elimination.

Differential oracles for the subresultant PRS of the chart resultants:
- bareiss and pair_resultant take the Sylvester determinant on Z[rho]
  int pairs, the format of plucker_lab._zrho.resultant;
- reference_resultant takes it over MultiPoly entries, for any input, as
  an oracle for plucker_lab.polynomials.resultant, which takes only chart
  eliminations (lambda-free, one live variable besides the eliminated
  one): here lambda and any number of variables may stay symbolic.
"""

from plucker_lab._zrho import cross, exact_div
from plucker_lab.polynomials import MultiPoly


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


def pair_resultant(p, q):
    """Res(p, q) of two polynomials in x over Z[rho][y] in the format of
    _zrho.resultant (coefficients in x leading first, each a polynomial
    in y), as the Bareiss determinant of their Sylvester matrix."""
    dp, dq = len(p) - 1, len(q) - 1
    rows = [[[]] * k + p + [[]] * (dq - 1 - k) for k in range(dq)]
    rows += [[[]] * k + q + [[]] * (dp - 1 - k) for k in range(dp)]
    return bareiss(rows)


def sylvester_matrix(p: MultiPoly, q: MultiPoly, var: str):
    """Sylvester matrix of p and q in var, leading coefficients first."""
    pc = p.coefficients_in(var)[::-1]
    qc = q.coefficients_in(var)[::-1]
    dp, dq = len(pc) - 1, len(qc) - 1
    zero = MultiPoly.zero(p.vars)
    rows = [[zero] * i + pc + [zero] * (dq - 1 - i) for i in range(dq)]
    rows += [[zero] * i + qc + [zero] * (dp - 1 - i) for i in range(dp)]
    return rows


def bareiss_determinant(mat, variables) -> MultiPoly:
    """Determinant of a square MultiPoly matrix by fraction-free
    elimination; every interior division is exact."""
    n = len(mat)
    one = MultiPoly.constant(variables, 1)
    if n == 0:
        return one
    m = [row[:] for row in mat]
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly.zero(variables)
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = row_i[j] * pivot
                if not lead.is_zero():
                    num = num - lead * m[k][j]
                row_i[j] = num.exact_div(prev)
            row_i[k] = MultiPoly.zero(variables)
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def reference_resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    return bareiss_determinant(sylvester_matrix(p, q, var), p.vars)
