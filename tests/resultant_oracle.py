"""Sylvester resultants over MultiPoly entries, for any input.

A differential oracle for plucker_lab.polynomials.resultant, which takes
only chart eliminations (lambda-free, one live variable besides the
eliminated one) and runs them on Z[rho] int pairs: here the Sylvester
matrix holds MultiPoly entries and its determinant is taken by the same
fraction-free Bareiss recurrence, so lambda and any number of variables
may stay symbolic.
"""

from plucker_lab.polynomials import MultiPoly


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
