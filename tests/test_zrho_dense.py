"""The int-pair kernels that loop over nonzero coefficients only, against
the dense references of zrho_dense_oracle: the same ints on every input,
zero padding, interior zeros, empty rows and zero operands included."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import zrho_dense_oracle as dense
from plucker_lab import _zrho, curve
from plucker_lab.curve import PlaneCurve, ProjectivePoint
from plucker_lab.polynomials import X_VARS, MultiPoly
from plucker_lab.scalars import ONE, ZERO, EisensteinScalar

_ints = st.integers(-40, 40)
# every other coefficient zero on average: interior zeros and zero rows
_pairs = st.one_of(st.just((0, 0)), st.tuples(_ints, _ints))


def _trim(poly):
    poly = list(poly)
    while poly and poly[-1] == (0, 0):
        poly.pop()
    return poly


# [] (zero), degree 0 and up to degree 7
_polys = st.lists(_pairs, max_size=8).map(_trim)
_nonzero_polys = _polys.filter(bool)


@settings(max_examples=300)
@given(_polys, _polys, _polys, _polys)
def test_cross_matches_dense(x, pivot, lead, y):
    assert _zrho.cross(x, pivot, lead, y) == dense.cross(x, pivot, lead, y)


def _divide_both(p, d):
    out = []
    for div in (_zrho.exact_div, dense.exact_div):
        try:
            out.append(div(p, d))
        except ArithmeticError:
            out.append(ArithmeticError)
    return out


@settings(max_examples=300)
@given(_polys, _nonzero_polys, _polys)
def test_exact_div_matches_dense(q, d, r):
    # q*d divides exactly; q*d + r is inexact for a nonzero r of lower
    # degree than d, and arbitrary q, d mostly so
    qd = _zrho.cross(q, d, [], [])
    assert _divide_both(qd, d) == [q if qd else [], q if qd else []]
    if r and len(r) < len(d):
        assert _divide_both(_zrho.cross(qd, [(1, 0)], [(-1, 0)], r), d) == [ArithmeticError] * 2
    got, want = _divide_both(q, d)
    assert got == want


# the leading coefficients _remainder scales by: 1, a rational int or any
_leads = st.one_of(st.just((1, 0)), st.tuples(_ints, st.just(0)), st.tuples(_ints, _ints))


@settings(max_examples=300)
@given(_nonzero_polys, _polys, _leads.filter(lambda x: x != (0, 0)))
def test_remainder_matches_dense(f, g, lead):
    g = g + [lead]
    if len(f) < len(g):
        f, g = g, f
    assert _zrho._remainder(f, g) == dense.remainder(f, g)


_rows = st.lists(_polys, min_size=1, max_size=5).map(lambda rows: rows + [[(1, 0)]] if not rows[-1] else rows)
_roots = st.tuples(_ints, _ints, st.integers(1, 12))


@settings(max_examples=300)
@given(st.lists(_rows, min_size=1, max_size=4), _roots)
def test_substitute_matches_values_on_padded_rows(tables, root):
    # every table's rows padded to the largest degree n over all tables,
    # which the dense reference pads its first row to
    n = max(len(r) for t in tables for r in t)
    want = [dense.substitute([t[0] + [(0, 0)] * (n - len(t[0]))] + t[1:], root) for t in tables]
    assert _zrho.substitute(tables, root) == want


_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7]))
_nonzero_scalars = st.builds(EisensteinScalar, _fractions, _fractions).filter(bool)
_scalars = st.one_of(st.just(ZERO), _nonzero_scalars)


@st.composite
def _curves_points_orders(draw):
    d = draw(st.integers(1, 7))
    exps = st.integers(0, d).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, d - a)))
    terms = draw(st.dictionaries(exps, _nonzero_scalars, min_size=1, max_size=12))
    c = PlaneCurve(MultiPoly(X_VARS, {(a, b, d - a - b): x for (a, b), x in terms.items()}))
    pivot = draw(st.integers(0, 2))
    p = ProjectivePoint([ZERO] * pivot + [ONE] + [draw(_scalars) for _ in range(2 - pivot)])
    # orders 2..d, and 4, the first order classify_singularity asks for
    return c, p, draw(st.integers(2, max(d, 4)))


@settings(max_examples=300, deadline=None)
@given(_curves_points_orders())
def test_taylor_jets_match_dense(case):
    c, p, order = case
    assert curve._taylor_jets(c, p, order) == dense.taylor_jets(c, p, order)
