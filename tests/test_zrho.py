"""The Z[rho] integer kernel against EisensteinScalar and LambdaPoly."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plucker_lab import _zrho
from plucker_lab.scalars import EisensteinScalar, LambdaPoly

_ints = st.integers(-60, 60)
_pairs = st.tuples(_ints, _ints)
_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_scalars = st.builds(EisensteinScalar, _fractions, _fractions)


def _trim(poly):
    poly = list(poly)
    while poly and poly[-1] == (0, 0):
        poly.pop()
    return poly


_polys = st.lists(_pairs, max_size=6).map(_trim)
_nonzero_polys = _polys.filter(bool)


def _scalar(pair):
    return EisensteinScalar(*pair)


def _lambda_poly(poly):
    return LambdaPoly([_scalar(x) for x in poly])


def _from_lambda_poly(p):
    assert all(c.den == 1 for c in p.coeffs)
    return [(c.an, c.bn) for c in p.coeffs]


@given(st.lists(_scalars, min_size=1, max_size=8))
def test_clear_reproduces_its_inputs(scalars):
    pairs, den = _zrho.clear(scalars)
    assert len(pairs) == len(scalars)
    assert [_scalar(x) / den for x in pairs] == scalars
    # den is the least common denominator: no prime divides it and every pair
    assert math.gcd(den, *(c for x in pairs for c in x)) == 1


@given(_pairs, _pairs)
def test_mul_and_norm_agree_with_scalars(x, y):
    assert _scalar(_zrho.mul(x, y)) == _scalar(x) * _scalar(y)
    assert _zrho.norm(x) == _scalar(x).norm()
    assert _zrho.norm(_zrho.mul(x, y)) == _zrho.norm(x) * _zrho.norm(y)


@given(_pairs, st.integers(0, 6))
def test_powers(x, n):
    assert [_scalar(p) for p in _zrho.powers(x, n)] == [_scalar(x) ** e for e in range(n + 1)]


@given(_polys, _polys, _polys, _polys)
def test_cross_matches_lambda_polys(x, pivot, lead, y):
    want = _lambda_poly(x) * _lambda_poly(pivot) - _lambda_poly(lead) * _lambda_poly(y)
    assert _zrho.cross(x, pivot, lead, y) == _from_lambda_poly(want)


@settings(max_examples=200)
@given(_polys, _nonzero_polys, _polys, _polys)
def test_exact_div_round_trips(q, d, lead, y):
    # (q*d - lead*(y*d)) / d = q - lead*y
    yd = _zrho.cross(y, d, [], [])
    assert _zrho.exact_div(_zrho.cross(q, d, lead, yd), d) == _zrho.cross(q, [(1, 0)], lead, y)


@given(_polys, _polys.filter(lambda d: len(d) >= 2), _nonzero_polys)
def test_inexact_division_raises(q, d, r):
    r = _trim(r[: len(d) - 1]) or [(1, 0)]  # nonzero, of lower degree than d
    p = _zrho.cross(q, d, [(-1, 0)], r)  # q*d + r
    with pytest.raises(ArithmeticError):
        _zrho.exact_div(p, d)


def test_division_exact_over_q_rho_but_not_z_rho_raises():
    with pytest.raises(ArithmeticError):
        _zrho.exact_div([(1, 0), (1, 0)], [(2, 0)])
    assert _zrho.exact_div([(2, 0), (0, 2)], [(2, 0)]) == [(1, 0), (0, 1)]


@given(st.lists(_pairs, min_size=1, max_size=5), _pairs, _pairs)
def test_form_at(form, s, t):
    n = len(form) - 1
    want = sum(
        (_scalar(c) * _scalar(s) ** u * _scalar(t) ** (n - u) for u, c in enumerate(form)),
        EisensteinScalar(0),
    )
    assert _scalar(_zrho.form_at(form, (s, t))) == want
