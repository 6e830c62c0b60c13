"""The Z[rho] integer kernel against EisensteinScalar and LambdaPoly."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plucker_lab import _zrho
from plucker_lab.scalars import EisensteinScalar, LambdaPoly, RootSearch, lambda_roots
from lambda_poly_oracle import derivative
from resultant_oracle import pair_resultant

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


@given(st.lists(_pairs, min_size=1, max_size=5), _pairs, _pairs, st.integers(0, 2))
def test_form_at(form, s, t, extra):
    # the powers may run past the degree, as when one list serves forms
    # of degrees 2 to 4
    n = len(form) - 1
    want = sum(
        (_scalar(c) * _scalar(s) ** u * _scalar(t) ** (n - u) for u, c in enumerate(form)),
        EisensteinScalar(0),
    )
    pw = (_zrho.powers(s, n + extra), _zrho.powers(t, n + extra))
    assert _scalar(_zrho.form_at(form, pw)) == want


# ---------------------------------------------------------------------------
# gcd, squarefree part and values against LambdaPoly and sympy

_small_polys = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=4).map(_trim)


def _times(*polys):
    out = [(1, 0)]
    for p in polys:
        out = _zrho.cross(out, p, [], [])
    return out


def _cleared_monic(p):
    """clear(p / lc(p))[0]: the polynomial lambda_roots searches."""
    return _zrho.clear(p.monic().coeffs)[0]


@settings(max_examples=150, deadline=None)
@given(_small_polys, _small_polys, _small_polys.filter(bool))
def test_gcd_matches_lambda_poly_gcd(a, b, c):
    # a planted common factor c, and the gcd of f with zero
    f, g = _times(a, c), _times(b, c)
    want = _lambda_poly(f).gcd(_lambda_poly(g))
    if not f:
        return
    got = _zrho.gcd(f, g)
    assert _zrho.normalize(got) == _cleared_monic(want)
    assert _zrho.primitive(got) == got
    assert _zrho.normalize(_zrho.gcd(f, [])) == _cleared_monic(_lambda_poly(f))


@given(_nonzero_polys)
def test_normalize_is_the_cleared_monic_polynomial(f):
    n = _zrho.normalize(f)
    assert n == _cleared_monic(_lambda_poly(f))
    assert n[-1][0] > 0 and n[-1][1] == 0
    assert _zrho.normalize([_zrho.mul(x, (2, 5)) for x in f]) == n


@settings(max_examples=150, deadline=None)
@given(_small_polys.filter(lambda p: len(p) >= 2), _small_polys.filter(bool), st.integers(1, 3))
def test_squarefree_part_matches_lambda_poly(a, b, k):
    # a repeated factor a^k next to b
    f = _zrho.normalize(_times(*[a] * k, b))
    p = _lambda_poly(f)
    want = p.exact_div(p.gcd(derivative(p)))
    assert _zrho._squarefree(f) == _cleared_monic(want)


@given(_polys.filter(bool), _pairs, st.integers(1, 20))
def test_value_is_the_scaled_evaluation(f, x, d):
    at = _scalar(x) / d
    assert _scalar(_zrho.value(f, (*x, d))) == _lambda_poly(f).evaluate(at) * d ** (len(f) - 1)


def _sympy_poly(f, sympy):
    y = sympy.Symbol("y")
    rho = (sympy.sqrt(-3) - 1) / 2
    return sympy.Poly(sum((a + b * rho) * y**k for k, (a, b) in enumerate(f)), y,
                      extension=sympy.sqrt(-3))


@settings(max_examples=10, deadline=None)
@given(_small_polys, _small_polys, _small_polys.filter(lambda p: len(p) >= 2), st.integers(1, 2))
def test_gcd_and_squarefree_part_match_sympy(a, b, c, k):
    sympy = pytest.importorskip("sympy")
    f, g = _times(a, *[c] * k), _times(b, c)
    if not f or not g:
        return
    # equal degrees and sympy's result dividing ours: the same up to a factor
    got, want = _sympy_poly(_zrho.gcd(f, g), sympy), sympy.gcd(_sympy_poly(f, sympy), _sympy_poly(g, sympy))
    assert got.degree() == want.degree() and got.rem(want).is_zero
    got = _sympy_poly(_zrho._squarefree(_zrho.normalize(f)), sympy)
    want = _sympy_poly(f, sympy).sqf_part()
    assert got.degree() == want.degree() and got.rem(want).is_zero


# ---------------------------------------------------------------------------
# The subresultant PRS of the chart resultants against the Bareiss oracle
#
# A polynomial in x over Z[rho][y] is the list of its coefficients in x,
# leading first, each a polynomial in y.

_y_polys = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=3).map(_trim)
_y_consts = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=1).map(_trim)


def _x_polys(degree, coeffs=_y_polys):
    """Polynomials in x of exactly the given degree (an int or a strategy)."""
    degree = st.just(degree) if isinstance(degree, int) else degree
    return degree.flatmap(
        lambda d: st.tuples(coeffs.filter(bool), st.lists(coeffs, min_size=d, max_size=d))
    ).map(lambda t: [t[0], *t[1]])


def _x_times(f, g):
    out = [[] for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = _zrho.cross(out[i + j], [(1, 0)], [(-1, 0)], _zrho.cross(a, b, [], []))
    return out


def _x_plus(f, g):
    """f + g with f of the higher degree."""
    g = [[]] * (len(f) - len(g)) + g
    return [_zrho.cross(a, [(1, 0)], [(-1, 0)], b) for a, b in zip(f, g)]


def _check_resultant(p, q):
    """The PRS equals the Sylvester determinant, and swapping the inputs
    multiplies it by (-1)^(deg p * deg q)."""
    got = _zrho.resultant(p, q)
    assert got == pair_resultant(p, q)
    swapped = _zrho.resultant(q, p)
    if (len(p) - 1) * (len(q) - 1) % 2:
        swapped = [(-a, -b) for a, b in swapped]
    assert swapped == got
    return got


@settings(max_examples=150, deadline=None)
@given(_x_polys(st.integers(1, 5)), _x_polys(st.integers(1, 5)))
def test_resultant_matches_bareiss(p, q):
    _check_resultant(p, q)


@settings(max_examples=60, deadline=None)
@given(_x_polys(st.sampled_from([1, 3])), _x_polys(st.sampled_from([3, 5])))
def test_resultant_sign_with_the_lower_odd_degree_first(p, q):
    if len(p) == len(q):
        p = p[:2]  # degree 1 against 3
    _check_resultant(p, q)


@settings(max_examples=60, deadline=None)
@given(_x_polys(st.integers(2, 4)), _y_polys.filter(bool), st.data())
def test_resultant_on_a_defective_chain(q, a, data):
    # p = a*q + r, a free of x: deg p = deg q (delta = 0), and the first
    # remainder lc(q)*r drops two or more degrees below deg q
    r = data.draw(_x_polys(st.integers(0, len(q) - 3)))
    p = _x_plus(_x_times([a], q), r)
    assert len(_zrho._prem(p, q)) == len(r) <= len(q) - 2
    _check_resultant(p, q)


@settings(max_examples=60, deadline=None)
@given(_x_polys(st.integers(0, 3)), _x_polys(st.integers(0, 3)), _x_polys(st.integers(1, 2)))
def test_resultant_with_a_shared_factor_is_zero(a, b, c):
    p, q = _x_times(a, c), _x_times(b, c)
    assert _check_resultant(p, q) == []


@settings(max_examples=100, deadline=None)
@given(_x_polys(st.integers(1, 6), _y_consts), _x_polys(st.integers(1, 6), _y_consts))
def test_resultant_without_a_free_variable(p, q):
    # no second live variable: every coefficient is a constant of Z[rho]
    got = _check_resultant(p, q)
    assert len(got) <= 1


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), _x_polys(st.integers(1, 4)), _x_polys(st.integers(1, 4)))
def test_resultant_with_a_leading_coefficient_vanishing_at_a_value(t, p, q):
    # lc(p) = (y - t) * lc(p): the degree of p in x drops at y = t
    p = [_zrho.cross(p[0], [(-t, 0), (1, 0)], [], []), *p[1:]]
    _check_resultant(p, q)


# ---------------------------------------------------------------------------
# The sparse kernel, block by block


def _rank(columns):
    """The rank over Q(rho) of the sparse columns, by sympy: a + b*rho acts
    on the basis (1, rho) of Q(rho) over Q as [[a, -b], [b, a - b]], and a
    rank over Q(rho) doubles in that regular representation."""
    sympy = pytest.importorskip("sympy")
    rows = sorted({r for col in columns for r in col})
    m = sympy.zeros(2 * len(rows), 2 * len(columns))
    for j, col in enumerate(columns):
        for i, r in enumerate(rows):
            a, b = col.get(r, (0, 0))
            m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = sympy.Matrix([[a, -b], [b, a - b]])
    rank = m.rank()
    assert rank % 2 == 0
    return rank // 2


def _combination(cols, weights):
    """sum of weights[i] * cols[i], zeros dropped."""
    out = {}
    for col, x in zip(cols, weights):
        for r, y in col.items():
            a, b = out.get(r, (0, 0))
            p, q = _zrho.mul(x, y)
            out[r] = (a + p, b + q)
    return {r: x for r, x in out.items() if x != (0, 0)}


_small = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _block_matrices(draw):
    """Sparse columns over disjoint row sets, one per block, and up to two
    zero columns, in an interleaved order.  A block is random (its zero
    entries may split it further) or upper triangular and so of full
    rank, either with a combination of two of its columns appended, a
    kernel vector of that block."""
    columns = []
    for b in range(draw(st.integers(1, 4))):
        rows = draw(st.integers(1, 4))
        if draw(st.booleans()):
            cols = [
                {(b, r): x for r in range(rows) if any(x := draw(_small))}
                for _ in range(draw(st.integers(1, 5)))
            ]
        else:
            cols = [
                {(b, r): draw(_small.filter(any)) if r == k else draw(_small) for r in range(k, rows)}
                for k in range(draw(st.integers(1, rows)))
            ]
            cols = [{r: x for r, x in col.items() if any(x)} for col in cols]
        if len(cols) > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(len(cols))))[:2]
            cols.append(_combination([cols[i], cols[j]], [draw(_small), draw(_small)]))
        columns.extend(cols)
    columns += [{}] * draw(st.integers(0, 2))  # zero columns, each a kernel vector
    return [columns[i] for i in draw(st.permutations(range(len(columns))))]


def _check_kernel(columns):
    kernel = _zrho.kernel(columns)
    assert kernel == _zrho._eliminate(columns, range(len(columns)))
    assert len(kernel) == len(columns) - _rank(columns)
    for vec in kernel:
        assert not _combination([columns[j] for j in vec], list(vec.values()))
    return kernel


@settings(max_examples=80, deadline=None)
@given(_block_matrices())
def test_kernel_by_blocks_is_the_plain_elimination(columns):
    _check_kernel(columns)


def test_kernel_with_zero_columns_and_kernels_in_two_blocks():
    # blocks {0, 3, 5}, {1, 4} and zero columns 2, 6; column 5 = 0 + 3
    # and column 4 = rho * column 1
    columns = [
        {0: (1, 0), 1: (2, 1)},
        {2: (1, 1)},
        {},
        {0: (0, 1), 1: (3, 0)},
        {2: (-1, 0)},
        {0: (1, 1), 1: (5, 1)},
        {},
    ]
    kernel = _check_kernel(columns)
    assert [max(vec) for vec in kernel] == [2, 4, 5, 6]


@pytest.fixture
def eliminated(monkeypatch):
    """The index lists of the blocks kernel passes to the exact elimination."""
    eliminate, blocks = _zrho._eliminate, []

    def counting(columns, block):
        blocks.append(list(block))
        return eliminate(columns, block)

    monkeypatch.setattr(_zrho, "_eliminate", counting)
    return blocks


def test_kernel_with_a_largest_block_of_full_rank(eliminated):
    # an invertible 3 x 3 block, and a 2-column block whose second column
    # is twice its first, the only kernel vector
    columns = [
        {0: (1, 0), 1: (1, 1)},
        {5: (1, 2)},
        {1: (2, 0), 2: (0, 1)},
        {5: (2, 4)},
        {0: (3, 0), 2: (1, -1)},
    ]
    assert _check_kernel(columns) == [{1: (-2, 0), 3: (1, 0)}]
    # the largest block is eliminated exactly although it has full rank
    assert sorted(eliminated[:2]) == [[0, 2, 4], [1, 3]]


def test_a_block_singular_only_mod_p_is_eliminated_exactly(eliminated):
    sympy = pytest.importorskip("sympy")
    p, w = _zrho._P, _zrho._W
    assert sympy.isprime(p) and w != 1 and (w * w + w + 1) % p == 0
    # [[1, 1], [1, 1 + rho - w]] has determinant rho - w, which is nonzero
    # in Z[rho] but zero mod (p, rho - w): the rank test cannot prove it
    # independent, and the exact elimination finds it has no kernel
    unlucky = [{0: (1, 0), 1: (1, 0)}, {0: (1, 0), 1: (1 - w, 1)}]
    assert not _zrho._independent_mod_p(unlucky)
    # the largest block: three columns with column 2 = column 0 + column 1
    big = [{2: (1, 0), 3: (2, 1), 4: (1, 1)}, {2: (0, 1), 3: (3, 0)}]
    big.append(_combination(big, [(1, 0), (1, 0)]))
    columns = [big[0], unlucky[0], big[1], unlucky[1], big[2]]
    kernel = _check_kernel(columns)
    assert len(kernel) == 1 and max(kernel[0]) == 4
    assert sorted(eliminated[:2]) == [[0, 2, 4], [1, 3]]


def _no_search(cs, is_root):
    raise AssertionError("p-adic search on %r" % (cs,))


@settings(max_examples=150, deadline=None)
@given(_pairs.filter(any), _pairs, st.integers(1, 9), st.integers(1, 12), st.integers(0, 2))
def test_solve_takes_a_linear_squarefree_part_in_closed_form(c, x, d, m, k):
    # c * (d*y - x)^m * y^k has the root x/d of multiplicity m, and 0 of k;
    # solve returns the roots, lambda_roots counts the multiplicities
    f = _times([c], *[[(-x[0], -x[1]), (d, 0)]] * m, *[[(0, 0), (1, 0)]] * k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_zrho, "roots", _no_search)
        found, rest = _zrho.solve(f)
        search = lambda_roots(_lambda_poly(f))
    want = {(0, 0, 1): k} if k else {}
    root = _zrho._lowest(*x, d)
    want[root] = want.get(root, 0) + m
    assert found == sorted(want, key=_zrho._sort_key)
    assert rest == [(1, 0)]
    assert search == RootSearch(tuple((EisensteinScalar._raw(*r), want[r]) for r in found), ())


def _sympy_roots(f, sympy):
    """The distinct roots of f in Q(rho), from sympy's factorization over
    Q(sqrt(-3)), as (a, b, d) triples in lowest terms."""
    out = set()
    for factor, _ in _sympy_poly(f, sympy).factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            root = sympy.expand(-c0 / c1)
            # root = u + v*sqrt(-3) = (u + v) + 2v*rho
            u = Fraction(str(sympy.re(root)))
            v = Fraction(str(sympy.simplify(sympy.im(root) / sympy.sqrt(3))))
            a, b = u + v, 2 * v
            d = math.lcm(a.denominator, b.denominator)
            out.add(_zrho._lowest(int(a * d), int(b * d), d))
    return out


# monic factors without a root in Q(rho): x^2 - 2, x^2 - (1 + rho) (as
# 1 + rho = -rho^2 and -1 is no square), x^3 - 2 and x^3 - rho
_ROOT_FREE = ([(-2, 0), (0, 0), (1, 0)], [(-1, -1), (0, 0), (1, 0)],
              [(-2, 0), (0, 0), (0, 0), (1, 0)], [(0, -1), (0, 0), (0, 0), (1, 0)])
_small_pairs = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@settings(max_examples=25, deadline=None)
@given(
    c=_small_pairs.filter(any),
    linear=st.lists(st.tuples(_small_pairs, st.integers(1, 4), st.integers(1, 3)), max_size=4),
    root_free=st.sampled_from(((),) + _ROOT_FREE),
    power=st.integers(1, 2),
)
def test_solve_finds_the_roots_sympy_finds(c, linear, root_free, power):
    # c * prod (d*y - x)^m * q^power, with q root-free or 1
    sympy = pytest.importorskip("sympy")
    factors = [[(-x[0], -x[1]), (d, 0)] for x, d, m in linear for _ in range(m)]
    f = _times([c], *factors, *[root_free] * (power if root_free else 0))
    found, rest = _zrho.solve(f)
    assert found == sorted(_sympy_roots(f, sympy), key=_zrho._sort_key)
    # the cofactor of a core that divides every root out of f for its
    # multiplicity, whether or not anything root-free is left
    deflated = _zrho.normalize(f)
    for root in found:
        deflated = _zrho._deflate(deflated, root)[0]
    assert rest == deflated
    assert len(rest) - 1 == ((len(root_free) - 1) * power if root_free else 0)


# ---------------------------------------------------------------------------
# form_value against LambdaPoly arithmetic

_exponents = st.tuples(*[st.integers(0, 6)] * 3).filter(lambda e: sum(e) <= 6)
# a coordinate: a polynomial in lambda, zero ([] or [(0, 0)]) now and then,
# trailing zeros allowed
_coordinates = st.one_of(st.just([]), st.just([(0, 0)]), st.lists(_pairs, min_size=1, max_size=3))


@st.composite
def _lambda_forms(draw):
    """Forms of degree <= 6 whose coefficients (equal lists, not shared
    ones) repeat, drawn from a pool of at most three."""
    pool = draw(st.lists(_nonzero_polys, min_size=1, max_size=3))
    exponents = draw(st.lists(_exponents, max_size=10, unique=True))
    return {e: list(draw(st.sampled_from(pool))) for e in exponents}


def _form_value_oracle(form, point):
    ys = [_lambda_poly(_trim(y)) for y in point]
    out = LambdaPoly(())
    for e, c in form.items():
        t = _lambda_poly(c)
        for y, k in zip(ys, e):
            t = t * y**k
        out = out + t
    return _from_lambda_poly(out)


@settings(max_examples=200, deadline=None)
@given(_lambda_forms(), st.tuples(_coordinates, _coordinates, _coordinates))
def test_form_value_matches_lambda_poly_arithmetic(form, point):
    assert _zrho.form_value(form, list(point)) == _form_value_oracle(form, point)


def test_form_value_edge_cases():
    one, lam = [(1, 0)], [(0, 0), (1, 0)]
    assert _zrho.form_value({}, [lam, lam, lam]) == []
    # the constant term contributes its coefficient alone
    assert _zrho.form_value({(0, 0, 0): [(2, 3)]}, [[], [], []]) == [(2, 3)]
    # x0^2 + x1^2 - 2*x2^2 with x = (lambda, 1, 1): the shared coefficient 1
    form = {(2, 0, 0): one, (0, 2, 0): one, (0, 0, 2): [(-2, 0)]}
    assert _zrho.form_value(form, [lam, one, one]) == [(-1, 0), (0, 0), (1, 0)]
    # the terms cancel at x = (1, 1, 1)
    assert _zrho.form_value(form, [one, one, one]) == []

