"""Root finding over Q(rho) on the inputs that matter: the degree-18 chart
eliminants of the 9-cuspidal sextic, random products of linear factors,
and an independent check against sympy's factorisation over Q(sqrt(-3)).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from plucker_lab import _zrho, curve
from plucker_lab.curve import PlaneCurve
from plucker_lab.polynomials import bl2_sextic, parse_scalar
from plucker_lab.scalars import (
    ONE,
    RHO,
    ZERO,
    EisensteinScalar,
    LambdaPoly,
    lambda_roots,
)
import chart_oracle
from sqrt_oracle import eis_sqrt

# monic cofactors without a root in Q(rho)
ROOT_FREE = (
    LambdaPoly([1]),
    LambdaPoly([-2, 0, 1]),
    LambdaPoly([-2, 0, 0, 1]),
    LambdaPoly([1, 0, 0, 0, 1]),
    LambdaPoly([-1, -1, 0, 0, 0, 1]),
)

# (roots, monic cofactor) pairs that probe the choice of the prime: roots
# that collide mod 7, 13, 19, 31, 37 and 43 (so p = 61), with and without
# rho parts; a root-free cofactor with a double factor mod 7 that has no
# root there (so p = 7, though the image is not squarefree); a root = 0
# (mod 7); a root with 7 in its denominator (7 divides D and is skipped)
_N = 7 * 13 * 19 * 31 * 37 * 43
PRIME_PROBES = (
    ({ONE: 1, ONE + _N: 1}, LambdaPoly([1])),
    ({ONE + RHO: 1, ONE + _N + RHO: 1, ONE * 7: 1}, LambdaPoly([1])),
    ({ONE: 1}, LambdaPoly([1, 7, 1]) * LambdaPoly([1, 14, 1])),
    ({ONE * 7: 1, -ONE: 1}, LambdaPoly([1])),
    ({ONE / 7: 1, ONE * 2: 1}, LambdaPoly([1])),
)


def sextic_eliminant(lam: str) -> LambdaPoly:
    """The largest univariate polynomial the chart solver finds roots of for
    the singular locus of the family sextic at lam (degree 18: 9 double
    roots), taken from the object-path solver of chart_oracle.  The
    integer solver, run on the int-pair chart tables of the cleared
    sextic, must search the same polynomial up to a factor."""
    seen, solved = [], []
    solve = _zrho.solve

    def record(p):
        seen.append(p)
        return lambda_roots(p)

    sextic = PlaneCurve(bl2_sextic().specialize_lambda(parse_scalar(lam)))
    partials = chart_oracle.partials(sextic)
    grads = _zrho.gradient(sextic.form)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chart_oracle, "lambda_roots", record)
        mp.setattr(_zrho, "solve", lambda f: solved.append(f) or solve(f))
        for k in range(3):
            names = sextic.vars[k + 1 :]
            chart_oracle.affine_zeros([chart_oracle.chart(p, k) for p in partials], names, [])
            curve._affine_zeros([curve._chart(g, k) for g in grads], names, [])
    elim = max(seen, key=lambda p: p.degree)
    pairs = max(solved, key=len)
    assert LambdaPoly([EisensteinScalar(a, b) for a, b in pairs]).monic() == elim.monic()
    return elim


def product(roots: dict, cofactor: LambdaPoly, scale) -> LambdaPoly:
    p = cofactor.scale(scale)
    for root, mult in roots.items():
        p = p * LambdaPoly([-root, ONE]) ** mult
    return p


def test_eliminant_at_minus_two_plus_two_rho():
    elim = sextic_eliminant("-2 + 2*rho")
    assert elim.degree == 18
    r = lambda_roots(elim)
    assert r.complete and r.unresolved == ()
    assert [m for _, m in r.roots] == [2] * 9
    assert all(not elim.evaluate(x) for x in r.values)


_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_scalars = st.one_of(
    st.sampled_from([ZERO, ONE, RHO, RHO * RHO]),
    st.builds(EisensteinScalar, _fractions, _fractions),
)


@settings(max_examples=60, deadline=None)
@given(
    roots=st.dictionaries(_scalars, st.integers(1, 3), max_size=5),
    cofactor=st.sampled_from(ROOT_FREE),
    scale=_scalars.filter(bool),
)
@example(roots=PRIME_PROBES[0][0], cofactor=PRIME_PROBES[0][1], scale=ONE)
@example(roots=PRIME_PROBES[1][0], cofactor=PRIME_PROBES[1][1], scale=ONE)
@example(roots=PRIME_PROBES[2][0], cofactor=PRIME_PROBES[2][1], scale=ONE)
@example(roots=PRIME_PROBES[3][0], cofactor=PRIME_PROBES[3][1], scale=ONE)
@example(roots=PRIME_PROBES[4][0], cofactor=PRIME_PROBES[4][1], scale=ONE)
def test_lambda_roots_recovers_products(roots, cofactor, scale):
    p = product(roots, cofactor, scale)
    r = lambda_roots(p)
    assert dict(r.roots) == roots
    assert len(r.roots) == len(roots)
    if cofactor.degree >= 3:
        assert r.unresolved == (cofactor,) and not r.complete
    else:
        assert r.unresolved == () and r.complete


def quadratic_formula(p: LambdaPoly) -> dict:
    """{root: multiplicity} of a degree-2 p by the closed form, with
    eis_sqrt deciding whether the discriminant is a square in Q(rho)."""
    c0, c1, c2 = p.coeffs
    disc = c1 * c1 - 4 * c2 * c0
    if not disc:
        return {-c1 / (2 * c2): 2}
    s = eis_sqrt(disc)
    if s is None:
        return {}
    return {(-c1 + s) / (2 * c2): 1, (-c1 - s) / (2 * c2): 1}


def _split(a, b, scale):
    return (LambdaPoly([-a, ONE]) * LambdaPoly([-b, ONE])).scale(scale)


_nonzero = _scalars.filter(bool)
_quadratics = st.one_of(
    st.tuples(_scalars, _scalars, _nonzero).map(LambdaPoly),
    st.builds(_split, _scalars, _scalars, _nonzero),
    st.builds(lambda a, scale: _split(a, a, scale), _scalars, _nonzero),
)


@settings(max_examples=300, deadline=None)
@given(p=_quadratics)
def test_quadratics_match_the_closed_form(p):
    # split roots, double roots, root-free, rho coefficients: degree 2
    # takes the same lifting path as every higher degree
    assert p.degree == 2
    r = lambda_roots(p)
    assert dict(r.roots) == quadratic_formula(p)
    assert r.complete and r.unresolved == ()


# ---------------------------------------------------------------------------
# differential check against sympy


def sympy_linear_factors(p: LambdaPoly) -> dict:
    """{root: multiplicity} from sympy's factor_list over Q(sqrt(-3))."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sqrt_m3 = sympy.sqrt(-3)
    rho = (sqrt_m3 - 1) / 2
    expr = sum(
        (sympy.Rational(c.an, c.den) + sympy.Rational(c.bn, c.den) * rho)
        * x**k
        for k, c in enumerate(p.coeffs)
    )
    _, factors = sympy.factor_list(sympy.expand(expr), x, extension=sqrt_m3)
    out = {}
    for f, mult in factors:
        poly = sympy.Poly(f, x)
        if poly.degree() != 1:
            continue
        c1, c0 = poly.all_coeffs()
        root = sympy.expand(-c0 / c1)
        # root = u + v*sqrt(-3) = (u + v) + 2v*rho
        u = Fraction(str(sympy.re(root)))
        v = Fraction(str(sympy.simplify(sympy.im(root) / sympy.sqrt(3))))
        out[EisensteinScalar(u + v, 2 * v)] = mult
    return out


@pytest.mark.parametrize("lam", ["-4/3", "9/7", "4 - 4*rho"])
def test_eliminant_roots_match_sympy(lam):
    elim = sextic_eliminant(lam)
    want = sympy_linear_factors(elim)
    assert len(want) == 9
    assert dict(lambda_roots(elim).roots) == want


def test_random_products_match_sympy():
    rng = random.Random(3)

    def scalar():
        return EisensteinScalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
        )

    cases = [(roots, cofactor, ONE) for roots, cofactor in PRIME_PROBES]
    for _ in range(4):
        roots = {scalar(): rng.randint(1, 3) for _ in range(rng.randint(1, 4))}
        cases.append((roots, rng.choice(ROOT_FREE), scalar() or ONE))
    for roots, cofactor, scale in cases:
        p = product(roots, cofactor, scale)
        r = lambda_roots(p)
        assert dict(r.roots) == sympy_linear_factors(p) == roots
        assert r.unresolved == ((cofactor,) if cofactor.degree >= 3 else ())
