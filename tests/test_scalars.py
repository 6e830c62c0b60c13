import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from plucker_lab.polynomials import bl2_sextic
from plucker_lab.scalars import (
    ONE,
    RHO,
    ZERO,
    EisensteinScalar,
    LambdaPoly,
    lambda_roots,
    render_lambda_poly,
    render_scalar,
    scalar_sort_key,
)
from lambda_poly_oracle import conjugate, derivative, evaluate
from sqrt_oracle import eis_sqrt, fraction_sqrt
from test_corpus import admissible_lambdas


def _rand_scalar(rng, span=6):
    return EisensteinScalar(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
    )


def test_construction_normalizes():
    x = EisensteinScalar(Fraction(1, 2), Fraction(-3, 4))
    assert x.a == Fraction(1, 2) and x.b == Fraction(-3, 4)
    assert EisensteinScalar(2) == EisensteinScalar(Fraction(4, 2))
    assert EisensteinScalar(0, 0) == ZERO
    assert not ZERO
    assert ONE and RHO


def test_floats_rejected():
    with pytest.raises(TypeError):
        EisensteinScalar(0.5)
    with pytest.raises(TypeError):
        EisensteinScalar(1, 0.25)


def test_rho_satisfies_its_equation():
    assert RHO * RHO + RHO + ONE == ZERO
    assert RHO**3 == ONE
    assert RHO.conjugate() == RHO * RHO


def test_field_axioms_random():
    rng = random.Random(101)
    for _ in range(300):
        x, y, z = (_rand_scalar(rng) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x and x * ONE == x
        assert x - x == ZERO
        if x:
            assert x * x.inverse() == ONE


def test_norm_and_conjugate():
    rng = random.Random(102)
    for _ in range(200):
        x, y = _rand_scalar(rng), _rand_scalar(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        n = x * x.conjugate()
        assert n == EisensteinScalar(x.norm())
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        if x:
            assert x.norm() > 0


def test_mixed_arithmetic_with_ints_and_fractions():
    x = EisensteinScalar(1, 1)
    assert x + 1 == EisensteinScalar(2, 1)
    assert 1 + x == EisensteinScalar(2, 1)
    assert x * Fraction(1, 2) == EisensteinScalar(Fraction(1, 2), Fraction(1, 2))
    assert 2 - x == EisensteinScalar(1, -1)
    assert (x / 2) * 2 == x


def test_render_scalar():
    assert render_scalar(ZERO) == "0"
    assert render_scalar(ONE) == "1"
    assert render_scalar(RHO) == "rho"
    assert render_scalar(EisensteinScalar(Fraction(1, 2))) == "1/2"
    assert render_scalar(EisensteinScalar(1, 2)) == "1 + 2*rho"
    assert render_scalar(EisensteinScalar(0, -1)) == "-rho"
    assert render_scalar(EisensteinScalar(-1, Fraction(-1, 3))) == "-1 - 1/3*rho"


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(0)) == 0
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(-1)) is None


def test_eis_sqrt_known_values():
    minus_three = EisensteinScalar(-3)
    r = eis_sqrt(minus_three)
    assert r is not None and r * r == minus_three
    assert r in (EisensteinScalar(1, 2), EisensteinScalar(-1, -2))
    # rho = (rho^2)^2
    r = eis_sqrt(RHO)
    assert r is not None and r * r == RHO
    assert eis_sqrt(EisensteinScalar(2)) is None


def test_eis_sqrt_random_squares():
    rng = random.Random(103)
    for _ in range(150):
        x = _rand_scalar(rng)
        t = x * x
        r = eis_sqrt(t)
        assert r is not None and r * r == t


def test_scalar_sort_key_orders_consistently():
    xs = [RHO, ONE, ZERO, EisensteinScalar(-1), EisensteinScalar(1, 1)]
    ordered = sorted(xs, key=scalar_sort_key)
    assert sorted(ordered, key=scalar_sort_key) == ordered
    assert len({scalar_sort_key(x) for x in xs}) == len(xs)


def _fraction_text(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def _fraction_render(x):
    """render_scalar as it was written over the Fraction parts x.a, x.b."""
    a, b = x.a, x.b
    if b == 0:
        return _fraction_text(a)
    rho_part = {1: "rho", -1: "-rho"}.get(b, _fraction_text(b) + "*rho")
    if a == 0:
        return rho_part
    if b > 0:
        return "%s + %s" % (_fraction_text(a), rho_part)
    return "%s - %s" % (_fraction_text(a), rho_part.lstrip("-"))


_fractions = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
)


@given(_fractions, _fractions)
def test_render_and_sort_key_match_the_fraction_forms(a, b):
    # both read an, bn and den without building a Fraction
    x = EisensteinScalar(a, b)
    assert render_scalar(x) == _fraction_render(x)
    assert scalar_sort_key(x) == (x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator)


# ---------------------------------------------------------------------------
# LambdaPoly


def _rand_poly(rng, maxdeg=4, span=4):
    coeffs = [
        EisensteinScalar(rng.randint(-span, span), rng.randint(-1, 1))
        for _ in range(rng.randint(0, maxdeg))
    ]
    return LambdaPoly(coeffs)


def test_lambda_poly_basics():
    p = LambdaPoly([1, 0, 1])  # 1 + lambda^2
    assert p.degree == 2
    assert p.evaluate(EisensteinScalar(2)) == EisensteinScalar(5)
    assert p.evaluate(2) == p.evaluate(Fraction(4, 2)) == EisensteinScalar(5)
    assert LambdaPoly([]).is_zero()
    assert LambdaPoly([0, 0]).is_zero()
    assert LambdaPoly([3]).is_constant()
    assert derivative(p) == LambdaPoly([0, 2])


_coefficients = st.one_of(
    st.sampled_from([ZERO, ONE, RHO, -RHO * RHO]),
    st.builds(EisensteinScalar, _fractions, _fractions),
)
_values = st.builds(
    EisensteinScalar,
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)),
)


@settings(max_examples=200)
@given(st.lists(_coefficients, max_size=13).map(LambdaPoly), _values)
def test_evaluate_matches_horner_on_scalars(p, value):
    # the zero polynomial, constants and degrees up to 12, at 0 and at value
    for at in (ZERO, value):
        assert p.evaluate(at) == evaluate(p, at)


def test_specialized_sextic_matches_horner_on_scalars():
    # every coefficient of the sextic family at every admissible lambda
    family = bl2_sextic()
    for lam in admissible_lambdas():
        want = {e: c for e, coeff in family.terms.items() if (c := evaluate(coeff, lam))}
        got = family.specialize_lambda(lam).terms
        assert {e: c.coeffs for e, c in got.items()} == {e: (c,) for e, c in want.items()}


def test_lambda_poly_ring_random():
    rng = random.Random(104)
    for _ in range(200):
        p, q, r = (_rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()
        assert conjugate(p * q) == conjugate(p) * conjugate(q)
        # product rule
        assert derivative(p * q) == derivative(p) * q + p * derivative(q)


def test_lambda_poly_divmod():
    rng = random.Random(105)
    for _ in range(200):
        p = _rand_poly(rng, maxdeg=6)
        d = _rand_poly(rng, maxdeg=3)
        if d.is_zero():
            continue
        q, r = p.divmod(d)
        assert q * d + r == p
        assert r.is_zero() or r.degree < d.degree


def test_lambda_poly_gcd():
    lam = LambdaPoly([0, 1])
    one = LambdaPoly([1])
    a = lam - one
    b = lam - LambdaPoly([EisensteinScalar(2)])
    g = (a * b).gcd(a * a)
    # gcd is monic
    assert g == a
    assert (a * b).gcd(b) == b
    assert a.gcd(LambdaPoly([])) == a
    assert one.gcd(a * b) == one


def test_render_lambda_poly():
    assert render_lambda_poly(LambdaPoly([])) == "0"
    assert render_lambda_poly(LambdaPoly([1])) == "1"
    assert render_lambda_poly(LambdaPoly([0, 1])) == "lambda"
    assert render_lambda_poly(LambdaPoly([1, -2, 1])) == "1 - 2*lambda + lambda^2"
    two_part = LambdaPoly([EisensteinScalar(1, 1), EisensteinScalar(0, -1)])
    assert render_lambda_poly(two_part) == "1 + rho - rho*lambda"


# ---------------------------------------------------------------------------
# root search


def _linear(root):
    return LambdaPoly([-root, ONE])


def test_lambda_roots_linear_and_quadratic():
    r = lambda_roots(_linear(EisensteinScalar(Fraction(5, 3))))
    assert r.complete and list(r.values) == [EisensteinScalar(Fraction(5, 3))]
    # lambda^2 + lambda + 1 has the two primitive cube roots of unity
    p = LambdaPoly([1, 1, 1])
    r = lambda_roots(p)
    assert r.complete
    assert set(list(r.values)) == {RHO, RHO * RHO}


def test_lambda_roots_multiplicity():
    two = EisensteinScalar(2)
    p = _linear(two) * _linear(two) * _linear(RHO)
    r = lambda_roots(p)
    assert r.complete
    assert sorted(r.roots, key=lambda t: scalar_sort_key(t[0])) == sorted(
        [(two, 2), (RHO, 1)], key=lambda t: scalar_sort_key(t[0])
    )


def test_lambda_roots_cubic_with_cyclotomic_factor():
    # lambda^3 - 1 = (lambda - 1)(lambda^2 + lambda + 1)
    p = LambdaPoly([-1, 0, 0, 1])
    r = lambda_roots(p)
    assert r.complete
    assert set(list(r.values)) == {ONE, RHO, RHO * RHO}


def test_lambda_roots_proves_quadratic_emptiness():
    # lambda^2 - 2 has no Eisenstein-rational roots; degree 2 is decided
    # exactly, so the empty answer is complete
    p = LambdaPoly([-2, 0, 1])
    r = lambda_roots(p)
    assert list(r.values) == []
    assert r.unresolved == () and r.complete


def test_lambda_roots_honest_about_hard_quintic():
    # lambda^5 - lambda - 1 is irreducible with no quadratic factors over
    # Q(rho); the search must admit incompleteness, not report "no roots"
    p = LambdaPoly([-1, -1, 0, 0, 0, 1])
    r = lambda_roots(p)
    assert list(r.values) == []
    assert not r.complete
    assert [u.degree for u in r.unresolved] == [5]


def test_lambda_roots_scaled_and_shifted():
    rng = random.Random(106)
    for _ in range(40):
        roots = [
            EisensteinScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        p = LambdaPoly([rng.randint(1, 5)])
        for root in roots:
            p = p * _linear(root)
        r = lambda_roots(p)
        assert r.complete
        assert sorted(list(r.values), key=scalar_sort_key) == sorted(
            set(roots), key=scalar_sort_key
        )
        total = sum(m for _, m in r.roots)
        assert total == len(roots)


def test_lambda_roots_strips_lambda_power():
    p = LambdaPoly([0, 0, -1, 1])  # lambda^2 (lambda - 1)
    r = lambda_roots(p)
    assert r.complete
    assert dict(r.roots) == {ZERO: 2, ONE: 1}


def test_lambda_roots_quadratic_eisenstein_pair():
    # roots rho and 1 + rho are conjugate-free: the quadratic stays
    # irreducible over Q but splits over Q(rho)
    p = _linear(RHO) * _linear(ONE + RHO)
    r = lambda_roots(p)
    assert r.complete
    assert set(list(r.values)) == {RHO, ONE + RHO}
