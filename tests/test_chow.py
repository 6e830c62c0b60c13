import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from plucker_lab import chow
from plucker_lab.chow import (
    EULER_ABELIAN_SURFACE,
    EULER_P1,
    ChowClass,
    chern_twist,
    chow_mul,
    incidence_numerology,
    multiplicity_bound,
    pencil_singular_count,
)


def _rand_class(rng, d=3, span=6):
    grid = tuple(
        tuple(rng.randint(-span, span) for _ in range(3)) for _ in range(3)
    )
    return ChowClass(grid, d)


def test_generators_and_truncation():
    l = ChowClass.l(3)
    h = ChowClass.h(3)
    l2 = chow_mul(l, l)
    assert l2.coefficient(2, 0) == 1
    assert chow_mul(l2, l).is_zero()  # l^3 = 0 on a surface
    h2 = chow_mul(h, h)
    assert chow_mul(h2, h).is_zero()  # h^3 = 0 on the plane
    top = chow_mul(l2, h2)
    assert top.degree() == 2 * 3


def test_ring_axioms_random():
    rng = random.Random(301)
    one = ChowClass.one(3)
    for _ in range(120):
        a, b, c = (_rand_class(rng) for _ in range(3))
        assert chow_mul(a, b) == chow_mul(b, a)
        assert chow_mul(chow_mul(a, b), c) == chow_mul(a, chow_mul(b, c))
        assert chow_mul(a, b + c) == chow_mul(a, b) + chow_mul(a, c)
        assert chow_mul(a, one) == a
        assert a + b - b == a
        assert (a - a).is_zero()


def test_non_integral_coefficients_rejected():
    # int() would truncate 1/2 and 2.7 to 0 and 2
    grid = ((Fraction(1, 2), 0, 0), (0, 2.7, 0), (0, 0, 1))
    with pytest.raises(ValueError) as err:
        ChowClass(grid, 3)
    assert str(err.value) == "coefficient of l^0 h^0 is not an integer: Fraction(1, 2)"
    for bad in (2.7, 2.0, Fraction(2), "2"):
        with pytest.raises(ValueError) as err:
            ChowClass(((1, 0, 0), (0, bad, 0), (0, 0, 1)), 3)
        assert str(err.value) == "coefficient of l^1 h^1 is not an integer: %r" % (bad,)
    # bool and other int subtypes are integers
    assert str(ChowClass(((1, 0, 0), (0, 2, 0), (0, 0, True)), 3)) == "1 + 2*l*h + l^2*h^2"


def test_arithmetic_results_match_the_public_constructor():
    # sums, negations, int multiples and products skip the constructor's
    # checks; they must still be the classes it would build
    rng = random.Random(17)
    for _ in range(40):
        a, b = _rand_class(rng), _rand_class(rng)
        for r in (a + b, -a, a - b, 3 * a, a * -2, True * a, chow_mul(a, b), a * b):
            built = ChowClass(r.coeffs, r.d)
            assert r == built and hash(r) == hash(built) and repr(r) == repr(built)
            assert type(r.coeffs) is tuple and len(r.coeffs) == 3
            assert all(type(row) is tuple and len(row) == 3 for row in r.coeffs)
            assert all(type(v) is int for row in r.coeffs for v in row)


def test_mixed_degree_rejected():
    with pytest.raises(ValueError):
        chow_mul(ChowClass.l(2), ChowClass.l(3))


def test_int_scaling():
    a = ChowClass.l(3)
    assert 3 * a == a + a + a
    assert a * 3 == 3 * a


def test_chern_twist_inverts():
    rng = random.Random(302)
    for _ in range(60):
        c1, c2, c3, m = (_rand_class(rng) for _ in range(4))
        t1, t2, t3 = chern_twist(c1, c2, c3, m)
        u1, u2, u3 = chern_twist(t1, t2, t3, -m)
        assert (u1, u2, u3) == (c1, c2, c3)


def test_chern_twist_known_rank3_case():
    # twisting the trivial rank-3 bundle by m gives (3m, 3m^2, m^3)
    d = 3
    z = ChowClass.zero(d)
    m = ChowClass.l(d) + ChowClass.h(d)
    t1, t2, t3 = chern_twist(z, z, z, m)
    assert t1 == 3 * m
    assert t2 == 3 * chow_mul(m, m)
    assert t3 == chow_mul(m, chow_mul(m, m))


def test_incidence_numerology_d3():
    data = incidence_numerology(3)
    gamma = data["gamma"]
    assert gamma.coefficient(2, 1) == 3 and gamma.coefficient(1, 2) == 3
    assert data["omega_dot_gamma"].coefficient(2, 2) == -9
    assert data["normal_dot_gamma"].coefficient(2, 2) == 18
    assert data["deg_omega_dot_gamma"] == -54
    assert data["deg_normal_dot_gamma"] == 108
    assert data["deg_omega"] == 54
    assert data["pa"] == 28


def test_incidence_genus_formula():
    # pa = 9d + 1 and deg_omega = 18d across small degrees
    for d in range(1, 8):
        data = incidence_numerology(d)
        assert data["pa"] == 9 * d + 1
        assert data["deg_omega"] == 18 * d
    with pytest.raises(ValueError):
        incidence_numerology(0)


def _numerology_oracle(d):
    """The incidence numerology computed in full at degree d: the twist
    with every class carrying d, as incidence_numerology once did on
    every call."""
    l, h = ChowClass.l(d), ChowClass.h(d)
    c1e, c2e, gamma = chern_twist(3 * l, 3 * chow_mul(l, l), ChowClass.zero(d), h)
    omega_dot_gamma = chow_mul(-3 * h, gamma)
    normal_dot_gamma = chow_mul(c1e, gamma)
    deg_omega = omega_dot_gamma.degree() + normal_dot_gamma.degree()
    return {
        "d": d,
        "c1_E": c1e,
        "c2_E": c2e,
        "gamma": gamma,
        "omega_dot_gamma": omega_dot_gamma,
        "normal_dot_gamma": normal_dot_gamma,
        "deg_omega_dot_gamma": omega_dot_gamma.degree(),
        "deg_normal_dot_gamma": normal_dot_gamma.degree(),
        "deg_omega": deg_omega,
        "pa": deg_omega // 2 + 1,
    }


def test_incidence_numerology_matches_the_full_twist_at_every_degree():
    for d in range(1, 101):
        got, want = incidence_numerology(d), _numerology_oracle(d)
        assert got == want
        assert all(type(got[k]) is type(want[k]) for k in want)
        assert all(got[k].d == d for k in want if isinstance(want[k], ChowClass))
        assert got["pa"] == 9 * d + 1 and got["deg_omega"] == 18 * d


def test_incidence_numerology_returns_a_fresh_dict():
    first = incidence_numerology(4)
    assert incidence_numerology(4) is not first
    first["pa"] = -1
    first["gamma"] = ChowClass.zero(4)
    del first["c1_E"]
    assert incidence_numerology(4) == _numerology_oracle(4)


@pytest.mark.parametrize("d", [0, -1])
def test_incidence_numerology_rejects_degrees_below_one(d):
    with pytest.raises(ValueError, match=r"^polarization degree must be >= 1$"):
        incidence_numerology(d)


def test_the_twist_runs_once_per_process(monkeypatch):
    calls = []

    def counting_mul(x, y):
        calls.append(1)
        return chow_mul(x, y)

    monkeypatch.setattr(chow, "chow_mul", counting_mul)
    chow._incidence_grids.cache_clear()
    for d in range(1, 101):
        incidence_numerology(d)
    once = len(calls)
    assert once > 0
    for d in range(1, 101):
        incidence_numerology(d)
    assert len(calls) == once
    chow._incidence_grids.cache_clear()
    incidence_numerology(7)
    assert len(calls) == 2 * once
    # a cache filled through the counter holds the same grids
    assert incidence_numerology(7) == _numerology_oracle(7)


def test_pencil_singular_count():
    assert EULER_ABELIAN_SURFACE == 0 and EULER_P1 == 2
    assert pencil_singular_count(3) == 18
    assert [pencil_singular_count(d) for d in (2, 3, 4, 5)] == [12, 18, 24, 30]
    with pytest.raises(ValueError):
        pencil_singular_count(1)


def test_multiplicity_bound_values():
    assert multiplicity_bound(3) == 2
    assert [multiplicity_bound(n) for n in (1, 2, 3, 4, 6, 7, 10, 11)] == [
        1,
        2,
        2,
        3,
        3,
        4,
        4,
        5,
    ]
    with pytest.raises(ValueError):
        multiplicity_bound(0)


def test_multiplicity_bound_bracket():
    # the bound m is the largest integer with m(m-1)/2 <= n - 1
    for n in range(1, 400):
        m = multiplicity_bound(n)
        assert m * (m - 1) <= 2 * n - 2
        assert (m + 1) * m > 2 * n - 2


def test_str_rendering():
    a = ChowClass.l(3) + 2 * chow_mul(ChowClass.h(3), ChowClass.h(3))
    s = str(a)
    assert "l" in s and "h^2" in s
    assert str(ChowClass.zero(3)) == "0"


def _monomials(c):
    """A class as {(a, b): coefficient} over its nonzero entries."""
    return {(a, b): v for a, row in enumerate(c.coeffs) for b, v in enumerate(row) if v}


def _naive_mul(x, y):
    """The product on dicts of monomials, truncated after the fact."""
    out = {}
    for (a1, b1), u in _monomials(x).items():
        for (a2, b2), v in _monomials(y).items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + u * v
    return {(a, b): v for (a, b), v in out.items() if a < 3 and b < 3 and v}


_entry = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-10**30, 10**30))
_grid = st.tuples(*[st.tuples(_entry, _entry, _entry)] * 3)


@given(x=_grid, y=_grid, d=st.integers(1, 50))
def test_chow_mul_matches_the_monomial_dict_product(x, y, d):
    a, b = ChowClass(x, d), ChowClass(y, d)
    prod = chow_mul(a, b)
    assert _monomials(prod) == _naive_mul(a, b)
    assert prod == ChowClass(prod.coeffs, d) and prod.d == d
