from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import obstruction_oracle
from plucker_lab import _zrho
from plucker_lab import heisenberg as hb
from plucker_lab.scalars import ONE, RHO, ZERO, EisensteinScalar, LambdaPoly, lambda_roots
from plucker_lab.polynomials import (
    X_VARS,
    MultiPoly,
    bl2_sextic,
    parse_poly,
    quadratic_map,
)
from plucker_lab.curve import ProjectivePoint, det3
from plucker_lab.heisenberg import (
    ORDER3_ORBIT_REPRESENTATIVES,
    ProjectiveTransform,
    curve_orbit_obstruction,
    enumerate_group,
    fixed_locus,
    iota,
    orbit,
    sigma,
    tau,
)
from dual_oracle import proportional

RHO2 = RHO * RHO


def P(*coords):
    return ProjectivePoint(coords)


# ---------------------------------------------------------------------------
# transforms


def test_transform_normalization_and_equality():
    g = ProjectiveTransform([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert g == ProjectiveTransform.identity()
    assert g.is_identity()
    h = ProjectiveTransform([[0, 3, 0], [0, 0, 3], [3, 0, 0]])
    assert h == sigma()
    assert hash(h) == hash(sigma())


def test_transform_rejects_singular():
    with pytest.raises(ValueError):
        ProjectiveTransform([[1, 0, 0], [1, 0, 0], [0, 0, 1]])


def test_transform_immutable():
    g = sigma()
    with pytest.raises(AttributeError):
        g.rows = ()


def test_inverse_and_product():
    for g in [sigma(), tau(), iota(), sigma() * tau() * iota()]:
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_generator_relations():
    s, t, i = sigma(), tau(), iota()
    assert (s * s * s).is_identity()
    assert (t * t * t).is_identity()
    assert (i * i).is_identity()
    # the translation subgroup is abelian projectively
    assert s * t == t * s
    # conjugation by the involution inverts both translations
    assert i * s * i == s * s
    assert i * t * i == t * t


_entries = st.builds(
    EisensteinScalar,
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)
_matrices = st.lists(st.lists(_entries, min_size=3, max_size=3), min_size=3, max_size=3)


def _cofactor_det(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


@settings(max_examples=150, deadline=None)
@given(m=_matrices)
@example(m=[[1, 2, 3], [2, 4, 6], [0, 0, 1]])
def test_det3_and_the_inverse_on_random_matrices(m):
    assert det3(m) == _cofactor_det(m)
    if not _cofactor_det(m):
        with pytest.raises(ValueError):
            ProjectiveTransform(m)
        return
    g = ProjectiveTransform(m)
    assert (g.inverse() * g).is_identity()
    assert (g * g.inverse()).is_identity()


def test_apply():
    assert sigma().apply(P(1, 0, 0)) == P(0, 0, 1)
    assert tau().apply(P(1, 1, 1)) == P(1, RHO, RHO2)
    assert iota().apply(P(1, 2, 3)) == P(1, 3, 2)


def _same_point(q, want):
    """q equals want field by field: the same normalized ints and hash."""
    assert [(c.an, c.bn, c.den) for c in q.coords] == [(c.an, c.bn, c.den) for c in want.coords]
    assert q == want and hash(q) == hash(want)


_APPLY_POINTS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, RHO), (1, 1, RHO2), (0, 1, -1),
    (1, -RHO, 0), (Fraction(1, 2), 3, -1), (0, Fraction(-2, 3), 1 + RHO), (Fraction(5, 7) * RHO, 0, 4),
]


def test_apply_matches_the_object_path_on_the_group():
    for g in enumerate_group():
        for coords in _APPLY_POINTS:
            _same_point(g.apply(coords), obstruction_oracle.apply(g, P(*coords)))


@settings(max_examples=150, deadline=None)
@given(m=_matrices, coords=st.tuples(_entries, _entries, _entries).filter(any))
@example(m=[[0, 0, Fraction(1, 2)], [0, RHO, 0], [Fraction(3, 2), 0, 0]], coords=(0, 0, Fraction(1, 3)))
def test_apply_matches_the_object_path_on_random_matrices(m, coords):
    if not _cofactor_det(m):
        return
    g = ProjectiveTransform(m)
    _same_point(g.apply(coords), obstruction_oracle.apply(g, P(*coords)))


# ---------------------------------------------------------------------------
# the group


def test_group_order_18():
    group = enumerate_group()
    assert len(group) == 18
    assert len(set(group)) == 18


def test_group_closure_and_inverses():
    group = set(enumerate_group())
    for g in group:
        assert g.inverse() in group
        for h in group:
            assert g * h in group


def test_element_orders():
    orders = sorted(g.order() for g in enumerate_group())
    assert set(orders) == {1, 2, 3}
    assert orders.count(1) == 1
    # nine involutions (the iota coset), eight order-3 elements
    assert orders.count(2) == 9
    assert orders.count(3) == 8


def test_group_enumeration_is_deterministic():
    first = enumerate_group()
    hb._group.cache_clear()
    second = enumerate_group()
    assert first == second


# ---------------------------------------------------------------------------
# orbits


def test_orbit_generic_point():
    assert orbit(P(1, 2, 3)).size == 18


def test_orbit_on_fixed_line():
    # x0 = x1 is fixed by iota composed with sigma; orbit halves
    assert orbit(P(1, 1, 2)).size == 9


def test_orbits_of_size_three():
    table = {
        P(1, 0, 0): {P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)},
        P(1, 1, 1): {P(1, 1, 1), P(1, RHO, RHO2), P(1, RHO2, RHO)},
        P(ONE, ONE, RHO): {P(ONE, ONE, RHO), P(ONE, RHO, ONE), P(RHO, ONE, ONE)},
        P(ONE, ONE, RHO2): {P(ONE, ONE, RHO2), P(ONE, RHO2, ONE), P(RHO2, ONE, ONE)},
    }
    for rep, expect in table.items():
        ob = orbit(rep)
        assert ob.size == 3
        assert set(ob.points) == expect


def test_orbit_membership():
    ob = orbit(P(1, 0, 0))
    assert P(0, 1, 0) in ob
    assert P(1, 1, 1) not in ob


# ---------------------------------------------------------------------------
# fixed locus


def test_fixed_locus_counts():
    fl = fixed_locus()
    assert len(fl.lines) == 9
    assert len(fl.points) == 9
    assert len(fl.triple_points) == 12


def test_fixed_points_are_the_y_points():
    fl = fixed_locus()
    expect = set()
    for i, r in enumerate([ONE, RHO, RHO2]):
        expect.add(P(ONE, -r, ZERO))
        expect.add(P(ZERO, ONE, -r))
        expect.add(P(-r, ZERO, ONE))
    assert set(fl.points) == expect


def test_triple_points_lie_on_three_lines():
    fl = fixed_locus()
    for p in fl.triple_points:
        hits = sum(
            1 for form in fl.lines if form.evaluate(p.coords).is_zero()
        )
        assert hits == 3


def test_triple_points_partition_into_small_orbits():
    fl = fixed_locus()
    seen = set()
    for rep in ORDER3_ORBIT_REPRESENTATIVES:
        pts = set(orbit(rep).points)
        assert pts <= set(fl.triple_points)
        assert not (pts & seen)
        seen |= pts
    assert seen == set(fl.triple_points)


def test_y_points_have_orbit_size_nine():
    fl = fixed_locus()
    for p in fl.points:
        assert orbit(p).size == 9


# ---------------------------------------------------------------------------
# action on curves


def test_act_on_poly_contravariant():
    c = parse_poly("x0^2*x1 + x2^3", X_VARS)
    g, h = sigma(), tau()
    lhs = (g * h).act_on_poly(c)
    rhs = g.act_on_poly(h.act_on_poly(c))
    assert proportional(lhs, rhs)


def test_act_on_poly_moves_zero_sets():
    # the line x0 = 0 maps to the line cut out by the pulled-back form
    g = sigma()
    c = parse_poly("x0", X_VARS)
    moved = g.act_on_poly(c)
    for p in [P(0, 1, 5), P(0, 1, 0)]:
        assert moved.evaluate(g.apply(p).coords).is_zero()


def test_act_on_poly_rejects_wrong_arity():
    g = sigma()
    with pytest.raises(ValueError):
        g.act_on_poly(parse_poly("y0 + y1", ("y0", "y1")))


def test_composed_sextic_is_invariant():
    c = bl2_sextic().substitute(quadratic_map())
    for g in enumerate_group():
        assert proportional(g.act_on_poly(c), c)


# ---------------------------------------------------------------------------
# orbit obstructions


def test_obstruction_simple_line():
    # x0 vanishes at two of the three coordinate points, not all three
    out = curve_orbit_obstruction(parse_poly("x0", X_VARS))
    gcd = out[P(1, 0, 0)]
    assert gcd.degree == 0 and not gcd.is_zero()


def test_obstruction_coordinate_triangle():
    # x0*x1*x2 contains the coordinate-point orbit identically
    out = curve_orbit_obstruction(parse_poly("x0*x1*x2", X_VARS))
    assert out[P(1, 0, 0)].is_zero()
    assert not out[P(1, 1, 1)].is_zero()


def test_obstruction_validates_input():
    with pytest.raises(ValueError):
        curve_orbit_obstruction(parse_poly("x0^2 + x1", X_VARS))
    with pytest.raises(ValueError):
        curve_orbit_obstruction(parse_poly("y0 + y1", ("y0", "y1")))


def test_composed_sextic_obstructions():
    out = curve_orbit_obstruction(bl2_sextic(), use_quadratic_map=True)
    base = out[P(1, 0, 0)]
    assert base.degree == 0 and not base.is_zero()
    # the other three orbits each pin lambda to one cube root of unity
    roots = set()
    for rep in ORDER3_ORBIT_REPRESENTATIVES[1:]:
        search = lambda_roots(out[rep])
        assert search.complete
        roots |= set(search.values)
    assert roots == {ONE, RHO, RHO2}


# ---------------------------------------------------------------------------
# against the object path of tests/obstruction_oracle.py

_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_scalars = st.builds(EisensteinScalar, _fractions, _fractions)
_points = st.tuples(_scalars, _scalars, _scalars).filter(any)
# lambda-polynomials of degree <= 2
_lambda_polys = st.lists(_scalars, max_size=3).map(LambdaPoly)
# forms that vanish on the orbit of (1 : 0 : 0), and of (1 : 1 : 1)
_ORBIT_FORMS = (parse_poly("x0*x1*x2", X_VARS), parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2", X_VARS))


@st.composite
def _curves(draw):
    """Homogeneous curves of degree <= 4 with Q(rho) coefficients of
    lambda-degree <= 2; from degree 3 on, some are P(lambda)*A + V*M with V
    one of _ORBIT_FORMS, so that an orbit carries the obstruction P."""
    d = draw(st.integers(0, 4))
    monomials = [e for e in product(range(d + 1), repeat=3) if sum(e) == d]
    c = MultiPoly(X_VARS, draw(st.dictionaries(st.sampled_from(monomials), _lambda_polys, max_size=4)))
    if d >= 3 and draw(st.booleans()):
        rest = MultiPoly(X_VARS, {draw(st.sampled_from([e for e in product(range(d - 2), repeat=3)
                                                        if sum(e) == d - 3])): ONE})
        c = MultiPoly.constant(X_VARS, draw(_lambda_polys)) * c + draw(st.sampled_from(_ORBIT_FORMS)) * rest
    return c


@settings(max_examples=80, deadline=None)
@given(_curves(), st.booleans())
def test_obstructions_match_the_object_path(c, use_quadratic_map):
    assert curve_orbit_obstruction(c, use_quadratic_map) == obstruction_oracle.curve_orbit_obstruction(
        c, use_quadratic_map
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(_points, st.sampled_from([(1, 1, RHO), (0, 1, -1), (1, 2, RHO), (Fraction(1, 2), 3, -1)])))
def test_orbit_closure_matches_the_group_images(coords):
    assert orbit(P(*coords)) == obstruction_oracle.orbit(P(*coords))


def test_orbits_and_obstructions_never_build_the_group(monkeypatch):
    c = bl2_sextic()
    want = obstruction_oracle.curve_orbit_obstruction(c, use_quadratic_map=True)
    orbits = [obstruction_oracle.orbit(p) for p in (P(1, 2, 3), P(1, 1, 2), P(1, 0, 0))]

    def built():
        raise AssertionError("the group was built")

    monkeypatch.setattr(hb, "enumerate_group", built)
    monkeypatch.setattr(hb, "_group", built)
    assert curve_orbit_obstruction(c, use_quadratic_map=True) == want
    assert [orbit(ob.points[-1]) for ob in orbits] == orbits


def test_family_obstructions_are_tenth_powers_solved_in_closed_form(monkeypatch):
    def search(cs, is_root):
        raise AssertionError("p-adic search on %r" % (cs,))

    monkeypatch.setattr(_zrho, "roots", search)
    out = curve_orbit_obstruction(bl2_sextic(), use_quadratic_map=True)
    roots = []
    for rep in ORDER3_ORBIT_REPRESENTATIVES[1:]:
        search = lambda_roots(out[rep])
        assert search.complete and len(search.roots) == 1 and search.roots[0][1] == 10
        roots.append(search.roots[0][0])
    assert sorted(roots, key=str) == sorted([ONE, RHO, RHO2], key=str)
