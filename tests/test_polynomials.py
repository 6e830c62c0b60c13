import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from plucker_lab import _zrho
from plucker_lab.curve import PlaneCurve, singular_locus
from plucker_lab.scalars import ONE, RHO, ZERO, EisensteinScalar, LambdaPoly, render_lambda_poly
from plucker_lab.polynomials import (
    SEXTIC_NOTE,
    X_VARS,
    Y_VARS,
    MultiPoly,
    PolyParseError,
    bl2_sextic,
    mv_gcd,
    normalize_leading,
    parse_poly,
    parse_scalar,
    quadratic_map,
    render_poly,
    resultant,
)
import parse_oracle
import render_oracle
from dual_oracle import proportional
from resultant_oracle import bareiss_determinant, reference_resultant, sylvester_matrix

XY = ("x", "y")


def _rand_poly(rng, variables=XY, terms=4, maxdeg=3, span=4, with_rho=False):
    p = MultiPoly.zero(variables)
    for _ in range(rng.randint(1, terms)):
        exp = tuple(rng.randint(0, maxdeg) for _ in variables)
        a = rng.randint(-span, span)
        b = rng.randint(-1, 1) if with_rho else 0
        term = MultiPoly.constant(variables, EisensteinScalar(a, b))
        for v, e in zip(variables, exp):
            term = term * MultiPoly.variable(variables, v) ** e
        p = p + term
    return p


# ---------------------------------------------------------------------------
# parsing and rendering


def test_parse_basics():
    p = parse_poly("x^2 + 2*x*y - 3", XY)
    assert p.degree_in("x") == 2 and p.total_degree() == 2
    assert p.evaluate([1, 1]) == LambdaPoly([0])
    assert p.evaluate([2, 3]) == LambdaPoly([13])


def test_parse_precedence_and_unary():
    assert parse_poly("-x^2", XY) == -(parse_poly("x", XY) ** 2)
    assert parse_poly("2*x + 3*y", XY) == parse_poly("3*y + 2*x", XY)
    assert parse_poly("(x + y)^2", XY) == parse_poly("x^2 + 2*x*y + y^2", XY)
    assert parse_poly("x - y - y", XY) == parse_poly("x - 2*y", XY)


def test_parse_rho_and_lambda_coefficients():
    p = parse_poly("rho*x + lambda*y", XY)
    cx = p.coefficients_in("x")[1].constant_coefficient()
    assert cx == LambdaPoly([RHO])
    cy = p.coefficients_in("y")[1].constant_coefficient()
    assert cy == LambdaPoly([0, 1])
    assert not p.lambda_free()
    assert parse_poly("x", XY).lambda_free()


def test_parse_division_by_constants_only():
    p = parse_poly("x/2 + y/3", XY)
    assert p.scale(6) == parse_poly("3*x + 2*y", XY)
    with pytest.raises(PolyParseError):
        parse_poly("x / y", XY)
    with pytest.raises(PolyParseError):
        parse_poly("x / 0", XY)
    with pytest.raises(PolyParseError):
        parse_poly("x / lambda", XY)


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x0 + + x1", X_VARS)
    assert err.value.position == 5
    with pytest.raises(PolyParseError):
        parse_poly("x0 + zz", X_VARS)
    with pytest.raises(PolyParseError):
        parse_poly("(x0 + x1", X_VARS)
    with pytest.raises(PolyParseError):
        parse_poly("", X_VARS)


_leaves = st.sampled_from(["0", "1", "2", "7", "12", "rho", "lambda", "x", "y"])


def _compound(inner):
    return st.one_of(
        st.builds("({})".format, inner),
        st.builds("{} + {}".format, inner, inner),
        st.builds("{} - {}".format, inner, inner),
        st.builds("{}*{}".format, inner, inner),
        st.builds("{}/{}".format, inner, inner),
        st.builds("-{}".format, inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
    )


_texts = st.recursive(_leaves, _compound, max_leaves=8)


def _parse_both(text):
    """(poly, rendering) or (error message, offset) from each parser."""
    out = []
    for parse in (parse_poly, parse_oracle.parse_poly):
        try:
            p = parse(text, XY)
            out.append((p, render_poly(p)))
        except PolyParseError as e:
            out.append((str(e), e.position))
    return out


@settings(max_examples=300, deadline=None)
@given(text=_texts)
@example(text="x/(y*lambda)")
@example(text="x/(lambda + y)")
@example(text="x/(lambda - lambda)")
@example(text="-(x + 2*rho)^3/(7 - lambda*0)")
def test_parser_matches_the_multipoly_oracle(text):
    got, want = _parse_both(text)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(text=_texts, data=st.data())
def test_malformed_text_gives_the_oracle_error(text, data):
    at = data.draw(st.integers(0, len(text)))
    if data.draw(st.booleans()) and at < len(text):
        text = text[:at] + text[at + 1 :]
    else:
        text = text[:at] + data.draw(st.sampled_from("()^*/+-#.z 0")) + text[at:]
    got, want = _parse_both(text)
    assert got == want


def test_reserved_variable_names_rejected():
    with pytest.raises(ValueError):
        MultiPoly.zero(("rho", "x"))
    with pytest.raises(ValueError):
        MultiPoly.zero(("lambda", "x"))


@pytest.mark.parametrize(
    "variables, message",
    [
        (("a", "a", "c"), "duplicate variable names"),
        (("rho", "b", "c"), "variable name 'rho' is reserved"),
        (("x", "lambda"), "variable name 'lambda' is reserved"),
    ],
)
def test_parse_poly_checks_variable_names_as_multipoly_does(variables, message):
    for build in (MultiPoly.zero, lambda vs: parse_poly("1", vs)):
        with pytest.raises(ValueError) as info:
            build(variables)
        assert str(info.value) == message


def test_render_parse_round_trip():
    rng = random.Random(201)
    for _ in range(120):
        p = _rand_poly(rng, with_rho=True)
        text = render_poly(p)
        assert parse_poly(text, XY) == p


_lambda_coeffs = st.lists(
    st.builds(
        EisensteinScalar,
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    ),
    min_size=1,
    max_size=4,
).map(LambdaPoly)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), _lambda_coeffs, max_size=5
    )
)
def test_render_parse_round_trip_with_lambda(terms):
    p = MultiPoly(XY, terms)
    assert parse_poly(render_poly(p), XY) == p


def test_render_poly_layout():
    assert render_poly(MultiPoly.zero(XY)) == "0"
    assert render_poly(parse_poly("x^2 - y", XY)) == "x^2 - y"
    assert render_poly(parse_poly("1 - x", XY)) == "-x + 1"
    assert render_poly(parse_poly("rho*x*y", XY)) == "rho*x*y"


# scalars of every rendering shape: units, negative, zero a, two-part, rational
_render_scalars = st.one_of(
    st.sampled_from([ONE, -ONE, RHO, -RHO, ONE + RHO, -ONE - RHO, ONE - RHO, RHO - ONE]),
    st.builds(
        EisensteinScalar,
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    ),
).filter(bool)
# one term c*lambda^k with k <= 3, or several powers with gaps
_render_coeffs = st.one_of(
    st.tuples(st.integers(0, 3), _render_scalars).map(lambda kc: LambdaPoly([ZERO] * kc[0] + [kc[1]])),
    st.lists(st.one_of(st.just(ZERO), _render_scalars), min_size=2, max_size=4).map(LambdaPoly),
).filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    terms=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), _render_coeffs, max_size=5
    )
)
@example(terms={(0, 0): LambdaPoly([RHO - ONE]), (1, 0): LambdaPoly([ZERO, ZERO, -ONE - RHO])})
@example(terms={(0, 0): LambdaPoly([ONE + RHO, ZERO, ZERO, -ONE])})
def test_render_matches_the_oracle(terms):
    p = MultiPoly(XY, terms)
    text = render_poly(p)
    assert text == render_oracle.render_poly(p)
    assert parse_poly(text, XY) == p
    for c in p.terms.values():
        assert render_lambda_poly(c) == render_oracle.render_lambda_poly(c)


def test_parse_scalar():
    assert parse_scalar("-1") == EisensteinScalar(-1)
    assert parse_scalar("1/2") == EisensteinScalar(Fraction(1, 2))
    assert parse_scalar("1 + 2*rho") == EisensteinScalar(1, 2)
    with pytest.raises(PolyParseError):
        parse_scalar("lambda")


# ---------------------------------------------------------------------------
# ring operations


def test_ring_axioms_random():
    rng = random.Random(202)
    for _ in range(80):
        p, q, r = (_rand_poly(rng, with_rho=True) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()


def test_evaluate_substitute_consistency():
    rng = random.Random(203)
    for _ in range(40):
        p = _rand_poly(rng)
        images = [_rand_poly(rng, terms=2, maxdeg=2) for _ in XY]
        point = [EisensteinScalar(rng.randint(-3, 3)) for _ in XY]
        direct = p.substitute(images).evaluate(point)
        values = [im.evaluate(point) for im in images]
        # images evaluate to constants here, so composition factors
        composed = p.evaluate([v.constant_value() for v in values])
        assert direct == composed


def test_partial_derivative_product_rule():
    rng = random.Random(204)
    for _ in range(60):
        p, q = _rand_poly(rng), _rand_poly(rng)
        for v in XY:
            lhs = (p * q).partial_derivative(v)
            rhs = p.partial_derivative(v) * q + p * q.partial_derivative(v)
            assert lhs == rhs


def test_specialize_lambda():
    p = parse_poly("lambda*x^2 + (1 - lambda)*y^2", XY)
    two = p.specialize_lambda(EisensteinScalar(2))
    assert two == parse_poly("2*x^2 - y^2", XY)
    assert two.lambda_free()


def test_exact_div_round_trip():
    rng = random.Random(205)
    done = 0
    while done < 60:
        p, q = _rand_poly(rng, with_rho=True), _rand_poly(rng, with_rho=True)
        if p.is_zero() or q.is_zero():
            continue
        prod = p * q
        assert prod.exact_div(q) == p
        assert q.divides(prod)
        done += 1
    assert not parse_poly("x", XY).divides(parse_poly("y", XY))
    with pytest.raises(ValueError):
        parse_poly("y", XY).exact_div(parse_poly("x", XY))


def test_exact_division_by_a_monomial():
    p = parse_poly("(1 + rho)*lambda^2*x^3*y - 3*lambda*x*y^2 + lambda^3*x*y", XY)
    d = parse_poly("(2 - rho)*lambda*x*y", XY)
    q = p.exact_div(d)
    assert q * d == p
    assert q == parse_poly("(1 + rho)/(2 - rho)*lambda*x^2 - 3/(2 - rho)*y + lambda^2/(2 - rho)", XY)
    assert d.divides(p)


def test_inexact_monomial_division_raises():
    with pytest.raises(ValueError):
        parse_poly("x^2 + y", XY).exact_div(parse_poly("x", XY))
    with pytest.raises(ValueError):  # the coefficient 1 is not a multiple of lambda
        parse_poly("lambda*x^2 + x", XY).exact_div(parse_poly("lambda*x", XY))
    assert not parse_poly("lambda*x", XY).divides(parse_poly("x^2", XY))


_small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _render_coeffs, min_size=1, max_size=3
).map(lambda terms: MultiPoly(XY, terms))
_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2), _render_coeffs).map(
    lambda t: MultiPoly(XY, {t[:2]: t[2]})
)


@settings(max_examples=150, deadline=None)
@given(p=_small_polys, q=st.one_of(_monomials, _small_polys), multiple=st.booleans())
def test_divides_agrees_with_multiplying_back(p, q, multiple):
    if multiple:
        p = p * q
    try:
        quotient = p.exact_div(q)
    except ValueError:
        quotient = None
    assert q.divides(p) == (quotient is not None)
    if quotient is not None:
        assert quotient * q == p
    assert q.divides(p * q) and (p * q).exact_div(q) == p


def test_homogeneous_and_euler_identity():
    p = parse_poly("x0^3 + x1^3 + x2^3 - 3*x0*x1*x2", X_VARS)
    assert p.is_homogeneous()
    euler = MultiPoly.zero(X_VARS)
    for v in X_VARS:
        euler = euler + MultiPoly.variable(X_VARS, v) * p.partial_derivative(v)
    assert euler == p.scale(3)
    assert not parse_poly("x0^2 + x1", X_VARS).is_homogeneous()


# ---------------------------------------------------------------------------
# resultants and determinants


def _univar(rng, var="x", deg=2, span=3):
    coeffs = [rng.randint(-span, span) for _ in range(deg)]
    coeffs.append(rng.choice([1, 2, -1]))  # nonzero leading coefficient
    p = MultiPoly.zero((var,))
    for i, c in enumerate(coeffs):
        p = p + MultiPoly.variable((var,), var) ** i * MultiPoly.constant((var,), c)
    return p


def test_resultant_known_quadratic():
    # res(x^2 + b x + c, 2x + b) = -(b^2 - 4c) up to the leading normalization
    v = ("x",)
    p = parse_poly("x^2 + 3*x + 1", v)
    d = parse_poly("2*x + 3", v)
    r = resultant(p, d, "x")
    assert r.is_constant()
    assert r.constant_coefficient() == LambdaPoly([-5])


def test_resultant_vanishes_iff_common_root():
    v = ("x",)
    p = parse_poly("(x - 2)*(x + 1)", v)
    q = parse_poly("(x - 2)*(x - 5)", v)
    assert resultant(p, q, "x").is_zero()
    q2 = parse_poly("(x - 3)*(x - 5)", v)
    assert not resultant(p, q2, "x").is_zero()


def test_resultant_bivariate_elimination():
    # eliminating y from the circle and a line leaves the intersection
    # abscissas
    v = ("x", "y")
    circle = parse_poly("x^2 + y^2 - 1", v)
    line = parse_poly("y - x", v)
    r = resultant(circle, line, "y")
    assert r == parse_poly("2*x^2 - 1", v)


def test_bareiss_determinant_matches_cofactors():
    rng = random.Random(206)
    v = ("t",)
    for _ in range(40):
        n = rng.randint(2, 4)
        mat = [
            [MultiPoly.constant(v, rng.randint(-5, 5)) for _ in range(n)]
            for _ in range(n)
        ]

        def cof_det(m):
            if len(m) == 1:
                return m[0][0]
            acc = MultiPoly.zero(v)
            for j in range(len(m)):
                minor = [row[:j] + row[j + 1 :] for row in m[1:]]
                term = m[0][j] * cof_det(minor)
                acc = acc + term if j % 2 == 0 else acc - term
            return acc

        assert bareiss_determinant(mat, v) == cof_det(mat)


def test_bareiss_handles_zero_pivot():
    v = ("t",)
    z = MultiPoly.zero(v)
    one = MultiPoly.constant(v, 1)
    two = MultiPoly.constant(v, 2)
    # leading entry zero forces a row swap and a sign flip
    det = bareiss_determinant([[z, one], [two, z]], v)
    assert det == MultiPoly.constant(v, -2)
    # a zero column means determinant zero
    det0 = bareiss_determinant([[z, one], [z, two]], v)
    assert det0.is_zero()


# ---------------------------------------------------------------------------
# the Z[rho] kernel for chart resultants, against the MultiPoly reference
# of resultant_oracle and against sympy


def test_resultant_takes_only_chart_inputs():
    line = parse_poly("x2 - x1 + 1", X_VARS)
    with pytest.raises(ValueError, match="lambda"):
        resultant(parse_poly("x2^2 - lambda*x1", X_VARS), line, "x2")
    with pytest.raises(ValueError, match="lambda"):
        resultant(line, parse_poly("x2^2 - lambda", X_VARS), "x2")
    with pytest.raises(ValueError, match="got x0, x1$"):
        resultant(parse_poly("x2^2 - x0*x1", X_VARS), line, "x2")
    with pytest.raises(ValueError, match="got x0, x1$"):
        resultant(parse_poly("x2^2 - x0", X_VARS), line, "x2")
    # one live variable besides x2, or none, is a chart elimination
    chart = parse_poly("x1^2*x2^2 - 3/2*x1 + rho*x2", X_VARS)
    assert resultant(chart, line, "x2") == reference_resultant(chart, line, "x2")
    const = parse_poly("x2^3 - 2", X_VARS)
    assert resultant(const, parse_poly("x2", X_VARS), "x2").is_constant()


# (exponent of x1, exponent of x2) -> coefficient; x0 stays absent, as in a
# chart x0 = 1
_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
_coeffs = st.builds(EisensteinScalar, _fractions, _fractions).filter(bool)


def _chart_polys(max_x1=2, max_x2=3):
    exps = st.tuples(st.integers(0, max_x1), st.integers(0, max_x2))
    return st.dictionaries(exps, _coeffs, min_size=1, max_size=5).map(
        lambda t: MultiPoly(X_VARS, {(0, a, b): c for (a, b), c in t.items()})
    ).filter(lambda p: p.degree_in("x2") >= 1)


@settings(max_examples=60, deadline=None)
@given(p=_chart_polys(), q=_chart_polys())
def test_kernel_matches_reference(p, q):
    assert resultant(p, q, "x2") == reference_resultant(p, q, "x2")


@settings(max_examples=30, deadline=None)
@given(p=_chart_polys(max_x1=0), q=_chart_polys(max_x1=0, max_x2=1))
def test_kernel_matches_reference_single_variable_degree_one(p, q):
    r = resultant(p, q, "x2")
    assert r.is_constant()
    assert r == reference_resultant(p, q, "x2")


@settings(max_examples=30, deadline=None)
@given(f=_chart_polys(max_x2=2), g=_chart_polys(), h=_chart_polys())
def test_kernel_common_factor_gives_zero(f, g, h):
    assert resultant(f * g, f * h, "x2").is_zero()


@settings(max_examples=30, deadline=None)
@given(p=_chart_polys(), q=_chart_polys(), c=_coeffs)
def test_kernel_scales_by_power_of_constant(p, q, c):
    lhs = resultant(p.scale(c), q, "x2")
    assert lhs == resultant(p, q, "x2").scale(c ** q.degree_in("x2"))
    assert lhs == reference_resultant(p.scale(c), q, "x2")


@pytest.mark.parametrize(
    "p, q",
    [
        # Sylvester rows (1, 1, c) and (1, 1, 0): the leading 2x2 minor is zero
        ("x2^2 + x2 + x1", "x2 + 1"),
        ("(2 + rho)*x2^2 + (2 + rho)*x1*x2 - 1/3", "x2 + x1"),
        ("x1*x2^3 + x1^2*x2^2 + 7", "x2 + x1"),
    ],
)
def test_resultant_with_vanishing_leading_minor_matches_reference(p, q):
    p, q = parse_poly(p, X_VARS), parse_poly(q, X_VARS)
    mat = sylvester_matrix(p, q, "x2")
    minor = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    # the leading 2x2 minor of the Sylvester matrix vanishes, yet the
    # resultant is nonzero and still equals the reference determinant
    assert minor.is_zero()
    assert not resultant(p, q, "x2").is_zero()
    assert resultant(p, q, "x2") == reference_resultant(p, q, "x2")


def chart_eliminations(lam: str):
    """The (p, q) table pairs the singular-locus solver hands to
    _zrho.resultant for the family sextic at lam, as MultiPolys: each
    table lists the coefficients in x2, leading first, each a polynomial
    in x1 (the chart x0 = 1)."""
    seen = []
    run = _zrho.resultant

    def record(p, q):
        seen.append((p, q))
        return run(p, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_zrho, "resultant", record)
        singular_locus(PlaneCurve(bl2_sextic().specialize_lambda(parse_scalar(lam))))
    return [(table_poly(p), table_poly(q), run(p, q)) for p, q in seen]


def table_poly(rows):
    n = len(rows) - 1
    terms = {(0, i, n - k): EisensteinScalar(*x) for k, row in enumerate(rows) for i, x in enumerate(row)}
    return MultiPoly(X_VARS, terms)


def to_sympy(p: MultiPoly, sympy, gens):
    """p as a sympy Poly in gens over Q(sqrt(-3)), with rho mapped to
    (-1 + sqrt(-3))/2."""
    field = sympy.QQ.algebraic_field(sympy.sqrt(-3))
    rho = field.from_sympy((sympy.sqrt(-3) - 1) / 2)
    order = [p.vars.index(g) for g in gens]
    terms = {}
    for exp, c in p.terms.items():
        s = c.constant_value()
        a, b = (field.convert(sympy.Rational(n, s.den)) for n in (s.an, s.bn))
        terms[tuple(exp[i] for i in order)] = a + b * rho
    return sympy.Poly.from_dict(terms, *sympy.symbols(gens), domain=field)


@pytest.mark.parametrize("lam", ["2", "9/7", "-2 + 2*rho"])
def test_chart_resultants_match_sympy(lam):
    sympy = pytest.importorskip("sympy")
    elims = chart_eliminations(lam)
    assert elims
    for p, q, det in elims:
        # Poly.resultant eliminates the first generator
        want = to_sympy(p, sympy, ["x2", "x0", "x1"]).resultant(to_sympy(q, sympy, ["x2", "x0", "x1"]))
        got = resultant(p, q, "x2")
        assert to_sympy(got, sympy, ["x0", "x1"]) == want
        # the tables are ints, so the wrapper's result is the PRS's exactly
        assert got == MultiPoly(X_VARS, {(0, e, 0): EisensteinScalar(*x) for e, x in enumerate(det)})


# ---------------------------------------------------------------------------
# gcd and squarefree machinery


def test_mv_gcd_recovers_common_factor():
    v = XY
    g = parse_poly("x + y", v)
    p = parse_poly("x - y", v) * g
    q = parse_poly("x^2 + 1", v) * g
    got = mv_gcd(p, q)
    assert got.divides(p) and got.divides(q)
    assert proportional(got, g)


def test_mv_gcd_coprime_is_constant():
    p = parse_poly("x^2 + 1", XY)
    q = parse_poly("y", XY)
    assert mv_gcd(p, q).is_constant()


def test_normalize_leading_and_proportional():
    p = parse_poly("2*x^2 + 4*y", XY)
    q = parse_poly("x^2 + 2*y", XY)
    assert normalize_leading(p) == normalize_leading(q)
    assert proportional(p, q)
    assert not proportional(p, parse_poly("x^2 + y", XY))
    assert proportional(p.scale(RHO), q)


# ---------------------------------------------------------------------------
# built-ins


def test_quadratic_map_shape():
    qm = quadratic_map()
    assert len(qm) == 3
    for q in qm:
        assert q.vars == X_VARS
        assert q.is_homogeneous() and q.total_degree() == 2
        assert not q.lambda_free()
    # at lambda = 0 the map collapses to the squaring map
    squares = [q.specialize_lambda(ZERO) for q in qm]
    for i, q in enumerate(squares):
        v = MultiPoly.variable(X_VARS, X_VARS[i])
        assert q == (v * v).scale(3)


def test_bl2_sextic_shape():
    s = bl2_sextic()
    assert s.vars == Y_VARS
    assert s.is_homogeneous() and s.total_degree() == 6
    assert not s.lambda_free()
    assert isinstance(SEXTIC_NOTE, str) and SEXTIC_NOTE
    # symmetric under any permutation of the three coordinates
    perm = [MultiPoly.variable(Y_VARS, n) for n in ("y1", "y2", "y0")]
    assert s.substitute(perm) == s
    swap = [MultiPoly.variable(Y_VARS, n) for n in ("y0", "y2", "y1")]
    assert s.substitute(swap) == s


def _bl2_sextic_oracle() -> MultiPoly:
    """bl2_sextic() built by MultiPoly arithmetic, as the library built it
    before it read the 10 terms from a table."""
    y0, y1, y2 = (MultiPoly.variable(Y_VARS, n) for n in Y_VARS)
    lam = LambdaPoly((ZERO, ONE))
    two_lam3_minus = (lam**3).scale(EisensteinScalar(4)) - LambdaPoly((2,))
    six_lam2 = (lam**2).scale(EisensteinScalar(6))
    tail = (lam**4 - lam.scale(EisensteinScalar(4))).scale(EisensteinScalar(3))
    p = y0**6 + y1**6 + y2**6
    p = p + (y0**3 * y1**3 + y0**3 * y2**3 + y1**3 * y2**3).scale(two_lam3_minus)
    p = p - (y0 * y1 * y2 * (y0**3 + y1**3 + y2**3)).scale(six_lam2)
    p = p - (y0**2 * y1**2 * y2**2).scale(tail)
    return p


def test_bl2_sextic_matches_its_arithmetic_construction():
    got, want = bl2_sextic(), _bl2_sextic_oracle()
    assert got == want and got.vars == want.vars == Y_VARS
    # term for term, in the same order, with the same normalized scalars
    fields = lambda p: [(e, [(c.an, c.bn, c.den) for c in f.coeffs]) for e, f in p.terms.items()]
    assert fields(got) == fields(want)
    assert len(got.terms) == 10
    assert all(type(f) is LambdaPoly and type(f.coeffs) is tuple for f in got.terms.values())
    # a fresh polynomial on every call
    assert bl2_sextic().terms is not got.terms


def test_bl2_sextic_specializations_differ():
    s = bl2_sextic()
    assert s.specialize_lambda(ZERO) != s.specialize_lambda(ONE)
