"""The chart solver on Z[rho] ints against the object-path oracle.

curve._affine_zeros, on int-pair chart tables, must give the zeros and
notes of chart_oracle.affine_zeros, which runs the same elimination on
scalar objects, and the oracle's own complete flag must be True exactly
when the integer solver appended no note: on random systems with planted
common zeros in Q(rho), with a planted root-free cubic factor in either
variable, and with positive-dimensional solution sets; and on the charts
of the singular-locus and flex systems of curves, where the int-pair
tables come from each curve's cleared form and the oracle's polynomials
from its MultiPoly equation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import chart_oracle
from plucker_lab import _zrho, curve
from plucker_lab.curve import PlaneCurve
from plucker_lab.polynomials import X_VARS, MultiPoly, bl2_sextic
from plucker_lab.scalars import EisensteinScalar

NAMES = ("x1", "x2")
X1 = MultiPoly.variable(X_VARS, "x1")
X2 = MultiPoly.variable(X_VARS, "x2")

_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_scalars = st.builds(EisensteinScalar, _fractions, _fractions)
_points = st.lists(st.tuples(_scalars, _scalars), min_size=1, max_size=3, unique=True)
# cubes of no element of Q(rho)
_non_cubes = st.sampled_from([2, 3, 5, EisensteinScalar(2, 1), EisensteinScalar(Fraction(1, 2), 3)])


def tables(polys, names):
    """The polys, free of every variable but names, as the int-pair tables
    curve._affine_zeros takes."""
    u, v = ([X_VARS.index(n) for n in names] + [None, None])[:2]
    return [_zrho.table(p.cleared()[0], v, u) for p in polys]


def both(polys, names=NAMES, forms=None):
    """(zeros, complete, notes): the zeros and notes of the integer solver
    on the tables forms (by default those of polys), which must equal the
    oracle's on polys, and the oracle's complete flag, which must be True
    exactly when the integer solver appended no note.  The polynomials the
    p-adic search _zrho.roots is given must be equal too: each gcd is
    normalized before its roots are searched, to the cleared monic
    polynomial lambda_roots gets from LambdaPoly.gcd."""
    searched = ([], [])
    search = _zrho.roots
    inputs = (tables(polys, names) if forms is None else forms, polys)
    with pytest.MonkeyPatch.context() as mp:
        for seen, solver, given in zip(searched, (curve._affine_zeros, chart_oracle.affine_zeros), inputs):
            mp.setattr(_zrho, "roots", lambda cs, seen=seen: seen.append(cs) or search(cs))
            notes = []
            seen.append((solver(given, names, notes), notes))
    (zeros, notes), ((want, complete), want_notes) = searched[0].pop(), searched[1].pop()
    assert searched[0] == searched[1]
    assert (zeros, notes) == (want, want_notes)
    assert complete == (notes == [])
    return zeros, complete, notes


def through(points, draw):
    """A poly vanishing at every point: a sum of two products of lines,
    one line through each point."""
    out = MultiPoly.zero(X_VARS)
    for _ in range(2):
        term = MultiPoly.constant(X_VARS, draw(_scalars))
        for a, b in points:
            term = term * ((X1 - a).scale(draw(_scalars)) + (X2 - b).scale(draw(_scalars)))
        out = out + term
    return out


def small_poly(draw):
    """A random poly of degree <= 2 in x1, x2."""
    out = MultiPoly.zero(X_VARS)
    for e1, e2 in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        c = draw(_scalars)
        out = out + (X1**e1 * X2**e2).scale(c)
    return out


@settings(max_examples=40, deadline=None)
@given(points=_points, count=st.integers(2, 3), data=st.data())
def test_planted_zeros(points, count, data):
    polys = [through(points, data.draw) for _ in range(count)]
    zeros, complete, notes = both(polys)
    if chart_oracle.POSITIVE_DIMENSIONAL not in notes:
        assert set(points) <= set(zeros)


@settings(max_examples=30, deadline=None)
@given(points=_points, c=_non_cubes, data=st.data())
def test_root_free_cubic_in_the_first_variable(points, c, data):
    f = X1**3 - c
    for a, _ in points:
        f = f * (X1 - a)
    g = through(points, data.draw) + X2 * f
    zeros, complete, notes = both([f, g])
    # only g has x2, so the gcd is f and its cubic stays unresolved
    assert not complete
    assert notes[0] == "unresolved degree-3 factor in x1"
    if chart_oracle.POSITIVE_DIMENSIONAL not in notes:
        assert set(points) <= set(zeros)


@settings(max_examples=30, deadline=None)
@given(a=_scalars, b=_scalars, c=_non_cubes, data=st.data())
def test_root_free_cubic_in_the_second_variable(a, b, c, data):
    cubic = X2**3 - c
    f = (X1 - a) * small_poly(data.draw) + cubic
    g = (X1 - a) * small_poly(data.draw) + cubic * (X2 - b)
    zeros, complete, notes = both([f, g])
    # at x1 = a the gcd in x2 is the cubic
    if chart_oracle.POSITIVE_DIMENSIONAL not in notes:
        assert "unresolved degree-3 factor in x2 at x1 = %s" % a in notes
        assert not complete


@settings(max_examples=30, deadline=None)
@given(a=_scalars, data=st.data())
def test_positive_dimensional(a, data):
    # a common curve through the chart: every resultant in x2 vanishes
    common = X2 - small_poly(data.draw)
    polys = [common * small_poly(data.draw) for _ in range(2)]
    zeros, complete, notes = both(polys)
    if all(p.degree_in("x2") for p in polys if p):
        assert notes == [chart_oracle.POSITIVE_DIMENSIONAL] and not complete
    # a common line x1 = a: the polys vanish identically there
    line = X1 - a
    polys = [line * small_poly(data.draw) + line**2 * X2 for _ in range(2)]
    both(polys)


def test_all_zero_and_constant_systems():
    zero = MultiPoly.zero(X_VARS)
    assert both([zero, zero]) == ([], False, [chart_oracle.POSITIVE_DIMENSIONAL])
    assert both([zero], ("x2",)) == ([], False, [chart_oracle.POSITIVE_DIMENSIONAL])
    assert both([X2 - 1, MultiPoly.constant(X_VARS, 3)]) == ([], True, [])
    assert both([X2**2 - 4], ("x2",))[0] == [(EisensteinScalar(-2),), (EisensteinScalar(2),)]


def test_root_free_quadratic_is_noted():
    # the zeros of x2^2 - 2 are not in Q(rho), but they are zeros: the
    # quadratic is noted, whatever the variable it is left in
    note = "unresolved degree-2 factor in x2"
    assert both([X2**2 - 2], ("x2",)) == ([], False, [note])
    assert both([X1 - 1, X2**2 - 2 * X1]) == ([], False, [note + " at x1 = 1"])
    assert both([X1**2 - 2, X2 - X1]) == ([], False, ["unresolved degree-2 factor in x1"])


CURVES = (
    "x1^2*x2 - x0^2*(x0 + x2)",
    "x1^2*x2 - x0^3",
    "x0^3 + x1^3 + x2^3",
    "x0^4 + x1^4 + x2^4",
    "x1^2*x2^2 - x0^4",
    "(2 + rho)*x0^3 + x1^3 - 3/2*x2^3 + x0*x1*x2",
    # an image of the tacnodal quartic x1^2*x2^2 - x0^4: the first two
    # resultants of its singular-locus chart share a root-free cubic, and
    # the third clears it
    "x0^4 + 2*x0^3*x2 - 2*x0^2*x1^2 - 2*x0^2*x1*x2 + x0^2*x2^2 - 2*x0*x1^2*x2"
    " - 2*x0*x1*x2^2 + x1^4 + 2*x1^3*x2 + x1^2*x2^2 - x2^4",
)


def chart_systems():
    """The singular-locus and flex systems of CURVES, and the singular-locus
    system of the family sextic at lambda = 2 (degree-18 eliminants with 9
    double roots), chart by chart: (tables, polys, names), the int-pair
    chart tables of the cleared forms as projective_common_zeros hands
    them to _affine_zeros, and the oracle's MultiPoly charts."""
    sextic = PlaneCurve(bl2_sextic().specialize_lambda(EisensteinScalar(2)))
    systems = [(sextic, _zrho.gradient(sextic.form), chart_oracle.partials(sextic))]
    for text in CURVES:
        c = PlaneCurve.from_text(text)
        systems.append((c, _zrho.gradient(c.form), chart_oracle.partials(c)))
        systems.append((c, [c.form, _zrho.hessian(c.form)], [c.equation, chart_oracle.hessian(c)]))
    for c, forms, polys in systems:
        live = [(f, p) for f, p in zip(forms, polys) if not p.is_zero()]
        assert all(f for f, _ in live)
        for k in range(3):
            yield ([curve._chart(f, k) for f, _ in live],
                   [chart_oracle.chart(p, k) for _, p in live], c.vars[k + 1 :])


def test_curve_systems_match_the_oracle():
    for forms, polys, names in chart_systems():
        both(polys, names, forms)


def test_every_zero_is_checked_on_the_polys(monkeypatch):
    # a root core that reports a value no poly vanishes at must not
    # produce a zero: the leaf check substitutes every value exactly
    solve = _zrho.solve
    bogus = (7777, 1, 1)

    def with_bogus_root(f):
        found, rest = solve(f)
        return found + [bogus], rest

    def solved():
        out = []
        for forms, _, names in chart_systems():
            notes = []
            out.append((curve._affine_zeros(forms, names, notes), notes))
        return out

    want = solved()
    monkeypatch.setattr(_zrho, "solve", with_bogus_root)
    assert solved() == want


def test_split_chart_gcds_are_not_deflated(monkeypatch):
    # at lambda = 2 and -7/8 every chart gcd of the sextic's singular locus
    # splits over Q(rho): the roots of its squarefree part number that
    # part's degree, so no root is divided out of it
    deflate, calls = _zrho._deflate, []
    monkeypatch.setattr(_zrho, "_deflate", lambda *args: calls.append(1) or deflate(*args))
    for lam in (EisensteinScalar(2), EisensteinScalar(Fraction(-7, 8))):
        locus = curve.singular_locus(PlaneCurve(bl2_sextic().specialize_lambda(lam)))
        assert len(locus.points) == 9 and locus.complete
    assert calls == []
    # a root-free cofactor keeps its multiplicity: the x1-gcd of the Fermat
    # quartic's flex system is x1^8 * (x1^4 + 1)^2, and its note counts 8
    notes = curve.flexes(PlaneCurve.from_text("x0^4 + x1^4 + x2^4")).notes
    assert "unresolved degree-8 factor in x1" in notes


def _line(*roots):
    """prod (x - r) over the int roots, as an int-pair polynomial."""
    out = [(1, 0)]
    for r in roots:
        out = _zrho.cross(out, [(-r, 0), (1, 0)], [], [])
    return out


def test_line_gcd_chain_stops_at_degree_one(monkeypatch):
    gcd, calls = _zrho.gcd, []
    monkeypatch.setattr(_zrho, "gcd", lambda f, g: calls.append(1) or gcd(f, g))
    one = EisensteinScalar(1)
    # shortest first: (x-1)(x-2) and (x-1)(x-3) leave x - 1, and the
    # longer polynomial is never taken into the chain
    tables = [[_line(1, 1, 4, 5)], [_line(1, 2)], [_line(1, 3)]]
    assert curve._affine_zeros(tables, ("x2",), []) == [(one,)]
    assert len(calls) == 1
    # the root 1 of the running gcd is no common root: (x-2)(x-3), left out
    # of the chain, keeps it out, so it is never substituted
    calls.clear()
    notes = []
    assert curve._affine_zeros([[_line(1, 2)], [_line(1, 3)], [_line(2, 3)]], ("x2",), notes) == []
    assert len(calls) == 1 and notes == []
    # a gcd of degree 2 runs the whole chain
    calls.clear()
    tables = [[_line(1, 2, 3)], [_line(1, 2, 4)], [_line(1, 2, 5)]]
    assert curve._affine_zeros(tables, ("x2",), []) == [(one,), (EisensteinScalar(2),)]
    assert len(calls) == 2 + 1  # the chain, then the squarefree part in solve


def test_a_constant_table_takes_no_resultant(monkeypatch):
    # in the chart x0 = 1 of the tacnodal quartic the partial in x0 is the
    # constant -4, so the chart has no zero: the resultant of the other two
    # partials is never taken, and the whole singular locus takes none
    resultant, calls = _zrho.resultant, []
    monkeypatch.setattr(_zrho, "resultant", lambda *args: calls.append(1) or resultant(*args))
    c = PlaneCurve.from_text("x1^2*x2^2 - x0^4")
    notes = []
    tables = [curve._chart(f, 0) for f in _zrho.gradient(c.form)]
    assert curve._affine_zeros(tables, c.vars[1:], notes) == [] and notes == []
    locus = curve.singular_locus(c)
    assert [str(p) for p in locus.points] == ["(0 : 0 : 1)", "(0 : 1 : 0)"] and locus.complete
    assert calls == []


def test_line_systems_with_an_early_stop_match_the_oracle():
    x = MultiPoly.variable(X_VARS, "x2")
    for roots in ([(1, 2), (1, 3), (2, 3)], [(1, 2), (1, 3), (1, 1, 4)], [(0, 2), (0, 5), (0, 0, 7)]):
        polys = []
        for rs in roots:
            p = MultiPoly.constant(X_VARS, 1)
            for r in rs:
                p = p * (x - r)
            polys.append(p)
        both(polys, ("x2",))
