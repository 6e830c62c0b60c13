import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import chart_oracle
import dual_oracle
from dual_oracle import proportional
from plucker_lab import _zrho, corpus, curve, polynomials
from plucker_lab.scalars import ONE, RHO, ZERO, EisensteinScalar
from plucker_lab.polynomials import (
    U_VARS,
    X_VARS,
    MultiPoly,
    bl2_sextic,
    parse_poly,
    parse_scalar,
)
from plucker_lab.curve import (
    KIND_CUSP,
    KIND_NODE,
    KIND_ORDINARY,
    KIND_TACNODE,
    KIND_UNCLASSIFIED,
    DegenerateHessianError,
    DualKernelError,
    LambdaSymbolicError,
    NonsingularPointError,
    NotOnCurveError,
    PlaneCurve,
    ProjectivePoint,
    analysis_report,
    classified_singularities,
    classify_singularity,
    dual_curve,
    flexes,
    parse_point,
    pluecker_counts,
    singular_locus,
)

# the corpus equations, spelled inline so this module stands alone
NODAL = "x1^2*x2 - x0^2*(x0 + x2)"
CUSPIDAL = "x1^2*x2 - x0^3"
TACNODAL = "x1^2*x2^2 - x0^4"
FERMAT = "x0^3 + x1^3 + x2^3"

# frozen oracle: dual of the Fermat cubic
FERMAT_DUAL = "u0^6 - 2*u0^3*u1^3 - 2*u0^3*u2^3 + u1^6 - 2*u1^3*u2^3 + u2^6"


def _curve(text):
    return PlaneCurve.from_text(text, X_VARS)


# ---------------------------------------------------------------------------
# points


def test_projective_point_normalization():
    p = ProjectivePoint((2, 4, 6))
    assert p == ProjectivePoint((1, 2, 3))
    assert str(p) == "(1 : 2 : 3)"
    q = ProjectivePoint((ZERO, EisensteinScalar(0, 2), RHO))
    assert q.coords[0] == ZERO and q.coords[1] == ONE
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0, 0))
    with pytest.raises(ValueError):
        ProjectivePoint((1, 2))


def test_parse_point():
    assert parse_point("1:2:3") == ProjectivePoint((1, 2, 3))
    assert parse_point("0 : 1 : -rho") == ProjectivePoint((ZERO, ONE, -RHO))
    assert parse_point("1/2:1:0") == ProjectivePoint((1, 2, 0))
    with pytest.raises(ValueError):
        parse_point("1:2")
    with pytest.raises(ValueError):
        parse_point("0:0:0")


# ---------------------------------------------------------------------------
# curve construction


def test_plane_curve_validation():
    c = _curve(FERMAT)
    assert c.degree == 3 and c.vars == X_VARS
    with pytest.raises(ValueError):
        _curve("x0^2 + x1")  # not homogeneous
    with pytest.raises(ValueError):
        PlaneCurve.from_text("0", X_VARS)
    with pytest.raises(LambdaSymbolicError):
        _curve("lambda*x0^3 + x1^3 + x2^3")


def test_contains():
    c = _curve(FERMAT)
    assert c.equation.evaluate(ProjectivePoint((1, -1, 0)).coords).is_zero()
    assert not c.equation.evaluate(ProjectivePoint((1, 1, 1)).coords).is_zero()


# ---------------------------------------------------------------------------
# singular loci and classification


def test_singular_locus_of_corpus():
    for text, expect in [
        (NODAL, {ProjectivePoint((0, 0, 1))}),
        (CUSPIDAL, {ProjectivePoint((0, 0, 1))}),
        (TACNODAL, {ProjectivePoint((0, 1, 0)), ProjectivePoint((0, 0, 1))}),
        (FERMAT, set()),
        ("x0*x1*x2", {ProjectivePoint((1, 0, 0)), ProjectivePoint((0, 1, 0)), ProjectivePoint((0, 0, 1))}),
    ]:
        locus = singular_locus(_curve(text))
        assert locus.complete
        assert set(locus.points) == expect


@pytest.mark.parametrize(
    "text", ["x0*x1*(x0 - x1)", "x0*x1*(x0 + x1)*(x0 - 2*x1)"]
)
def test_singular_locus_of_concurrent_lines_is_complete(text):
    # the partials do not involve x2, and in the chart x0 = 1 they have no
    # common zero: the lines meet only at (0:0:1)
    locus = singular_locus(_curve(text))
    assert locus.points == (ProjectivePoint((0, 0, 1)),)
    assert locus.complete
    assert locus.notes == ()


@pytest.mark.parametrize(
    "text, part",
    [
        ("(x0*x2 - x1^2)^2", "locus"),  # every point of the conic is singular
        ("x0^2*x1", "locus"),  # so is every point of the line x0 = 0
        ("x0*x1*x2", "flexes"),  # the Hessian contains the curve
        ("(x0 - x1)*(x0^2 + x1^2 - x2^2)", "flexes"),  # it contains x0 = x1
    ],
)
def test_positive_dimensional_systems_stay_incomplete(text, part):
    report = analysis_report(_curve(text))
    if part == "locus":
        assert report["singular_locus_complete"] is False
    else:
        assert report["flexes"]["complete"] is False
    assert curve._POSITIVE_DIMENSIONAL in report["notes"]


def test_classify_node():
    rec = classify_singularity(_curve(NODAL), ProjectivePoint((0, 0, 1)))
    assert rec.kind == KIND_NODE
    assert rec.multiplicity == 2 and rec.delta == 1


def test_classify_cusp():
    rec = classify_singularity(_curve(CUSPIDAL), ProjectivePoint((0, 0, 1)))
    assert rec.kind == KIND_CUSP
    assert rec.multiplicity == 2 and rec.delta == 1


def test_classify_tacnode():
    c = _curve(TACNODAL)
    for pt in [ProjectivePoint((0, 1, 0)), ProjectivePoint((0, 0, 1))]:
        rec = classify_singularity(c, pt)
        assert rec.kind == KIND_TACNODE
        assert rec.multiplicity == 2 and rec.delta == 2


def test_classify_ordinary_triple_point():
    # tangent cone x0^3 - x1^3 splits into three distinct lines
    c = _curve("x0^3*x2 - x1^3*x2 + x0^4")
    rec = classify_singularity(c, ProjectivePoint((0, 0, 1)))
    assert rec.kind == KIND_ORDINARY
    assert rec.multiplicity == 3 and rec.delta == 3


def test_classify_errors():
    c = _curve(NODAL)
    with pytest.raises(NotOnCurveError):
        classify_singularity(c, ProjectivePoint((1, 1, 1)))
    with pytest.raises(NonsingularPointError):
        classify_singularity(c, ProjectivePoint((0, 1, 0)))


def test_node_with_eisenstein_tangents():
    # x0^2 + x0*x1 + x1^2 factors only over Q(rho); still a node
    c = _curve("(x0^2 + x0*x1 + x1^2)*x2 + x0^3")
    rec = classify_singularity(c, ProjectivePoint((0, 0, 1)))
    assert rec.kind == KIND_NODE and rec.delta == 1


# ---------------------------------------------------------------------------
# the Z[rho] jet kernel

_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
_scalars = st.builds(EisensteinScalar, _fractions, _fractions)
_pairs = st.tuples(st.integers(-60, 60), st.integers(-60, 60))


@st.composite
def _curves(draw):
    d = draw(st.integers(2, 6))
    exps = st.tuples(st.integers(0, d), st.integers(0, d)).filter(
        lambda e: sum(e) <= d
    )
    terms = draw(
        st.dictionaries(exps, _scalars.filter(bool), min_size=1, max_size=8)
    )
    return PlaneCurve(
        MultiPoly(X_VARS, {(a, b, d - a - b): c for (a, b), c in terms.items()})
    )


@st.composite
def _points(draw):
    pivot = draw(st.integers(0, 2))
    rest = [draw(_scalars) for _ in range(2 - pivot)]
    return ProjectivePoint([ZERO] * pivot + [ONE] + rest)


def _substituted(c, p):
    """F(x_i = 1, x_j = p_j + s, x_k = p_k + t) by MultiPoly.substitute,
    i the index of p's first nonzero coordinate and j < k the others."""
    i = next(idx for idx, v in enumerate(p.coords) if v)
    j, k = (idx for idx in range(3) if idx != i)
    aff = ("s", "t")
    images = [None] * 3
    images[i] = MultiPoly.constant(aff, 1)
    images[j] = MultiPoly.variable(aff, "s") + MultiPoly.constant(aff, p.coords[j])
    images[k] = MultiPoly.variable(aff, "t") + MultiPoly.constant(aff, p.coords[k])
    return c.equation.substitute(images)


@settings(max_examples=80, deadline=None)
@given(c=_curves(), p=_points(), order=st.integers(0, 7))
def test_taylor_jets_match_substitution(c, p, order):
    # jets[n] = L * D^(d-n) * (degree-n jet of the substituted equation),
    # L the lcm of the equation's denominators, D that of p's coordinates
    lcm = math.lcm(*(cf.constant_value().den for cf in c.equation.terms.values()))
    den = math.lcm(*(x.den for x in p.coords))
    oracle = _substituted(c, p).terms
    jets = curve._taylor_jets(c, p, order)
    assert [len(jet) for jet in jets] == list(range(1, order + 2))
    for n, jet in enumerate(jets):
        factor = lcm * den ** (c.degree - n) if n <= c.degree else 0
        for u, (a, b) in enumerate(jet):
            want = oracle.get((u, n - u))
            want = want.constant_value() if want else ZERO
            assert EisensteinScalar(a, b) == want * factor


# germs at (0:0:1); in the chart x2 = 1, s = x0 and t = x1
_GERMS = [
    ("x1^2*x2 - x0^2*x2 + x0^3", KIND_NODE, 2, 1),  # A1
    ("x1^2*x2 - x0^3", KIND_CUSP, 2, 1),  # A2
    ("x1^2*x2^2 - 2*x0^2*x1*x2 + 2*x0^4", KIND_TACNODE, 2, 2),  # (t - s^2)^2 + s^4
    ("x1^2*x2^3 - 2*x0^2*x1*x2^2 + x0^4*x2 - x0^5", KIND_UNCLASSIFIED, 2, 2),  # A4
    ("x0^3*x2 - 2*x1^3*x2 + x1^4", KIND_ORDINARY, 3, 3),  # s^3 - 2t^3 is irreducible
    ("x0^2*x1*x2 + x1^4", KIND_UNCLASSIFIED, 3, 3),  # D5: s^2*t + t^4
]
_IDENTITY = [(1, 0), (0, 0), (0, 0), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0), (1, 0)]
_zr_entries = st.tuples(st.integers(-2, 2), st.integers(-2, 2))  # a + b*rho


@pytest.mark.parametrize("text, kind, mult, delta", _GERMS)
@settings(max_examples=15, deadline=None)
@given(entries=st.lists(_zr_entries, min_size=9, max_size=9))
@example(entries=_IDENTITY)
def test_germs_under_coordinate_change(text, kind, mult, delta, entries):
    m = [[EisensteinScalar(*entries[3 * r + k]) for k in range(3)] for r in range(3)]
    # row0 x row1 is sent by m to (0 : 0 : det m), where the germ sits
    q = [
        m[0][1] * m[1][2] - m[0][2] * m[1][1],
        m[0][2] * m[1][0] - m[0][0] * m[1][2],
        m[0][0] * m[1][1] - m[0][1] * m[1][0],
    ]
    assume(sum((m[2][k] * q[k] for k in range(3)), ZERO))
    xs = [MultiPoly.variable(X_VARS, v) for v in X_VARS]
    zero = MultiPoly.zero(X_VARS)
    images = [sum((x.scale(e) for x, e in zip(xs, row)), zero) for row in m]
    moved = PlaneCurve(parse_poly(text, X_VARS).substitute(images))
    rec = classify_singularity(moved, ProjectivePoint(q))
    assert (rec.kind, rec.multiplicity, rec.delta) == (kind, mult, delta)
    assert bool(rec.note) == (kind == KIND_UNCLASSIFIED)


@pytest.mark.parametrize(
    "text, kind, mult, delta",
    [
        ("(x0^5 + x1^5)*x2 + x0^6", KIND_ORDINARY, 5, 10),
        ("x0^6 - x1^6", KIND_ORDINARY, 6, 15),
        ("x0^5*x2 + x1^6", KIND_UNCLASSIFIED, 5, 10),
    ],
)
def test_classify_points_of_multiplicity_above_four(text, kind, mult, delta):
    # every jet up to degree 4 vanishes: the kernel expands to full degree
    rec = classify_singularity(_curve(text), ProjectivePoint((0, 0, 1)))
    assert (rec.kind, rec.multiplicity, rec.delta) == (kind, mult, delta)


@pytest.mark.parametrize(
    "form, squarefree",
    [
        # coefficients of s^u t^(n-u), u = 0..n
        ([(-1, 0), (0, 0), (1, 0), (0, 0)], True),  # t*(s^2 - t^2)
        ([(1, 0), (0, 0), (0, 0), (1, 0)], True),  # s^3 + t^3
        ([(0, 0), (1, 0), (0, 0), (0, 0)], False),  # s*t^2: t twice
        ([(1, 0), (0, 0), (0, 0), (0, 0)], False),  # t^3
        ([(0, 0), (0, 0), (1, 1), (1, 0)], False),  # s^2*(s - rho^2*t)
    ],
)
def test_squarefree_form(form, squarefree):
    assert curve._is_squarefree_form(form) is squarefree


def test_tangent_alignment_guard_raises(monkeypatch):
    # a real raise, not an assert that python -O would strip
    monkeypatch.setattr(curve._zrho, "form_at", lambda form, v: (1, 0))
    with pytest.raises(ArithmeticError, match="tangent alignment failed"):
        classify_singularity(_curve(CUSPIDAL), ProjectivePoint((0, 0, 1)))


def test_special_case_runs_no_general_gcd(monkeypatch):
    calls = []
    real_gcd, real_substitute = polynomials.mv_gcd, MultiPoly.substitute

    def counting_gcd(p, q):
        calls.append("mv_gcd")
        return real_gcd(p, q)

    def counting_substitute(p, images):
        calls.append("substitute")
        return real_substitute(p, images)

    for name, module in list(sys.modules.items()):
        if name.startswith("plucker_lab") and hasattr(module, "mv_gcd"):
            monkeypatch.setattr(module, "mv_gcd", counting_gcd)
    monkeypatch.setattr(MultiPoly, "substitute", counting_substitute)
    polynomials.mv_gcd(parse_poly("x0^2*x1", X_VARS), parse_poly("x0*x1^2", X_VARS))
    assert "mv_gcd" in calls  # the counter sees the general gcd
    calls.clear()
    report = corpus.run_special_case("2")
    assert report.passed and len(report.computed["singularities"]) == 9
    assert "mv_gcd" not in calls
    calls.clear()
    sextic = PlaneCurve(bl2_sextic().specialize_lambda(parse_scalar("2")))
    records, _ = classified_singularities(sextic)
    assert [r.kind for r in records] == [KIND_CUSP] * 9
    assert calls == []
    dual_curve(_curve(NODAL))
    assert calls == []  # the dual is one linear kernel, no gcd


# two curves whose singular points are irrational: nodes at
# (+-sqrt(2) : 0 : 1), and at (1 : 1 : +-sqrt(2)) where the line meets the conic
QUARTIC = "(x0^2 - 2*x2^2)^2 - x1^2*x2^2 + x1^4"
LINE_CONIC = "(x0 - x1)*(x0^2 + x1^2 - x2^2)"


@pytest.mark.parametrize("text", [QUARTIC, LINE_CONIC])
def test_an_incomplete_locus_certifies_no_genus_or_flex_count(text):
    c = _curve(text)
    report = analysis_report(c)
    assert not report["singular_locus_complete"] and report["geometric_genus"] is None
    assert report["flexes"]["count_with_multiplicity"] is None
    fx = flexes(c)
    assert fx.count_with_multiplicity is None and not fx.complete


@pytest.mark.parametrize(
    "name", sorted(corpus.CURVES) + ["sextic at lambda = 2", QUARTIC, LINE_CONIC]
)
def test_singular_locus_matches_sympy(name):
    # the listed points are exactly the solutions in Q(rho), and the locus
    # is complete exactly when there is no other
    sympy = pytest.importorskip("sympy")
    if name == "sextic at lambda = 2":
        c = PlaneCurve(bl2_sextic().specialize_lambda(parse_scalar("2")))
    else:
        c = _curve(corpus.CURVES.get(name, name))
    field = sympy.QQ.algebraic_field(sympy.sqrt(-3))
    rho = (sympy.sqrt(-3) - 1) / 2

    def canonical(v):  # None unless v lies in Q(sqrt(-3))
        try:
            return field.to_sympy(field.from_sympy(sympy.sympify(v)))
        except sympy.polys.polyerrors.CoercionFailed:
            return None

    def value(x):
        return sympy.Rational(x.an, x.den) + sympy.Rational(x.bn, x.den) * rho

    gens = sympy.symbols(c.vars)
    partials = [
        sum(
            value(cf.constant_value()) * sympy.Mul(*(g**e for g, e in zip(gens, exp)))
            for exp, cf in p.terms.items()
        )
        for p in chart_oracle.partials(c)
    ]
    # common zeros chart by chart: x0 = 1, then x0 = 0 & x1 = 1, then (0:0:1)
    want = set()
    for k in range(3):
        fixed = {g: 0 for g in gens[:k]}
        fixed[gens[k]] = 1
        free = gens[k + 1 :]
        eqs = [e for e in (sympy.expand(p.subs(fixed)) for p in partials) if e != 0]
        if not free:
            sols = [] if eqs else [{}]
        else:
            sols = sympy.solve(eqs, free, dict=True)
        for sol in sols:
            assert set(sol) == set(free), "positive-dimensional singular locus"
            want.add(tuple(canonical(fixed.get(g, sol.get(g))) for g in gens))
    rational = {p for p in want if None not in p}
    locus = singular_locus(c)
    assert locus.complete == (rational == want)
    got = {tuple(canonical(value(x)) for x in p.coords) for p in locus.points}
    assert got == rational


# ---------------------------------------------------------------------------
# flexes and hessian


def test_hessian_degree():
    c = _curve(FERMAT)
    h = chart_oracle.hessian(c)
    assert h.is_homogeneous() and h.total_degree() == 3
    assert proportional(h, parse_poly("x0*x1*x2", X_VARS))


def test_flexes_fermat():
    fx = flexes(_curve(FERMAT))
    assert fx.complete
    assert fx.count_with_multiplicity == 9
    assert len(fx.points) == 9
    assert ProjectivePoint((1, -1, 0)) in fx.points


def test_flexes_nodal_and_cuspidal():
    fx = flexes(_curve(NODAL))
    assert fx.count_with_multiplicity == 3
    fx = flexes(_curve(CUSPIDAL))
    assert fx.count_with_multiplicity == 1
    assert fx.points == (ProjectivePoint((0, 1, 0)),)


def test_flexes_conic_and_tacnodal():
    fx = flexes(_curve("x0*x2 - x1^2"))
    assert fx.count_with_multiplicity == 0 and fx.complete
    fx = flexes(_curve(TACNODAL))
    assert fx.count_with_multiplicity == 0


# ---------------------------------------------------------------------------
# dual curves


def test_dual_conic():
    c = _curve("x0*x2 - x1^2")
    dual = dual_curve(c)
    assert dual.degree == 2
    assert proportional(dual.equation, parse_poly("4*u0*u2 - u1^2", U_VARS))


def test_dual_conic_bidual():
    c = _curve("x0^2 + x1^2 - x2^2")
    dd = dual_curve(dual_curve(c))
    assert proportional(dd.equation, c.equation)


def test_dual_fermat_matches_oracle():
    dual = dual_curve(_curve(FERMAT))
    assert dual.degree == 6
    assert proportional(dual.equation, parse_poly(FERMAT_DUAL, U_VARS))


def test_dual_nodal_cubic():
    dual = dual_curve(_curve(NODAL))
    assert dual.degree == 4  # class 3*2 - 2 for the node


def test_dual_cuspidal_cubic():
    dual = dual_curve(_curve(CUSPIDAL))
    assert dual.degree == 3  # class 3*2 - 3 for the cusp
    # the dual of a cuspidal cubic is again a cuspidal cubic
    records, locus = classified_singularities(dual)
    assert locus.complete
    assert [r.kind for r in records] == [KIND_CUSP]


def test_dual_tacnodal_quartic():
    dual = dual_curve(_curve(TACNODAL))
    assert dual.degree == 4  # class 4*3 - 2*4


@settings(max_examples=60, deadline=None)
@given(c=_curves(), data=st.data())
def test_reduce_gives_the_normal_form_modulo_f(c, data):
    d = c.degree
    n = data.draw(st.integers(d, 2 * d))
    exps = st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda e: sum(e) <= n)
    terms = data.draw(st.dictionaries(exps, _pairs.filter(any), min_size=1, max_size=6))
    p = {(a, b, n - a - b): x for (a, b), x in terms.items()}
    lead, tail = dual_oracle.rewrite_rule(c.equation)
    pairs, den = _zrho.clear([x for _, x in tail])  # den*x^lead = pairs modulo f
    nf, k = _zrho.reduce(dict(p), lead, [(e, x) for (e, _), x in zip(tail, pairs)], den)
    assert not any(all(a >= b for a, b in zip(e, lead)) for e in nf)
    scaled = {e: EisensteinScalar(a * den**k, b * den**k) for e, (a, b) in p.items()}
    nf_poly = MultiPoly(X_VARS, {e: EisensteinScalar(a, b) for e, (a, b) in nf.items()})
    (MultiPoly(X_VARS, scaled) - nf_poly).exact_div(c.equation)  # raises unless a multiple of f
    # the normal form modulo f is unique: den^k times the oracle's
    want = dual_oracle.reduce({e: EisensteinScalar(*x) for e, x in p.items()}, lead, tail)
    assert nf_poly == MultiPoly(X_VARS, want).scale(EisensteinScalar(den**k))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    data=st.data(),
)
def test_kernel_matches_sympy_rank(shape, data):
    sympy = pytest.importorskip("sympy")
    rows, cols = shape
    entry = st.one_of(st.just(ZERO), _scalars)
    matrix = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    if data.draw(st.booleans()) and cols > 1:  # force a dependent column
        matrix = [row + [row[0] * 2 - row[-1]] for row in matrix]
        cols += 1
    # column j over Z[rho]: the scalars of column j times their common
    # denominator den_j, so a kernel vector k' of these columns gives the
    # kernel vector k_j = den_j * k'_j of the matrix
    columns, dens = [], []
    for j in range(cols):
        pairs, den = _zrho.clear([matrix[r][j] for r in range(rows)])
        columns.append({r: x for r, x in enumerate(pairs) if any(x)})
        dens.append(den)
    kernel = [
        {j: EisensteinScalar(a * dens[j], b * dens[j]) for j, (a, b) in vec.items()}
        for vec in _zrho.kernel(columns)
    ]
    for vec in kernel:
        for r in range(rows):
            assert sum((matrix[r][j] * x for j, x in vec.items()), ZERO) == ZERO
    # over Q, a + b*rho acts on the basis (1, rho) as [[a, -b], [b, a - b]],
    # and a rank over Q(rho) doubles in that regular representation
    blocks = sympy.zeros(2 * rows, 2 * cols)
    for r in range(rows):
        for j in range(cols):
            a, b = matrix[r][j].a, matrix[r][j].b
            blocks[2 * r : 2 * r + 2, 2 * j : 2 * j + 2] = sympy.Matrix(
                [[a, -b], [b, a - b]]
            )
    assert 2 * len(kernel) == 2 * cols - blocks.rank()
    # vector by vector the oracle's up to scale: each is the dependency of
    # its last column on the independent columns before it
    oracle = dual_oracle.kernel(
        [{r: matrix[r][j] for r in range(rows) if matrix[r][j]} for j in range(cols)]
    )
    assert len(oracle) == len(kernel)
    for vec, want in zip(kernel, oracle):
        top = max(vec)
        assert max(want) == top and want[top] == ONE
        assert {j: x / vec[top] for j, x in vec.items()} == want


def _certify(dual, c):
    """Checks f | D(grad f) by exact division, which raises otherwise."""
    dual.equation.substitute(chart_oracle.partials(c)).exact_div(c.equation)


def test_dual_of_a_quartic_with_irrational_nodes():
    # its two nodes are not in Q(rho), so the locus is incomplete and the
    # class 12 - 2*2 is found by building every level up to the kernel
    c = _curve(QUARTIC)
    assert not singular_locus(c).complete
    dual = dual_curve(c)
    assert dual.degree == 8
    _certify(dual, c)


def test_dual_fermat_quintic():
    c = _curve("x0^5 + x1^5 + x2^5")
    dual = dual_curve(c)
    assert dual.degree == 20  # class 5*4
    _certify(dual, c)


def _cofactors(m):
    """The cofactor matrix of m: the inverse transpose up to 1/det m."""
    return [
        [
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]


def _linear_images(m, variables):
    """The forms sum_k m[i][k] * variables[k], i = 0, 1, 2."""
    vs = [MultiPoly.variable(variables, v) for v in variables]
    zero = MultiPoly.zero(variables)
    return [sum((v.scale(e) for v, e in zip(vs, row)), zero) for row in m]


def _moved_dual_agrees(text, m):
    """The dual of f(m x) is the dual of f mapped by the inverse transpose
    of m; checks that, the predicted class and the exact certificate."""
    base = dual_curve(_curve(text))
    moved = PlaneCurve(parse_poly(text, X_VARS).substitute(_linear_images(m, X_VARS)))
    dual = dual_curve(moved)
    records, locus = classified_singularities(moved)
    assert locus.complete
    assert dual.degree == pluecker_counts(moved.degree, records, locus)[0] == base.degree
    _certify(dual, moved)
    want = base.equation.substitute(_linear_images(_cofactors(m), U_VARS))
    assert proportional(dual.equation, want)


# The largest int the dual's elimination may produce on the dense images
# below; it peaks at 434 bits on them.  Without the conjugate-pivot step
# of _zrho.kernel it passes 10000 bits on the three seeded images, whose
# duals then do not finish in a minute.
_ELIMINATION_BITS = 1024


def _dense_dual_agrees(m, monkeypatch):
    """_moved_dual_agrees on the Fermat cubic under m, the dual equal to
    the oracle's, and no entry of the elimination above _ELIMINATION_BITS."""
    combine = _zrho._combine

    def bounded(v, mult, c, w):
        out = combine(v, mult, c, w)
        bits = max((abs(x).bit_length() for pair in out.values() for x in pair), default=0)
        assert bits <= _ELIMINATION_BITS, "coefficient growth: %d bits" % bits
        return out

    monkeypatch.setattr(_zrho, "_combine", bounded)
    _moved_dual_agrees(FERMAT, m)
    moved = PlaneCurve(parse_poly(FERMAT, X_VARS).substitute(_linear_images(m, X_VARS)))
    assert dual_curve(moved).equation == dual_oracle.dual(moved, 6)


def test_dual_of_invertible_image_of_fermat_cubic(monkeypatch):
    # (x0 + x1)^3 + (x1 + x2)^3 + (x0 + x2)^3, whose dual once hung in the
    # multivariate gcd of an elimination dual
    m = [[EisensteinScalar(x) for x in row] for row in ((1, 1, 0), (0, 1, 1), (1, 0, 1))]
    _dense_dual_agrees(m, monkeypatch)


def _unit_matrices(seed, count):
    """count invertible 3x3 matrices with entries a + b*rho, a, b in
    {-1, 0, 1}, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = [[EisensteinScalar(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(3)]
             for _ in range(3)]
        if sum((m[0][k] * _cofactors(m)[0][k] for k in range(3)), ZERO):
            out.append(m)
    return out


@pytest.mark.parametrize("m", _unit_matrices(5, 3), ids=["image0", "image1", "image2"])
def test_dual_of_dense_images_of_fermat_cubic(m, monkeypatch):
    _dense_dual_agrees(m, monkeypatch)


_unit_entries = st.builds(
    EisensteinScalar, st.integers(-1, 1), st.integers(-1, 1)
)  # a + b*rho with a, b in {-1, 0, 1}


@pytest.mark.parametrize("text", ["x0*x2 - x1^2", NODAL, CUSPIDAL, FERMAT, TACNODAL])
@settings(max_examples=5, deadline=None)
@given(entries=st.lists(_unit_entries, min_size=9, max_size=9))
# the tacnodal quartic's first two chart resultants share an extra cubic
# factor here; the third resultant has to clear it for the locus to be
# complete
@example(entries=[EisensteinScalar(0, b) for b in (0, 0, 1, 1, 1, 1, 1, -1, 0)])
def test_dual_under_invertible_coordinate_change(text, entries):
    m = [entries[3 * r : 3 * r + 3] for r in range(3)]
    det = sum((m[0][k] * _cofactors(m)[0][k] for k in range(3)), ZERO)
    assume(det)
    _moved_dual_agrees(text, m)


@pytest.mark.parametrize("lam", ["2", "-4/3", "9/7", "-2 + 2*rho"])
def test_dual_of_special_sextic_is_the_hesse_cubic(lam):
    value = parse_scalar(lam)
    sextic = PlaneCurve(bl2_sextic().specialize_lambda(value))
    dual = dual_curve(sextic)
    hesse = parse_poly("u0^3 + u1^3 + u2^3", U_VARS) - parse_poly(
        "u0*u1*u2", U_VARS
    ).scale(value * 3)
    assert proportional(dual.equation, hesse)
    _certify(dual, sextic)


@pytest.mark.parametrize(
    "text, degree, calls",
    [
        ("x0^4 + x1^4 + x2^4", 12, 3 + 6 + 10 + 28 + 91),  # levels 1, 2, 3, 6, 12
        (NODAL, 4, 3 + 6 + 15),  # levels 1, 2, 4
        # two unclassified points: m is searched from 1 and every level built
        ("x1^2*x2^3 - x0^5", 5, 3 + 6 + 10 + 15 + 21),
    ],
)
def test_dual_builds_only_the_levels_the_class_needs(text, degree, calls, monkeypatch):
    # a column of each degree 1..m (a stepping stone) would reduce 454
    # columns for the quartic and 34 for the nodal cubic
    reduce, count = _zrho.reduce, []

    def counting(*args):
        count.append(None)
        return reduce(*args)

    monkeypatch.setattr(_zrho, "reduce", counting)
    assert dual_curve(_curve(text)).degree == degree
    assert len(count) == calls


def test_dual_eliminates_exactly_only_the_block_with_the_kernel(monkeypatch):
    eliminate, sizes = _zrho._eliminate, []

    def counting(columns, block):
        sizes.append(len(block))
        return eliminate(columns, block)

    monkeypatch.setattr(_zrho, "_eliminate", counting)
    # the quartic's 91 columns fall into 16 blocks; the other 15 are full
    # rank mod the prime, and its three partials are single columns
    assert dual_curve(_curve("x0^4 + x1^4 + x2^4")).degree == 12
    assert sizes == [10]
    # a dense image is one block: the three partials, then all 28 columns
    sizes.clear()
    m = [[EisensteinScalar(x) for x in row] for row in ((1, 1, 0), (0, 1, 1), (1, 0, 1))]
    moved = PlaneCurve(parse_poly(FERMAT, X_VARS).substitute(_linear_images(m, X_VARS)))
    assert dual_curve(moved).degree == 6
    assert sizes == [3, 28]


# the curve-corpus base equations and their classes
_CORPUS_CLASSES = {
    "x0*x2 - x1^2": 2,
    NODAL: 4,
    CUSPIDAL: 3,
    TACNODAL: 4,
    FERMAT: 6,
    "x0^4 + x1^4 + x2^4": 12,
}


@settings(max_examples=30, deadline=None)
@given(
    text=st.sampled_from(sorted(_CORPUS_CLASSES)),
    perm=st.permutations(range(3)),
    scales=st.lists(
        st.builds(EisensteinScalar, st.integers(-2, 2), st.integers(-2, 2)).filter(bool),
        min_size=3,
        max_size=3,
    ),
)
def test_split_dual_matches_the_stepping_stone_oracle(text, perm, scales):
    # x_i -> scales[i] * x_perm[i]: a monomial image of a corpus curve
    m = [[scales[i] if k == perm[i] else ZERO for k in range(3)] for i in range(3)]
    c = PlaneCurve(parse_poly(text, X_VARS).substitute(_linear_images(m, X_VARS)))
    assert dual_curve(c).equation == dual_oracle.dual(c, _CORPUS_CLASSES[text])


def test_dual_of_a_double_conic_has_no_unique_kernel():
    with pytest.raises(DualKernelError) as exc:
        dual_curve(_curve("(x0^2 - x1*x2)^2"))
    # every quadratic form G has q^2 | G(grad q^2) = 4 q^2 G(grad q)
    assert (exc.value.degree, exc.value.dimension) == (2, 6)
    assert isinstance(exc.value, ValueError)


@st.composite
def _forms_under_unit_matrices(draw):
    """A binary form in x0, x1 (a cone) or a ternary form, moved by
    x -> m x for a matrix m with entries a + b*rho, a, b in {-1, 0, 1};
    a singular m makes a cone of any form."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        exps = st.integers(0, d).map(lambda a: (a, d - a, 0))
    else:
        exps = st.tuples(st.integers(0, d), st.integers(0, d)).filter(
            lambda e: sum(e) <= d
        ).map(lambda e: (e[0], e[1], d - e[0] - e[1]))
    terms = draw(st.dictionaries(exps, _scalars.filter(bool), min_size=1, max_size=6))
    entries = draw(st.lists(_unit_entries, min_size=9, max_size=9))
    m = [entries[3 * r : 3 * r + 3] for r in range(3)]
    image = MultiPoly(X_VARS, terms).substitute(_linear_images(m, X_VARS))
    assume(not image.is_zero())
    return PlaneCurve(image)


@settings(max_examples=80, deadline=None)
@given(c=_forms_under_unit_matrices())
@example(c=_curve(FERMAT))
@example(c=_curve("x0^3 - x1^3"))
@example(c=_curve("x0^2"))
@example(c=_curve("x0*x1*(x0 - x1)"))
def test_dependent_partials_decide_a_zero_hessian(c):
    # Gordan-Noether: a ternary form has an identically zero Hessian
    # exactly when its partials are linearly dependent
    hessian = chart_oracle.hessian(c)
    assert bool(_zrho.kernel(_zrho.gradient(c.form))) == hessian.is_zero()
    # the int-pair Hessian of the cleared form L * F is L^3 times hess(F)
    lcm = math.lcm(*(cf.constant_value().den for cf in c.equation.terms.values()))
    want = {e: cf.constant_value() * lcm**3 for e, cf in hessian.terms.items()}
    assert {e: EisensteinScalar(*x) for e, x in _zrho.hessian(c.form).items()} == want


def test_dual_rejects_identically_zero_hessian():
    # the Fermat cubic under the singular matrix [[1,1,0],[0,1,-1],[1,0,1]]
    # is three lines through (1:-1:-1)
    image = _curve("(x0 + x1)^3 + (x1 - x2)^3 + (x0 + x2)^3")
    triple = classify_singularity(image, ProjectivePoint([1, -1, -1]))
    assert (triple.kind, triple.multiplicity) == (KIND_ORDINARY, 3)
    for c in (image, _curve("x0^3 - x1^3"), _curve("x0^2 - x1^2")):
        assert chart_oracle.hessian(c).is_zero()
        with pytest.raises(DegenerateHessianError):
            dual_curve(c)


# ---------------------------------------------------------------------------
# class, flex count and genus, and reports


def _counts(text):
    c = _curve(text)
    return pluecker_counts(c.degree, *classified_singularities(c))


def test_expected_class():
    assert _counts(NODAL)[0] == 4
    assert _counts(CUSPIDAL)[0] == 3
    assert _counts(TACNODAL)[0] == 4


def test_geometric_genus():
    for text, g in [(NODAL, 0), (CUSPIDAL, 0), (FERMAT, 1), (TACNODAL, -1)]:
        assert _counts(text)[2] == g


# The per-kind drops of the class and of the flex count that the curve
# layer kept before pluecker_counts, as its reference: an ordinary m-fold
# point drops m(m-1) and 3m(m-1); the genus drops by the deltas.
_CLASS_DROP = {KIND_NODE: 2, KIND_CUSP: 3, KIND_TACNODE: 4}
_HESSIAN_DROP = {KIND_NODE: 6, KIND_CUSP: 8, KIND_TACNODE: 12}


def _reference_counts(d, records):
    m, f = d * (d - 1), 3 * d * (d - 2)
    for rec in records:
        k = rec.multiplicity
        assert rec.kind in _CLASS_DROP or (rec.kind == KIND_ORDINARY and rec.delta == k * (k - 1) // 2)
        m -= _CLASS_DROP.get(rec.kind, k * (k - 1))
        f -= _HESSIAN_DROP.get(rec.kind, 3 * k * (k - 1))
    return m, f, (d - 1) * (d - 2) // 2 - sum(rec.delta for rec in records)


# every complete, classified curve of this module, with its kinds
_CLASSIFIED = [
    ("x0*x2 - x1^2", []),
    (NODAL, [KIND_NODE]),
    (CUSPIDAL, [KIND_CUSP]),
    (TACNODAL, [KIND_TACNODE] * 2),
    (FERMAT, []),
    ("(x0^2 + x0*x1 + x1^2)*x2 + x0^3", [KIND_NODE]),
    ("x1^2*x2 - x0^2*x2 + x0^3", [KIND_NODE]),
    ("x1^2*x2^2 - 2*x0^2*x1*x2 + 2*x0^4", [KIND_TACNODE] * 2),
    ("x0^3*x2 - x1^3*x2 + x0^4", [KIND_ORDINARY]),
    ("x0^3*x2 - 2*x1^3*x2 + x1^4", [KIND_ORDINARY]),
    ("(x0^5 + x1^5)*x2 + x0^6", [KIND_ORDINARY]),
    ("x0^6 - x1^6", [KIND_ORDINARY]),
    ("(x0 + x1)^3 + (x1 - x2)^3 + (x0 + x2)^3", [KIND_ORDINARY]),
    ("sextic at lambda = 2", [KIND_CUSP] * 9),
]


@pytest.mark.parametrize("text, kinds", _CLASSIFIED, ids=range(len(_CLASSIFIED)))
def test_pluecker_counts_match_the_per_kind_drops(text, kinds):
    if text == "sextic at lambda = 2":
        c = PlaneCurve(bl2_sextic().specialize_lambda(parse_scalar("2")))
    else:
        c = _curve(text)
    records, locus = classified_singularities(c)
    assert locus.complete and sorted(r.kind for r in records) == kinds
    assert pluecker_counts(c.degree, records, locus) == _reference_counts(c.degree, records)


def test_pluecker_counts_certify_nothing_from_an_unclassified_point():
    # (t^2 : t^5 : 1) parametrizes the curve: its genus is 0, not the 1 of
    # the lower bound deltas 2 and 3
    c = _curve("x1^2*x2^3 - x0^5")
    records, locus = classified_singularities(c)
    assert locus.complete and [r.kind for r in records] == [KIND_UNCLASSIFIED] * 2
    assert pluecker_counts(c.degree, records, locus) is None
    assert pluecker_counts(c.degree, records[:0], locus) == (20, 45, 6)
    incomplete = locus._replace(notes=("unresolved degree-2 factor in x1",))
    assert pluecker_counts(c.degree, (), incomplete) is None


def test_analysis_report_cuspidal():
    report = analysis_report(_curve(CUSPIDAL))
    assert report["degree"] == 3
    assert report["singular_locus_complete"] is True
    assert len(report["singularities"]) == 1
    assert report["singularities"][0]["ade"] == "A2"
    assert report["geometric_genus"] == 0
    assert report["flexes"]["count_with_multiplicity"] == 1
    assert report["genus_warning"] is False


def test_analysis_report_computes_the_singular_locus_once(monkeypatch):
    calls = []
    real = curve.singular_locus

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(curve, "singular_locus", counting)
    report = analysis_report(_curve(TACNODAL))
    assert len(calls) == 1
    assert [s["ade"] for s in report["singularities"]] == ["A3", "A3"]
    assert report["flexes"]["count_with_multiplicity"] == 0
    flexes(_curve(TACNODAL))  # direct callers still get their own locus
    assert len(calls) == 2


def test_analysis_report_tacnodal_flags_reducibility():
    report = analysis_report(_curve(TACNODAL))
    assert report["geometric_genus"] == -1
    assert report["genus_warning"] is True
    assert any("reducible" in n for n in report["notes"])
