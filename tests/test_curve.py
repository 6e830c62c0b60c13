import warnings

import pytest

from plucker_lab.scalars import ONE, RHO, ZERO, EisensteinScalar
from plucker_lab.polynomials import (
    U_VARS,
    X_VARS,
    parse_poly,
    proportional,
    render_poly,
)
from plucker_lab.curve import (
    KIND_CUSP,
    KIND_NODE,
    KIND_ORDINARY,
    KIND_TACNODE,
    DegenerateHessianError,
    LambdaSymbolicError,
    NonsingularPointError,
    NotOnCurveError,
    PlaneCurve,
    ProjectivePoint,
    UnsupportedDegreeError,
    analysis_report,
    classified_singularities,
    classify_singularity,
    dual_curve,
    expected_class,
    flexes,
    geometric_genus,
    hessian,
    parse_point,
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
    assert c.contains(ProjectivePoint((1, -1, 0)))
    assert not c.contains(ProjectivePoint((1, 1, 1)))


# ---------------------------------------------------------------------------
# singular loci and classification


def test_singular_locus_of_corpus():
    for text, expect in [
        (NODAL, {ProjectivePoint((0, 0, 1))}),
        (CUSPIDAL, {ProjectivePoint((0, 0, 1))}),
        (TACNODAL, {ProjectivePoint((0, 1, 0)), ProjectivePoint((0, 0, 1))}),
        (FERMAT, set()),
    ]:
        locus = singular_locus(_curve(text))
        assert locus.complete
        assert set(locus.points) == expect


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
# flexes and hessian


def test_hessian_degree():
    c = _curve(FERMAT)
    h = hessian(c)
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


def test_dual_unsupported_degree():
    with pytest.raises(UnsupportedDegreeError):
        dual_curve(_curve("x0^5 + x1^5 + x2^5"))


def test_dual_rejects_identically_zero_hessian():
    # the Fermat cubic under the singular matrix [[1,1,0],[0,1,-1],[1,0,1]]
    # is three lines through (1:-1:-1)
    image = _curve("(x0 + x1)^3 + (x1 - x2)^3 + (x0 + x2)^3")
    triple = classify_singularity(image, ProjectivePoint([1, -1, -1]))
    assert (triple.kind, triple.multiplicity) == (KIND_ORDINARY, 3)
    for c in (image, _curve("x0^3 - x1^3"), _curve("x0^2 - x1^2")):
        assert hessian(c).is_zero()
        with pytest.raises(DegenerateHessianError):
            dual_curve(c)


def test_expected_class():
    records, _ = classified_singularities(_curve(NODAL))
    assert expected_class(3, records) == 4
    records, _ = classified_singularities(_curve(CUSPIDAL))
    assert expected_class(3, records) == 3
    records, _ = classified_singularities(_curve(TACNODAL))
    assert expected_class(4, records) == 4


# ---------------------------------------------------------------------------
# genus and reports


def test_geometric_genus():
    for text, g in [(NODAL, 0), (CUSPIDAL, 0), (FERMAT, 1)]:
        c = _curve(text)
        records, _ = classified_singularities(c)
        assert geometric_genus(c, records) == g


def test_geometric_genus_warns_when_negative():
    c = _curve(TACNODAL)  # reducible: two conics with two tacnodes
    records, _ = classified_singularities(c)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = geometric_genus(c, records)
    assert g == -1
    assert caught and issubclass(caught[0].category, UserWarning)


def test_analysis_report_cuspidal():
    report = analysis_report(_curve(CUSPIDAL))
    assert report["degree"] == 3
    assert report["singular_locus_complete"] is True
    assert len(report["singularities"]) == 1
    assert report["singularities"][0]["ade"] == "A2"
    assert report["geometric_genus"] == 0
    assert report["flexes"]["count_with_multiplicity"] == 1
    assert report["genus_warning"] is False


def test_analysis_report_tacnodal_flags_reducibility():
    report = analysis_report(_curve(TACNODAL))
    assert report["geometric_genus"] == -1
    assert report["genus_warning"] is True
    assert any("reducible" in n for n in report["notes"])
