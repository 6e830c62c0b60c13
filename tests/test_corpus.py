import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from plucker_lab import _zrho, corpus, scalars
from plucker_lab.curve import PlaneCurve, SingularityRecord, classify_singularity, singular_locus
from plucker_lab.heisenberg import TRANSLATIONS, curve_orbit_obstruction, images
from plucker_lab.scalars import ONE, RHO, EisensteinScalar, LambdaPoly, RootSearch
from plucker_lab.polynomials import MultiPoly, bl2_sextic, parse_scalar
from plucker_lab.corpus import (
    CURVES,
    ScenarioReport,
    corpus_curve,
    corpus_names,
    report_as_json,
    report_as_text,
    run_main_theorem,
    run_special_case,
)

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# ---------------------------------------------------------------------------
# corpus curves


def test_corpus_names():
    names = corpus_names()
    assert names == sorted(names)
    assert set(names) == set(CURVES)
    assert "cuspidal_cubic" in names


def test_corpus_curve():
    c = corpus_curve("fermat_cubic")
    assert c.degree == 3
    with pytest.raises(KeyError):
        corpus_curve("astroid")


# ---------------------------------------------------------------------------
# report plumbing


def test_scenario_report_aggregation():
    sr = ScenarioReport(scenario="demo")
    sr.check("good", "acceptance 0", True, "fine")
    assert sr.passed
    sr.check("bad", "acceptance 0", False, "boom")
    assert not sr.passed
    text = report_as_text(sr)
    assert "[ok ] good" in text
    assert "[FAIL] bad" in text
    assert text.rstrip().endswith("result: FAIL")
    data = json.loads(report_as_json(sr))
    assert data["passed"] is False
    assert len(data["checks"]) == 2


# ---------------------------------------------------------------------------
# main theorem scenario


def test_main_theorem_passes():
    report = run_main_theorem()
    assert report.passed
    names = [c["name"] for c in report.checks]
    assert "node-cusp-solve" in names
    assert "degree-9-smooth-branch" in names
    assert "multiplicity-bound" in names


def test_main_theorem_matches_golden():
    got = report_as_json(run_main_theorem()) + "\n"
    want = (GOLDEN / "main_theorem.json").read_text()
    assert got == want


# ---------------------------------------------------------------------------
# special member scenario


def test_special_case_lambda_2_passes():
    report = run_special_case(2)
    assert report.passed
    assert report.inputs["lambda"] == "2"
    # the bad values are exactly the cube roots of unity
    assert set(report.computed["exceptional_lambdas"]) == {
        "1",
        "rho",
        "-1 - rho",
    }


def test_special_case_matches_golden():
    got = report_as_json(run_special_case(2)) + "\n"
    want = (GOLDEN / "special_case_lambda2.json").read_text()
    assert got == want


def test_orbit_obstruction_runs_once_per_process(monkeypatch):
    calls = []
    real = corpus.curve_orbit_obstruction

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(corpus, "curve_orbit_obstruction", counting)
    corpus._family_obstructions.cache_clear()
    reports = [run_special_case(lam) for lam in (3, Fraction(1, 2), "2 + rho")]
    assert len(calls) == 1
    assert all(r.passed for r in reports)
    # reports share nothing mutable with the cached computation
    mangled = reports[-1].computed
    rep = next(iter(mangled["obstructions"]))
    mangled["obstructions"][rep] = "0"
    mangled["exceptional_lambdas"].append("7")
    mangled["exceptional_lambdas"].reverse()
    got = report_as_json(run_special_case(2)) + "\n"
    assert got == (GOLDEN / "special_case_lambda2.json").read_text()
    assert len(calls) == 1


def test_incomplete_obstruction_root_search_raises(monkeypatch):
    # x^3 - 2 has no root in Q(rho) and is left unresolved
    undecided = RootSearch(roots=(), unresolved=(LambdaPoly([-2, 0, 0, 1]),))
    monkeypatch.setattr(corpus, "lambda_roots", lambda p: undecided)
    corpus._family_obstructions.cache_clear()
    with pytest.raises(RuntimeError, match="obstruction .* is incomplete"):
        run_special_case(2)


def test_special_case_is_deterministic():
    a = report_as_json(run_special_case(Fraction(1, 2)))
    b = report_as_json(run_special_case(Fraction(1, 2)))
    assert a == b


def test_special_case_lambda_coercions():
    for lam in [3, Fraction(-1, 2), "3", "-1/2", parse_scalar("2 + rho")]:
        assert run_special_case(lam).passed


def test_special_case_random_rational_lambdas():
    rng = random.Random(20260814)
    seen = set()
    for _ in range(5):
        while True:
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if lam != 1 and lam not in seen:
                seen.add(lam)
                break
        report = run_special_case(lam)
        assert report.passed, report_as_text(report)


def test_special_case_resolves_all_cusps_at_four_minus_four_rho():
    # the chart eliminant here has 9 double roots with large norms
    report = run_special_case(4 - 4 * RHO)
    assert report.passed, report_as_text(report)
    assert report.computed["singular_locus_complete"] is True
    points = report.computed["singularities"]
    assert len(points) == 9
    assert all(s["ade"] == "A2" for s in points)


def admissible_lambdas():
    """The 128 admissible lambdas of perfbench's special-sweep, which is
    only read here: rationals of height <= 9 and a + b*rho with |a|, |b|
    <= 2, without 1, rho and rho^2."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return [parse_scalar(t) for t in workloads.admissible_lambdas(SimpleNamespace(scalars=scalars))]


def _per_point_records(lam):
    """The special sextic's singular locus and each point's own record."""
    sextic = PlaneCurve(bl2_sextic().specialize_lambda(lam))
    locus = singular_locus(sextic)
    return locus, [classify_singularity(sextic, p).as_dict() for p in locus.points]


def test_special_case_sweeps_every_admissible_lambda():
    lams = admissible_lambdas()
    assert len(lams) == 128
    for lam in lams:
        report = run_special_case(lam)
        assert report.passed, report_as_text(report)
        assert report.computed["singular_locus_complete"] is True, lam
        points = report.computed["singularities"]
        assert [s["ade"] for s in points] == ["A2"] * 9, lam
        # one record per translation orbit, copied with its point moved,
        # is the record each point gets on its own; the orbit is the locus
        locus, want = _per_point_records(lam)
        assert points == want, lam
        assert sorted(images(locus.points[0], TRANSLATIONS), key=lambda p: p.sort_key()) == list(locus.points)


def test_a_record_copied_without_moving_its_point_is_caught(monkeypatch):
    monkeypatch.setattr(SingularityRecord, "_replace", lambda self, **kw: self)
    got = run_special_case(2).computed["singularities"]
    assert got != _per_point_records(EisensteinScalar(2))[1]
    assert len({tuple(s["point"]) for s in got}) == 1


def test_a_translate_missing_from_the_locus_raises(monkeypatch):
    def short(c):
        locus = singular_locus(c)
        return locus._replace(points=locus.points[:-1])

    monkeypatch.setattr(corpus, "singular_locus", short)
    with pytest.raises(RuntimeError, match="translate .* is not in the locus"):
        run_special_case(2)


def test_a_family_the_translations_do_not_fix_is_refused(monkeypatch):
    # a perturbed coefficient: sigma moves y0^3*y1^3 onto a term with another one
    sextic = bl2_sextic()
    perturbed = MultiPoly(sextic.vars, {**sextic.terms, (3, 3, 0): LambdaPoly((ONE,))})
    monkeypatch.setattr(corpus, "bl2_sextic", lambda: perturbed)
    corpus._family.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="translations"):
            run_special_case(2)
    finally:
        corpus._family.cache_clear()


def _fields(c):
    """A PlaneCurve's fields in order, every scalar as its normalized ints."""
    terms = [(e, [(s.an, s.bn, s.den) for s in f.coeffs]) for e, f in c.equation.terms.items()]
    return c.equation.vars, terms, c.degree, list(c.form.items())


def test_special_sextic_matches_the_object_path():
    lams = admissible_lambdas()
    assert len(lams) == 128
    for lam in lams:
        got = corpus._special_sextic(lam)
        want = PlaneCurve(bl2_sextic().specialize_lambda(lam))
        assert type(got) is PlaneCurve and got.equation == want.equation
        assert _fields(got) == _fields(want), lam
    # the excluded values too: the curve does not depend on the exclusion
    for lam in (EisensteinScalar(1), RHO, RHO * RHO, EisensteinScalar(0)):
        assert _fields(corpus._special_sextic(lam)) == _fields(
            PlaneCurve(bl2_sextic().specialize_lambda(lam))
        )


def test_obstruction_values_at_lambda_match_the_object_path():
    rows, _ = corpus._family_obstructions()
    obstructions = curve_orbit_obstruction(bl2_sextic(), use_quadratic_map=True)
    assert [ob for _, ob, _ in rows] == [_zrho.clear(ob.coeffs)[0] for ob in obstructions.values()]
    for lam in admissible_lambdas() + [EisensteinScalar(1), RHO, RHO * RHO]:
        for (_, pairs, _), ob in zip(rows, obstructions.values()):
            assert any(_zrho.value(pairs, (lam.an, lam.bn, lam.den))) == bool(ob.evaluate(lam)), lam


def test_the_exclusion_check_reads_the_obstructions_at_lambda(monkeypatch):
    rows, texts = corpus._family_obstructions()

    def with_first(pairs):
        monkeypatch.setattr(corpus, "_family_obstructions", lambda: (((rows[0][0], pairs, "p"),) + rows[1:], texts))
        return {c["name"]: c["passed"] for c in run_special_case(2).checks}

    # lambda - 2 vanishes at 2 only; 2*lambda - 3 nowhere admissible here
    assert with_first([(-2, 0), (1, 0)])["orbits-excluded-at-lambda"] is False
    assert with_first([(-3, 0), (2, 0)])["orbits-excluded-at-lambda"] is True
    # an identically zero obstruction fails both checks
    checks = with_first([])
    assert checks["orbit-obstructions-nonzero"] is False and checks["orbits-excluded-at-lambda"] is False


def test_special_case_rejects_degenerate_lambdas():
    for bad in [1, RHO, RHO * RHO, "rho", "-1 - rho"]:
        with pytest.raises(ValueError):
            run_special_case(bad)
