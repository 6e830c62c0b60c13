import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from plucker_lab import _zrho, corpus
from plucker_lab.curve import PlaneCurve
from plucker_lab.heisenberg import curve_orbit_obstruction
from plucker_lab.scalars import RHO, EisensteinScalar, LambdaPoly, RootSearch, scalar_sort_key
from plucker_lab.polynomials import bl2_sextic, parse_scalar
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
    """The 128 admissible lambdas: rationals of height <= 9 and a + b*rho
    with |a|, |b| <= 2, without 1, rho and rho^2."""
    values = {EisensteinScalar(Fraction(p, q)) for p in range(-9, 10) for q in range(1, 10)}
    values |= {EisensteinScalar(a, b) for a in range(-2, 3) for b in range(-2, 3)}
    return sorted(values - {EisensteinScalar(1), RHO, RHO * RHO}, key=scalar_sort_key)


def test_special_case_sweeps_every_admissible_lambda():
    lams = admissible_lambdas()
    assert len(lams) == 128
    for lam in lams:
        report = run_special_case(lam)
        assert report.passed, report_as_text(report)
        assert report.computed["singular_locus_complete"] is True, lam
        points = report.computed["singularities"]
        assert [s["ade"] for s in points] == ["A2"] * 9, lam


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
