"""The result records of the curve, heisenberg, scalars, chow and corpus
layers, as callers see them: repr, read-only fields, equality and hash,
completeness from notes, and fresh containers for every scenario report.
(test_pluecker.py pins the two Pluecker records.)"""

import pytest

from plucker_lab.chow import ChowClass
from plucker_lab.corpus import ScenarioReport
from plucker_lab.curve import (
    FlexSearch,
    PlaneCurve,
    SingularityRecord,
    SingularLocus,
    classified_singularities,
    flexes,
)
from plucker_lab.heisenberg import FixedLocus, Orbit, fixed_locus, orbit
from plucker_lab.scalars import LambdaPoly, RootSearch, lambda_roots


def _records():
    records, locus = classified_singularities(PlaneCurve.from_text("x1^2*x2 - x0^3"))
    return {
        "record": records[0],
        "locus": locus,
        "flexes": flexes(PlaneCurve.from_text("x1^2*x2 - x0^3")),
        "orbit": orbit([1, 0, 0]),
        "fixed": fixed_locus(),
        "roots": lambda_roots(LambdaPoly([-1, 0, 1])),
        "chow": ChowClass.l(2),
    }


def test_record_reprs():
    r = _records()
    assert repr(r["record"]) == (
        "SingularityRecord(point=(0 : 0 : 1), multiplicity=2, kind='cusp', delta=1, note='')"
    )
    assert repr(r["locus"]) == "SingularLocus(points=((0 : 0 : 1),), notes=())"
    assert repr(r["flexes"]) == (
        "FlexSearch(points=((0 : 1 : 0),), count_with_multiplicity=1, notes=())"
    )
    assert repr(r["orbit"]) == "Orbit(points=((0 : 0 : 1), (0 : 1 : 0), (1 : 0 : 0)))"
    assert repr(r["fixed"]).startswith(
        "FixedLocus(lines=(-x0 + x1, -rho*x0 + x1, (1 + rho)*x0 + x1, "
    )
    assert ", points=((1 : -1 : 0), " in repr(r["fixed"])
    assert ", triple_points=(" in repr(r["fixed"])
    assert repr(r["roots"]) == "RootSearch(roots=((-1, 1), (1, 1)), unresolved=())"
    assert repr(lambda_roots(LambdaPoly([-2, 0, 0, 1]))) == (
        "RootSearch(roots=(), unresolved=(-2 + lambda^3,))"
    )
    assert repr(r["chow"]) == "ChowClass(coeffs=((0, 0, 0), (1, 0, 0), (0, 0, 0)), d=2)"
    report = ScenarioReport("a")
    assert repr(report) == (
        "ScenarioReport(scenario='a', inputs={}, computed={}, checks=[], notes=[])"
    )
    report.check("x", "c", 1, "d")
    assert repr(report) == (
        "ScenarioReport(scenario='a', inputs={}, computed={}, checks=[{'name': 'x', "
        "'criterion': 'c', 'passed': True, 'detail': 'd'}], notes=[])"
    )


FIELDS = {
    "record": ("point", "multiplicity", "kind", "delta", "note"),
    "locus": ("points", "notes"),
    "flexes": ("points", "count_with_multiplicity", "notes"),
    "orbit": ("points",),
    "fixed": ("lines", "points", "triple_points"),
    "roots": ("roots", "unresolved"),
    "chow": ("coeffs", "d"),
}


@pytest.mark.parametrize("key", sorted(FIELDS))
def test_records_are_read_only(key):
    record = _records()[key]
    before = repr(record)
    for name in FIELDS[key] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in FIELDS[key]:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


def test_chow_class_equality_and_hash():
    a = ChowClass.l(2)
    assert a == ChowClass.monomial(1, 0, 2) == ChowClass(coeffs=a.coeffs, d=2)
    assert a == ChowClass._raw(a.coeffs, 2)
    assert a != ChowClass.l(3) and a != ChowClass.h(2)
    assert hash(a) == hash((a.coeffs, 2)) == hash(ChowClass.monomial(1, 0, 2))
    assert len({a, ChowClass.monomial(1, 0, 2), ChowClass.l(3)}) == 2
    # other types are not compared: a class is not the tuple of its fields
    assert a.__eq__((a.coeffs, 2)) is NotImplemented
    assert a != (a.coeffs, 2) and (a.coeffs, 2) != a
    assert a != a.coeffs and a != 0
    with pytest.raises(TypeError):
        (1, 2) + a


def test_complete_follows_the_notes():
    p = _records()["locus"].points
    assert SingularLocus(p).notes == () and SingularLocus(p).complete is True
    assert SingularLocus(p, ("unresolved degree-2 factor in x1",)).complete is False
    assert FlexSearch(p, 3).notes == () and FlexSearch(p, 3).complete is True
    assert FlexSearch(p, 3, ("flex count went negative",)).complete is False
    assert SingularityRecord(p[0], 2, "node", 1).note == ""
    assert hash(SingularLocus(p)) == hash(SingularLocus(p, ()))
    assert RootSearch((), ()).complete and not RootSearch((), (LambdaPoly([1, 0, 0, 1]),)).complete
    assert Orbit(p).size == 1 and p[0] in Orbit(p)
    assert FixedLocus((), (), ()).triple_points == ()


def test_scenario_reports_do_not_share_containers():
    a, b = ScenarioReport("a"), ScenarioReport("a")
    assert a == b and a != ScenarioReport("b")
    a.inputs["lambda"] = "2"
    a.computed["genus"] = 1
    a.check("x", "c", True, "d")
    a.notes.append("n")
    assert (b.inputs, b.computed, b.checks, b.notes) == ({}, {}, [], [])
    assert b.as_dict() == ScenarioReport("a").as_dict()
    assert a != b
    c = ScenarioReport("c", inputs={"k": 1}, notes=["m"])
    assert (c.scenario, c.inputs, c.computed, c.checks, c.notes) == ("c", {"k": 1}, {}, [], ["m"])
    c.computed["x"] = 0
    assert ScenarioReport("c").computed == {}
    with pytest.raises(TypeError):
        hash(a)
