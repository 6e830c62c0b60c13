"""Built-in curve corpus and end-to-end scenario runners.

The corpus carries the reference curves the test suite classifies (node,
cusp, tacnode, the Fermat cubic and a smooth conic).  The two scenarios
chain the kernels together: the special case runs the sextic family through
the orbit obstruction, its singular locus and the degree bookkeeping, and
the main scenario reproduces the degree-18 branch curve arithmetic.  Every
check cites the acceptance criterion it implements.
"""

import functools
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import _zrho
from .scalars import (
    ONE,
    RHO,
    EisensteinScalar,
    LambdaPoly,
    lambda_roots,
    render_lambda_poly,
    scalar_sort_key,
)
from .polynomials import X_VARS, MultiPoly, bl2_sextic, parse_scalar, render_poly
from .curve import (
    KIND_CUSP,
    PlaneCurve,
    classify_singularity,
    pluecker_counts,
    singular_locus,
)
from .pluecker import dual_invariants, solve_nodes_cusps
from .chow import (
    incidence_numerology,
    multiplicity_bound,
    pencil_singular_count,
)
from .heisenberg import ORDER3_ORBIT_REPRESENTATIVES, TRANSLATIONS, curve_orbit_obstruction, fixes, images, lambda_form


CURVES = {
    "conic": "x0*x2 - x1^2",
    "nodal_cubic": "x1^2*x2 - x0^2*(x0 + x2)",
    "cuspidal_cubic": "x1^2*x2 - x0^3",
    "tacnodal_quartic": "x1^2*x2^2 - x0^4",
    "fermat_cubic": "x0^3 + x1^3 + x2^3",
}


def corpus_names() -> list:
    return sorted(CURVES)


def corpus_curve(name: str) -> PlaneCurve:
    if name not in CURVES:
        raise KeyError("unknown corpus curve %r (have: %s)" % (name, ", ".join(corpus_names())))
    return PlaneCurve.from_text(CURVES[name], X_VARS)


class ScenarioReport:
    """Deterministic record of one scenario run.

    checks entries are dicts with keys name, criterion, passed, detail;
    criterion names the acceptance criterion the check implements.
    """

    def __init__(self, scenario: str, inputs=None, computed=None, checks=None, notes=None):
        self.scenario = scenario
        self.inputs = {} if inputs is None else inputs
        self.computed = {} if computed is None else computed
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is ScenarioReport else NotImplemented

    def __repr__(self):
        return "ScenarioReport(%s)" % ", ".join("%s=%r" % kv for kv in vars(self).items())

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def check(self, name: str, criterion: str, passed, detail: str):
        self.checks.append(
            {
                "name": name,
                "criterion": criterion,
                "passed": bool(passed),
                "detail": detail,
            }
        )

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "inputs": self.inputs,
            "computed": self.computed,
            "checks": self.checks,
            "notes": list(self.notes),
            "passed": self.passed,
        }


def to_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for
    dicts with str keys, lists, tuples, str, int, bool and None; anything
    else raises TypeError.  json writes through its pure-Python encoder
    whenever indent is set; this writer joins strings instead, and quotes
    strings and keys with the C function json calls (which raises the
    TypeError for a key that is not a str)."""
    return _json(obj, "\n")


def _json(obj, newline):
    """to_json at a level whose line break and indentation is newline."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + sep.join(body) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + sep.join([_json(v, inner) for v in obj]) + newline + "]"
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def report_as_json(report: ScenarioReport) -> str:
    return to_json(report.as_dict())


def report_as_text(report: ScenarioReport) -> str:
    lines = ["scenario: %s" % report.scenario]
    if report.inputs:
        lines.append("inputs:")
        for k in sorted(report.inputs):
            lines.append("  %s = %s" % (k, report.inputs[k]))
    lines.append("checks:")
    for c in report.checks:
        mark = "ok " if c["passed"] else "FAIL"
        lines.append(
            "  [%s] %s (%s): %s" % (mark, c["name"], c["criterion"], c["detail"])
        )
    for note in report.notes:
        lines.append("note: %s" % note)
    lines.append("result: %s" % ("pass" if report.passed else "FAIL"))
    return "\n".join(lines)


def _coerce_lambda(value) -> EisensteinScalar:
    if isinstance(value, EisensteinScalar):
        return value
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, (int, Fraction)):
        return EisensteinScalar(value)
    raise TypeError("lambda must be a rational, a scalar or scalar text")


_EXCLUDED_LAMBDAS = (ONE, RHO, RHO * RHO)


@functools.cache
def _family():
    """bl2_sextic() and its lambda_form, built once per process, read only."""
    sextic = bl2_sextic()
    form = lambda_form(sextic)
    if not all(fixes(form[0], g) for g in TRANSLATIONS):
        raise RuntimeError("the 9 translations sigma^i * tau^j must fix the sextic family")
    return sextic, form


def _special_sextic(lam: EisensteinScalar) -> PlaneCurve:
    """PlaneCurve(bl2_sextic().specialize_lambda(lam)), evaluated from _family() on int pairs."""
    sextic, (form, den) = _family()
    values = _zrho.substitute((form.values(),), (lam.an, lam.bn, lam.den))[0]
    m = den * lam.den ** (max(map(len, form.values())) - 1)  # the values' common denominator
    terms = {e: LambdaPoly._raw((EisensteinScalar._raw(a, b, m),)) for e, (a, b) in zip(form, values) if a or b}
    return PlaneCurve(MultiPoly._raw(sextic.vars, terms))


@functools.cache
def _family_obstructions():
    """The sextic family's order-3 orbit obstructions, which do not depend
    on lambda, computed once per process: a (representative text,
    obstruction on int pairs, obstruction text) triple per orbit and the
    sorted texts of the exceptional lambdas, which an incomplete root
    search leaves unproven: it raises RuntimeError."""
    obstructions = curve_orbit_obstruction(_family()[0], use_quadratic_map=True)
    rows = []
    exceptional = set()
    for rep in ORDER3_ORBIT_REPRESENTATIVES:
        ob = obstructions[rep]
        rows.append((str(rep), _zrho.clear(ob.coeffs)[0], render_lambda_poly(ob)))
        if ob.is_zero():
            continue
        search = lambda_roots(ob)
        if not search.complete:
            raise RuntimeError(
                "the root search of the obstruction %s of orbit %s is incomplete"
                % (render_lambda_poly(ob), rep)
            )
        exceptional.update(r for r, _ in search.roots)
    texts = [str(r) for r in sorted(exceptional, key=scalar_sort_key)]
    return tuple(rows), tuple(texts)


def run_special_case(lambda_value) -> ScenarioReport:
    """Sextic-family scenario at one admissible parameter value.

    Reads the family's order-3 orbit obstructions (computed once per
    process), specializes the sextic at lambda_value and classifies its
    singular locus, then cross-checks the numbers: (d, nu, kappa) =
    (6, 0, 9) gives class 3 and genus 1, and the pencil count 18 matches
    3*3 + 9*1.  The translations fix the family (_family checks it) and so
    keep the type of a singular point: one point per translation orbit is
    classified, the others get its record moved; a missing translate raises.
    """
    lam = _coerce_lambda(lambda_value)
    if any(lam == bad for bad in _EXCLUDED_LAMBDAS):
        raise ValueError(
            "lambda = %s is excluded: the family degenerates at the cube roots of unity"
            % lam
        )
    report = ScenarioReport("special-case", inputs={"lambda": str(lam)})

    obstructions, exceptional = _family_obstructions()
    report.computed["obstructions"] = {rep: text for rep, _, text in obstructions}
    report.computed["exceptional_lambdas"] = list(exceptional)
    report.check(
        "orbit-obstructions-nonzero",
        "acceptance 6",
        all(ob for _, ob, _ in obstructions),
        "each order-3 orbit carries a nonzero lambda obstruction",
    )
    report.check(
        "orbits-excluded-at-lambda",
        "acceptance 6",
        all(ob and any(_zrho.value(ob, (lam.an, lam.bn, lam.den))) for _, ob, _ in obstructions),
        "no order-3 orbit lies on the sextic at lambda = %s" % lam,
    )

    sextic = _special_sextic(lam)
    report.computed["sextic"] = render_poly(sextic.equation)
    report.computed["sextic_degree"] = sextic.degree

    locus = singular_locus(sextic)
    records = dict.fromkeys(locus.points)
    for p in locus.points:
        if records[p] is None:
            record = classify_singularity(sextic, p)
            for q in images(p, TRANSLATIONS):
                if q not in records:
                    raise RuntimeError("the translate %s of the singular point %s is not in the locus" % (q, p))
                records[q] = record._replace(point=q)
    records = tuple(records.values())
    cusps = sum(1 for r in records if r.kind == KIND_CUSP)
    report.computed["singularities"] = [r.as_dict() for r in records]
    report.computed["singular_locus_complete"] = locus.complete
    report.notes.extend(locus.notes)
    counts = pluecker_counts(sextic.degree, records, locus)
    if counts is not None:
        report.check(
            "sextic-cusp-locus",
            "acceptance 7",
            len(records) == 9 and cusps == 9,
            "found %d singular points, %d cusps (want 9 cusps)" % (len(records), cusps),
        )
        report.computed["sextic_genus"] = counts[2]
        report.computed["sextic_class"] = counts[0]
        report.check(
            "sextic-genus-class",
            "acceptance 7",
            report.computed["sextic_genus"] == 1
            and report.computed["sextic_class"] == 3,
            "genus %s and class %s from the resolved locus (want 1 and 3)"
            % (report.computed["sextic_genus"], report.computed["sextic_class"]),
        )
    else:
        report.check(
            "sextic-cusp-locus",
            "acceptance 7",
            cusps <= 9 and all(r.kind == KIND_CUSP for r in records),
            "resolution incomplete: %d of 9 cusps found; the (6,0,9) cross-check below carries the verification"
            % cusps,
        )

    inv = dual_invariants(6, 0, 9)
    report.computed["pluecker_6_0_9"] = inv.as_dict()
    report.check(
        "pluecker-six-zero-nine",
        "acceptance 7",
        (inv.m, inv.f, inv.b, inv.g) == (3, 0, 0, 1),
        "(d, nu, kappa) = (6, 0, 9) gives class %d, flexes %d, bitangents %d, genus %d"
        % (inv.m, inv.f, inv.b, inv.g),
    )

    pencil = pencil_singular_count(3)
    report.computed["pencil_singular_count"] = pencil
    report.check(
        "degree-bookkeeping",
        "acceptance 4",
        3 * 3 + 9 * 1 == 18 and pencil == 18,
        "3*deg(cubic) + 9 lines = 18 = singular members of the pencil",
    )
    return report


def run_main_theorem() -> ScenarioReport:
    """Branch-curve arithmetic for the degree-18 case.

    Solves the node-cusp system at (d, g, m) = (18, 28, 18), fills in the
    dual invariants, rejects both degree-9 alternatives, and confirms the
    intersection-ring numbers behind the genus and the degree."""
    report = ScenarioReport("main-theorem")

    sol = solve_nodes_cusps(18, 28, 18)
    report.computed["solve_18_28_18"] = sol.as_dict()
    report.check(
        "node-cusp-solve",
        "acceptance 1",
        sol.feasible and (sol.nu, sol.kappa) == (36, 72),
        "(d, g, m) = (18, 28, 18) forces (nu, kappa) = (%s, %s)" % (sol.nu, sol.kappa),
    )

    inv = dual_invariants(18, 36, 72)
    report.computed["invariants_18_36_72"] = inv.as_dict()
    report.check(
        "dual-invariants",
        "acceptance 1",
        (inv.m, inv.f, inv.b) == (18, 72, 36),
        "(m, f, b) = (%d, %d, %d), self-dual degree/class pair" % (inv.m, inv.f, inv.b),
    )

    branch_a = solve_nodes_cusps(9, 28, 18)
    report.computed["solve_9_28_18"] = branch_a.as_dict()
    report.check(
        "degree-9-smooth-branch",
        "acceptance 2",
        (not branch_a.feasible) and branch_a.violated_identity == "18 = 72",
        "degree 9 with genus 28 is rejected: %s" % branch_a.violated_identity,
    )

    branch_b = solve_nodes_cusps(9, 19, 18)
    report.computed["solve_9_19_18"] = branch_b.as_dict()
    report.check(
        "degree-9-singular-branch",
        "acceptance 2",
        (not branch_b.feasible) and branch_b.raw == (-27, 36),
        "degree 9 with genus 19 is rejected: raw solution (nu, kappa) = (%s, %s)"
        % branch_b.raw,
    )

    data = incidence_numerology(3)
    report.computed["incidence"] = {
        "pa": data["pa"],
        "deg_omega": data["deg_omega"],
        "deg_omega_dot_gamma": data["deg_omega_dot_gamma"],
        "deg_normal_dot_gamma": data["deg_normal_dot_gamma"],
    }
    report.check(
        "incidence-genus",
        "acceptance 3",
        data["pa"] == 28 and data["deg_omega"] == 54,
        "incidence curve has p_a = %d and canonical degree %d" % (data["pa"], data["deg_omega"]),
    )
    report.check(
        "genus-chain",
        "acceptance 3",
        inv.g == data["pa"] == 28,
        "geometric genus of the branch curve equals the incidence genus 28",
    )

    pencil = pencil_singular_count(3)
    report.computed["pencil_singular_count"] = pencil
    report.check(
        "pencil-count",
        "acceptance 4",
        pencil == 18,
        "a general pencil has %d singular members, the branch curve degree" % pencil,
    )

    bound = multiplicity_bound(3)
    report.computed["multiplicity_bound"] = bound
    report.check(
        "multiplicity-bound",
        "acceptance 9",
        bound == 2,
        "ordinary multiplicities on irreducible members are at most %d" % bound,
    )
    return report
