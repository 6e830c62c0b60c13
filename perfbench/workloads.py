"""The three benchmark workloads: seeded inputs, the operation each input
drives, and the exact check of each output.

A workload's ``setup`` builds its inputs from the seed and runs a warm-up;
``run`` performs one operation and is the only code the benchmark times;
``check`` verifies one output exactly and returns False when the program
honestly reports an undecided result.  Checks raise CheckError on a wrong
answer.  ``lib`` is a namespace of plucker_lab modules; operations call
through module attributes so that the traced run sees every call.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


class CheckError(Exception):
    """An operation's output is wrong."""


def _require(cond, message, *args):
    if not cond:
        raise CheckError(message % args if args else message)


def run_cli(lib, argv):
    """``cli.main`` in process, stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_json(out):
    code, text, err = out
    _require(code == 0, "exit status %s: %s", code, err.strip())
    return json.loads(text)


def _golden(root, name):
    return (root / "tests" / "golden" / name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Exact helpers on top of plucker_lab's scalars


def monomial_image(terms, perm, scales):
    """``terms`` (exponent tuple -> scalar) of a polynomial in y, rewritten
    under y_i = scales[i] * x_perm[i]."""
    out = {}
    for exp, c in terms.items():
        new = [0, 0, 0]
        for i, e in enumerate(exp):
            new[perm[i]] = e
            c = c * scales[i] ** e
        out[tuple(new)] = c
    return out


def scalar_terms(poly):
    return {e: c.constant_value() for e, c in poly.terms.items()}


def proportional(a, b):
    """Two term dicts that differ by a nonzero scalar factor."""
    if set(a) != set(b) or not a:
        return False
    k = next(iter(a))
    ratio = a[k] / b[k]
    return all(a[e] == ratio * b[e] for e in a)


def _points(lib, rows):
    return [tuple(lib.polynomials.parse_scalar(c) for c in row) for row in rows]


def _projective(coords):
    pivot = next(c for c in coords if c)
    return tuple(c / pivot for c in coords)


def _map_point(coords, perm, scales):
    """T x with (T x)_i = scales[i] * x_perm[i]."""
    return _projective([scales[i] * coords[perm[i]] for i in range(3)])


# ---------------------------------------------------------------------------
# special-sweep


def _rational_lambdas():
    seen = set()
    for p in range(-9, 10):
        for q in range(1, 10):
            f = Fraction(p, q)
            if max(abs(f.numerator), f.denominator) <= 9:
                seen.add(f)
    return seen


def admissible_lambdas(lib):
    """Rationals of height <= 9 and Eisenstein integers a + b*rho with
    |a|, |b| <= 2, without 1, rho and rho^2, as canonical scalar text."""
    S = lib.scalars.EisensteinScalar
    values = {S(f) for f in _rational_lambdas()}
    values |= {S(a, b) for a in range(-2, 3) for b in range(-2, 3)}
    rho = S(0, 1)
    values -= {S(1), rho, rho * rho}
    return sorted(lib.scalars.render_scalar(v) for v in values)


def load_costs():
    with open(HERE / "lambda_costs.json", encoding="utf-8") as fh:
        return json.load(fh)["seconds"]


def _blocks(items, k):
    n = len(items)
    return [items[i * n // k:(i + 1) * n // k] for i in range(k)]


# The admissible set falls into three cost clusters at the defining commit
# (0.05-0.75 s, 2.2-2.7 s and 7.4-12.1 s per lambda, calibrated).  Every
# draw has the same cost profile, so that run-to-run spread measures the
# program and not the luck of the draw: one lambda from each of 18 strata
# of the light cluster, and one from the middle fifth of the medium and of
# the heavy cluster.
LIGHT_STRATA = 18


def lambda_strata(costs):
    ordered = sorted(costs, key=lambda t: (costs[t], t))
    light = [t for t in ordered if costs[t] < 1.5]
    medium = [t for t in ordered if 1.5 <= costs[t] < 5]
    heavy = [t for t in ordered if costs[t] >= 5]
    return _blocks(light, LIGHT_STRATA) + [_blocks(medium, 5)[2], _blocks(heavy, 5)[2]]


def draw_lambdas(seed, costs):
    rng = random.Random(seed)
    draw = [rng.choice(stratum) for stratum in lambda_strata(costs)]
    rng.shuffle(draw)
    return draw


class SpecialSweep:
    name = "special-sweep"

    def __init__(self, root):
        self.root = root

    def setup(self, lib, seed):
        self.lib = lib
        self.warm = run_cli(lib, ["scenario", "special", "--lambda=2", "--format", "json"])
        return [("special", lam) for lam in draw_lambdas(seed, load_costs())]

    def check_setup(self):
        golden = _golden(self.root, "special_case_lambda2.json")
        self.reference = json.loads(golden)["computed"]
        _require(self.warm[1] == golden, "scenario special --lambda 2 differs from the golden")

    def run(self, kind, lam):
        return run_cli(self.lib, ["scenario", "special", "--lambda=" + lam, "--format", "json"])

    def check(self, kind, lam, out):
        lib = self.lib
        report = _cli_json(out)
        _require(report["passed"] is True, "report did not pass")
        comp = report["computed"]
        _require("singular_locus_complete" in comp, "no singular_locus_complete")
        value = lib.polynomials.parse_scalar(lam)
        _require(lib.polynomials.parse_scalar(report["inputs"]["lambda"]) == value,
                 "report is for lambda %s", report["inputs"]["lambda"])
        for key in ("obstructions", "exceptional_lambdas", "pluecker_6_0_9",
                    "pencil_singular_count", "sextic_degree"):
            _require(comp[key] == self.reference[key], "%s differs from lambda = 2", key)
        sextic = lib.polynomials.bl2_sextic().specialize_lambda(value)
        _require(comp["sextic"] == lib.polynomials.render_poly(sextic), "wrong sextic")
        partials = [sextic.partial_derivative(v) for v in sextic.vars]
        sings = comp["singularities"]
        for s in sings:
            _require((s.get("ade"), s["multiplicity"], s["delta"]) == ("A2", 2, 1),
                     "not a cusp: %s", s)
            pt = _points(lib, [s["point"]])[0]
            _require(all(p.evaluate(pt).is_zero() for p in partials),
                     "%s is not a singular point", s["point"])
        if not comp["singular_locus_complete"]:
            _require(len(sings) <= 9, "%d cusps", len(sings))
            return False
        _require(len(sings) == 9, "%d cusps, want 9", len(sings))
        _require((comp["sextic_genus"], comp["sextic_class"]) == (1, 3),
                 "genus %s class %s", comp["sextic_genus"], comp["sextic_class"])
        return True


# ---------------------------------------------------------------------------
# curve-corpus

# What each base curve must give, from the mathematics and not from the
# code: ADE types of the singular points, genus from the delta invariants,
# flexes 3d(d-2) - 6 per node - 8 per cusp - 12 per tacnode, the number of
# those flexes with coordinates in Q(rho), the class d(d-1) - 2 per node -
# 3 per cusp - 4 per tacnode, and the classical dual where there is one.
# The tacnodal quartic is the two conics x1*x2 = +-x0^2 (genus -1 from the
# delta count); the Fermat quartic's 24 flexes need eighth roots of unity,
# so its flex search is undecided.
EXPECTED = {
    "conic": dict(
        equation="x0*x2 - x1^2", ade=[], genus=0, flexes=0, flex_points=0,
        flexes_complete=True, dual_degree=2, dual="u1^2 - 4*u0*u2"),
    "nodal_cubic": dict(
        equation="x1^2*x2 - x0^2*(x0 + x2)", ade=["A1"], genus=0, flexes=3,
        flex_points=3, flexes_complete=True, dual_degree=4, dual=None),
    "cuspidal_cubic": dict(
        equation="x1^2*x2 - x0^3", ade=["A2"], genus=0, flexes=1, flex_points=1,
        flexes_complete=True, dual_degree=3, dual="4*u0^3 + 27*u1^2*u2"),
    "tacnodal_quartic": dict(
        equation="x1^2*x2^2 - x0^4", ade=["A3", "A3"], genus=-1, flexes=0,
        flex_points=0, flexes_complete=True, dual_degree=4,
        dual="(u0^2 - 4*u1*u2)*(u0^2 + 4*u1*u2)"),
    "fermat_cubic": dict(
        equation="x0^3 + x1^3 + x2^3", ade=[], genus=1, flexes=9, flex_points=9,
        flexes_complete=True, dual_degree=6,
        dual="u0^6 + u1^6 + u2^6 - 2*(u0^3*u1^3 + u0^3*u2^3 + u1^3*u2^3)"),
    "fermat_quartic": dict(
        equation="x0^4 + x1^4 + x2^4", ade=[], genus=3, flexes=24, flex_points=0,
        flexes_complete=False, dual_degree=12,
        dual="(u0^4 + u1^4 + u2^4)^3 - 27*u0^4*u1^4*u2^4"),
}

# The transformed copies of each curve: a fixed coordinate permutation and
# the norms of the three scaling factors.  Analysis cost depends on both
# (the Fermat quartic takes 0.06 s with norms (3, 3, 7) and 0.4-0.6 s with
# (7, 12, 1); the nodal cubic 0.006 s or 0.44 s depending on which
# coordinate gets the norm-12 factor), so the seed only picks which
# Eisenstein integer of each norm scales each coordinate.  Every pass then
# has the same cost profile, heavy combinations included.
TRANSFORMS = (
    ((1, 2, 0), (1, 1, 1)),
    ((1, 2, 0), (1, 3, 4)),
    ((2, 0, 1), (3, 4, 1)),
    ((0, 2, 1), (4, 1, 3)),
    ((2, 1, 0), (3, 3, 7)),
    ((1, 0, 2), (7, 4, 3)),
    ((0, 1, 2), (12, 7, 1)),
    ((1, 2, 0), (4, 12, 7)),
)


def eisenstein_integers(lib):
    """Nonzero a + b*rho with |a|, |b| <= 2, by norm (1, 3, 4, 7 or 12)."""
    S = lib.scalars.EisensteinScalar
    by_norm = {}
    for a in range(-2, 3):
        for b in range(-2, 3):
            if a or b:
                by_norm.setdefault(a * a - a * b + b * b, []).append(S(a, b))
    return by_norm


class CurveCorpus:
    name = "curve-corpus"

    def __init__(self, root):
        self.root = root

    def setup(self, lib, seed):
        self.lib = lib
        X = lib.polynomials.X_VARS
        by_norm = eisenstein_integers(lib)
        one = lib.scalars.EisensteinScalar(1)
        rng = random.Random(seed)
        self.cases = []
        self.base = {}
        for name in sorted(EXPECTED):
            terms = scalar_terms(lib.polynomials.parse_poly(EXPECTED[name]["equation"], X))
            transforms = [((0, 1, 2), (one, one, one))]
            transforms += [(perm, tuple(rng.choice(by_norm[n]) for n in norms))
                           for perm, norms in TRANSFORMS]
            for perm, scales in transforms:
                image = lib.polynomials.MultiPoly(X, monomial_image(terms, perm, scales))
                self.cases.append((name, perm, scales, lib.polynomials.render_poly(image)))
            plain = self.cases[-len(transforms)][3]
            self.base[name] = (self._analyze(plain), self._dual(plain))
        ops = [(kind, i) for i in range(len(self.cases)) for kind in ("analyze", "dual")]
        rng.shuffle(ops)
        return ops

    def _analyze(self, text):
        return run_cli(self.lib, ["curve", "analyze", "--format", "json", "--", text])

    def _dual(self, text):
        return run_cli(self.lib, ["curve", "dual", "--format", "json", "--", text])

    def check_setup(self):
        """The untransformed curves against the mathematics; their outputs
        are then the reference for the transformed copies."""
        lib = self.lib
        P = lib.polynomials
        self.reference = {}
        for name, (analyze_out, dual_out) in self.base.items():
            want = EXPECTED[name]
            report = _cli_json(analyze_out)
            ade = sorted(s.get("ade", s["kind"]) for s in report["singularities"])
            _require(ade == want["ade"], "%s: singularities %s", name, ade)
            _require(report["singular_locus_complete"], "%s: locus incomplete", name)
            _require(report["geometric_genus"] == want["genus"], "%s: genus", name)
            fx = report["flexes"]
            _require(fx["count_with_multiplicity"] == want["flexes"], "%s: flex count", name)
            _require(len(fx["points"]) == want["flex_points"], "%s: flex points", name)
            _require(fx["complete"] == want["flexes_complete"], "%s: flex completeness", name)
            dual = _cli_json(dual_out)
            _require(dual["degree"] == want["dual_degree"], "%s: class %s", name, dual["degree"])
            dpoly = P.parse_poly(dual["equation"], P.U_VARS)
            if want["dual"] is not None:
                _require(proportional(scalar_terms(dpoly),
                                      scalar_terms(P.parse_poly(want["dual"], P.U_VARS))),
                         "%s: dual %s", name, dual["equation"])
            # the dual vanishes on the gradient image: f divides D(grad f)
            curve = P.parse_poly(EXPECTED[name]["equation"], P.X_VARS)
            grads = [curve.partial_derivative(v) for v in curve.vars]
            _require(curve.divides(dpoly.substitute(grads)), "%s: dual certificate", name)
            self.reference[name] = {
                "report": report,
                "sing": {_projective(p) for p in _points(lib, [s["point"] for s in report["singularities"]])},
                "flex": {_projective(p) for p in _points(lib, fx["points"])},
                "dual": scalar_terms(dpoly),
            }

    def run(self, kind, i):
        text = self.cases[i][3]
        return self._analyze(text) if kind == "analyze" else self._dual(text)

    def check(self, kind, i, out):
        lib = self.lib
        name, perm, scales, _ = self.cases[i]
        ref = self.reference[name]
        data = _cli_json(out)
        if kind == "dual":
            want = monomial_image(ref["dual"], perm, [s.inverse() for s in scales])
            got = scalar_terms(lib.polynomials.parse_poly(data["equation"], lib.polynomials.U_VARS))
            _require(proportional(got, want), "%s: dual is not the mapped base dual", name)
            return True
        base = ref["report"]
        for key in ("degree", "singular_locus_complete", "geometric_genus"):
            _require(data[key] == base[key], "%s: %s differs from the base curve", name, key)
        ade = sorted(s.get("ade", s["kind"]) for s in data["singularities"])
        _require(ade == sorted(s.get("ade", s["kind"]) for s in base["singularities"]),
                 "%s: singularity types differ", name)
        sing = {_map_point(p, perm, scales) for p in _points(lib, [s["point"] for s in data["singularities"]])}
        _require(sing == ref["sing"], "%s: singular points do not map to the base", name)
        fx = data["flexes"]
        for key in ("count_with_multiplicity", "complete"):
            _require(fx[key] == base["flexes"][key], "%s: flex %s differs", name, key)
        flex = {_map_point(p, perm, scales) for p in _points(lib, fx["points"])}
        _require(flex == ref["flex"], "%s: flexes do not map to the base", name)
        return data["singular_locus_complete"] and fx["complete"]


# ---------------------------------------------------------------------------
# numerology

MAX_D, MAX_NU, MAX_KAPPA = 20, 120, 120
MAX_INCIDENCE_D = 100


def pluecker_values(d, nu, kappa):
    """Class, flexes, genus and twice the bitangents, from the Pluecker
    formulas."""
    m = d * (d - 1) - 2 * nu - 3 * kappa
    f = 3 * d * (d - 2) - 6 * nu - 8 * kappa
    g = (d - 1) * (d - 2) // 2 - nu - kappa
    return m, f, g, m * (m - 1) - 3 * f - d


class Numerology:
    name = "numerology"

    def __init__(self, root):
        self.root = root

    def setup(self, lib, seed):
        self.lib = lib
        self.warm = run_cli(lib, ["scenario", "main", "--format", "json"])
        ops = [("roundtrip", (d, nu, kappa))
               for d in range(2, MAX_D + 1)
               for nu in range(MAX_NU + 1)
               for kappa in range(MAX_KAPPA + 1)]
        ops += [("incidence", d) for d in range(1, MAX_INCIDENCE_D + 1)]
        ops += [("pencil", d) for d in range(2, MAX_INCIDENCE_D + 1)]
        ops += [("multiplicity", n) for n in range(1, MAX_INCIDENCE_D + 1)]
        ops.append(("main", None))
        random.Random(seed).shuffle(ops)
        return ops

    def check_setup(self):
        self.golden = _golden(self.root, "main_theorem.json")
        _require(self.warm[1] == self.golden, "scenario main differs from the golden")

    def run(self, kind, arg):
        lib = self.lib
        if kind == "roundtrip":
            d, nu, kappa = arg
            try:
                inv = lib.pluecker.dual_invariants(d, nu, kappa)
            except lib.pluecker.InfeasibleInvariantsError as e:
                return e
            return inv, lib.pluecker.solve_nodes_cusps(d, inv.g, inv.m)
        if kind == "incidence":
            return lib.chow.incidence_numerology(arg)
        if kind == "pencil":
            return lib.chow.pencil_singular_count(arg)
        if kind == "multiplicity":
            return lib.chow.multiplicity_bound(arg)
        return lib.corpus.run_main_theorem()

    def check(self, kind, arg, out):
        if kind == "roundtrip":
            m, f, g, b2 = pluecker_values(*arg)
            feasible = min(m, f, g, b2) >= 0 and b2 % 2 == 0
            if isinstance(out, self.lib.pluecker.InfeasibleInvariantsError):
                _require(not feasible, "%s reported infeasible", arg)
                _require(out.values == {"m": m, "f": f, "g": g, "2b": b2}, "%s: values", arg)
                return True
            inv, sol = out
            _require(feasible, "%s reported feasible", arg)
            _require((inv.m, inv.f, inv.g, inv.b) == (m, f, g, b2 // 2), "%s: invariants", arg)
            _require(sol.feasible and (sol.nu, sol.kappa) == arg[1:], "%s: round trip", arg)
            return True
        if kind == "incidence":
            # Gamma = 3 l h^2 + 3 l^2 h, omega = -3h, c1(E) = 3l + 3h and
            # deg l^2 h^2 = 2d give omega.Gamma = -18d and c1(E).Gamma = 36d
            d = arg
            got = (out["deg_omega_dot_gamma"], out["deg_normal_dot_gamma"],
                   out["deg_omega"], out["pa"])
            _require(got == (-18 * d, 36 * d, 18 * d, 9 * d + 1), "incidence at d = %d", d)
            return True
        if kind == "pencil":
            # e(blown-up surface) - e(P1) e(fiber) = 2d + 2 (2d) = 6d
            _require(out == 6 * arg, "pencil count at d = %d", arg)
            return True
        if kind == "multiplicity":
            m = 1
            while (m + 1) * m // 2 <= arg - 1:
                m += 1
            _require(out == m, "multiplicity bound at %d", arg)
            return True
        _require(self.lib.corpus.report_as_json(out) + "\n" == self.golden,
                 "run_main_theorem differs from the golden")
        return True


WORKLOADS = {w.name: w for w in (SpecialSweep, CurveCorpus, Numerology)}
