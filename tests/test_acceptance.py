"""One test per shipped acceptance criterion.

Each test ends by recording a single pass/fail line through the
acceptance_log fixture; the lines are printed together after the run.
Timed criteria assert wall-clock budgets measured with perf_counter.
"""

import random
import time
from fractions import Fraction

from plucker_lab.scalars import (
    ONE,
    RHO,
    EisensteinScalar,
    lambda_roots,
)
from plucker_lab.polynomials import (
    MultiPoly,
    X_VARS,
    bl2_sextic,
    resultant,
)
from plucker_lab.curve import (
    KIND_CUSP,
    PlaneCurve,
    ProjectivePoint,
    classified_singularities,
    dual_curve,
)
from plucker_lab.pluecker import (
    InfeasibleInvariantsError,
    dual_invariants,
    solve_nodes_cusps,
)
import plucker_lab.chow as chow
from plucker_lab.chow import (
    ChowClass,
    incidence_numerology,
    multiplicity_bound,
    pencil_singular_count,
)
import plucker_lab.heisenberg as heisenberg
from plucker_lab.heisenberg import (
    ORDER3_ORBIT_REPRESENTATIVES,
    curve_orbit_obstruction,
    enumerate_group,
    fixed_locus,
    orbit,
)

RHO2 = RHO * RHO


def _best_of(fn, repeats=5):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return result, best


def _finish(acceptance_log, number, detail):
    # reached only when every assertion above held
    acceptance_log(number, True, detail)


def _guard(acceptance_log, number, body):
    try:
        detail = body()
    except BaseException as e:
        acceptance_log(number, False, "%s: %s" % (type(e).__name__, e))
        raise
    _finish(acceptance_log, number, detail)


# ---------------------------------------------------------------------------


def test_criterion_1_headline_numbers(acceptance_log):
    def body():
        sol, dt_solve = _best_of(lambda: solve_nodes_cusps(18, 28, 18))
        assert sol.feasible
        assert (sol.nu, sol.kappa) == (36, 72)
        inv, dt_dual = _best_of(lambda: dual_invariants(18, 36, 72))
        assert (inv.m, inv.f, inv.b) == (18, 72, 36)
        assert dt_solve < 0.001, "solve took %.6fs" % dt_solve
        assert dt_dual < 0.001, "dual took %.6fs" % dt_dual
        return (
            "(18, 28, 18) -> (nu, kappa) = (36, 72) and "
            "(18, 36, 72) -> (m, f, b) = (18, 72, 36), both under 1 ms"
        )

    _guard(acceptance_log, 1, body)


def test_criterion_2_degree_9_branches(acceptance_log):
    def body():
        smooth, dt_a = _best_of(lambda: solve_nodes_cusps(9, 28, 18))
        assert not smooth.feasible
        assert smooth.violated_identity == "18 = 72"
        assert smooth.raw == (-54, 54)
        singular, dt_b = _best_of(lambda: solve_nodes_cusps(9, 19, 18))
        assert not singular.feasible
        assert singular.raw == (-27, 36)
        assert all(type(x) is int for x in smooth.raw + singular.raw)
        assert dt_a < 0.001 and dt_b < 0.001
        return (
            "degree-9 branches infeasible: genus 28 trips '18 = 72', "
            "genus 19 solves to (-27, 36); under 1 ms"
        )

    _guard(acceptance_log, 2, body)


def test_criterion_3_incidence_genus(acceptance_log):
    def body():
        def cold():
            chow._incidence_grids.cache_clear()  # time the twist, not a lookup
            return incidence_numerology(3)

        data, dt = _best_of(cold)
        assert data["pa"] == 28
        assert data["deg_omega"] == 54
        # intermediate l^2 h^2 coefficients and their intersection degrees
        assert data["omega_dot_gamma"].coefficient(2, 2) == -9
        assert data["deg_omega_dot_gamma"] == -9 * 2 * 3
        assert data["normal_dot_gamma"].coefficient(2, 2) == 18
        assert data["deg_normal_dot_gamma"] == 18 * 2 * 3
        assert dt < 0.001, "numerology took %.6fs" % dt
        return (
            "p_a = 28 and deg omega = 54 through the truncated ring; "
            "l^2*h^2 coefficients -9 and 18 check out; under 1 ms"
        )

    _guard(acceptance_log, 3, body)


def test_criterion_4_pencil_count(acceptance_log):
    def body():
        n = pencil_singular_count(3)
        assert n == 18
        # 3*deg(E) + the nine lines
        assert n == 3 * 3 + 9
        return "pencil of cubics has 18 singular members = 3*3 + 9"

    _guard(acceptance_log, 4, body)


def test_criterion_5_group_suite(acceptance_log):
    def body():
        heisenberg._group.cache_clear()  # time a cold start
        t0 = time.perf_counter()
        group = enumerate_group()
        table = {
            ProjectivePoint((1, 0, 0)): {
                ProjectivePoint((1, 0, 0)),
                ProjectivePoint((0, 1, 0)),
                ProjectivePoint((0, 0, 1)),
            },
            ProjectivePoint((1, 1, 1)): {
                ProjectivePoint((1, 1, 1)),
                ProjectivePoint((ONE, RHO, RHO2)),
                ProjectivePoint((ONE, RHO2, RHO)),
            },
            ProjectivePoint((ONE, ONE, RHO)): {
                ProjectivePoint((ONE, ONE, RHO)),
                ProjectivePoint((ONE, RHO, ONE)),
                ProjectivePoint((RHO, ONE, ONE)),
            },
            ProjectivePoint((ONE, ONE, RHO2)): {
                ProjectivePoint((ONE, ONE, RHO2)),
                ProjectivePoint((ONE, RHO2, ONE)),
                ProjectivePoint((RHO2, ONE, ONE)),
            },
        }
        orbits = {rep: orbit(rep) for rep in table}
        fl = fixed_locus()
        dt = time.perf_counter() - t0
        assert len(group) == 18
        assert tuple(table) == ORDER3_ORBIT_REPRESENTATIVES
        for rep, expect in table.items():
            assert orbits[rep].size == 3
            assert set(orbits[rep].points) == expect
        assert len(fl.lines) == 9
        assert len(fl.points) == 9
        assert len(fl.triple_points) == 12
        assert dt < 0.1, "cold group suite took %.4fs" % dt
        return (
            "18 elements, 4 size-3 orbits matching the table point for "
            "point, fixed locus 9 + 9 + 12, under 100 ms"
        )

    _guard(acceptance_log, 5, body)


def test_criterion_6_orbit_exclusion(acceptance_log):
    def body():
        t0 = time.perf_counter()
        obstructions = curve_orbit_obstruction(
            bl2_sextic(), use_quadratic_map=True
        )
        resolved = set()
        for rep in ORDER3_ORBIT_REPRESENTATIVES:
            ob = obstructions[rep]
            assert not ob.is_zero()
            search = lambda_roots(ob)
            resolved |= set(search.values)
        assert len(resolved) < float("inf")  # a finite, explicit set
        assert resolved == {ONE, RHO, RHO2}
        rng = random.Random(1337)
        samples = []
        while len(samples) < 5:
            lam = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            if lam != 1 and lam not in samples:
                samples.append(lam)
        excluded = 0
        for lam in samples:
            s = EisensteinScalar(lam)
            if all(
                bool(obstructions[rep].evaluate(s))
                for rep in ORDER3_ORBIT_REPRESENTATIVES
            ):
                excluded += 1
        dt = time.perf_counter() - t0
        assert excluded >= 3, "only %d of 5 samples excluded" % excluded
        assert dt < 10, "orbit exclusion took %.2fs" % dt
        return (
            "4 nonzero obstructions, exceptional set {1, rho, rho^2}, "
            "%d of 5 random admissible lambdas excluded, under 10 s" % excluded
        )

    _guard(acceptance_log, 6, body)


def test_criterion_7_fermat_dual(acceptance_log):
    def body():
        t0 = time.perf_counter()
        fermat = PlaneCurve.from_text("x0^3 + x1^3 + x2^3", X_VARS)
        dual = dual_curve(fermat)
        assert dual.degree == 6
        records, locus = classified_singularities(dual)
        assert all(r.kind == KIND_CUSP for r in records)
        # nine cusps' worth of delta, fully resolved or not
        assert sum(r.delta for r in records) == 9
        assert locus.complete and len(records) == 9
        inv = dual_invariants(6, 0, 9)
        assert inv.m == 3 and inv.g == 1
        dt = time.perf_counter() - t0
        assert dt < 60, "dual analysis took %.2fs" % dt
        return (
            "dual of the Fermat cubic is a sextic with 9 cusps, all A2; "
            "(6, 0, 9) cross-checks to class 3, genus 1; under 60 s"
        )

    _guard(acceptance_log, 7, body)


def _random_poly(rng, variables, maxdeg, span, terms):
    p = MultiPoly.zero(variables)
    for _ in range(rng.randint(1, terms)):
        exp = tuple(rng.randint(0, maxdeg) for _ in variables)
        c = EisensteinScalar(rng.randint(-span, span), rng.randint(-1, 1))
        term = MultiPoly.constant(variables, c)
        for v, e in zip(variables, exp):
            term = term * MultiPoly.variable(variables, v) ** e
        p = p + term
    return p


def test_criterion_8_property_suites(acceptance_log):
    def body():
        rng = random.Random(271828)
        variables = ("x", "y")

        # resultant multiplicativity and swap symmetry, 200 cases
        res_cases = 0
        while res_cases < 200:
            f = _random_poly(rng, variables, 2, 3, 3)
            g = _random_poly(rng, variables, 2, 3, 3)
            h = _random_poly(rng, variables, 2, 3, 3)
            degs = [p.degree_in("y") for p in (f, g, h)]
            if min(degs) < 1:
                continue
            lhs = resultant(f * g, h, "y")
            rhs = resultant(f, h, "y") * resultant(g, h, "y")
            assert lhs == rhs
            sign = (-1) ** (degs[0] * degs[2])
            swapped = resultant(h, f, "y")
            assert resultant(f, h, "y") == swapped * sign
            res_cases += 1

        # Euler identity d*p = sum_i x_i dp/dx_i on homogeneous parses
        euler_cases = 0
        while euler_cases < 60:
            p = _random_poly(rng, X_VARS, 3, 4, 4)
            if p.is_zero() or not p.is_homogeneous():
                parts = {}
                for exp, c in p.terms.items():
                    parts.setdefault(sum(exp), []).append((exp, c))
                if not parts:
                    continue
                degree = max(parts)
                p = MultiPoly(X_VARS, dict(parts[degree]))
            d = p.total_degree()
            acc = MultiPoly.zero(X_VARS)
            for v in X_VARS:
                acc = acc + MultiPoly.variable(X_VARS, v) * p.partial_derivative(v)
            assert acc == p * MultiPoly.constant(X_VARS, EisensteinScalar(d))
            euler_cases += 1

        # Plucker round-trip on every feasible (d <= 20, nu, kappa <= 120)
        roundtrips = 0
        for d in range(2, 21):
            pa = (d - 1) * (d - 2) // 2
            for nu in range(121):
                for kappa in range(121):
                    m = d * (d - 1) - 2 * nu - 3 * kappa
                    if m < 2:
                        continue
                    f = 3 * d * (d - 2) - 6 * nu - 8 * kappa
                    if f < 0:
                        continue
                    g = pa - nu - kappa
                    if g < 0:
                        continue
                    b2 = m * (m - 1) - 3 * f - d
                    if b2 < 0 or b2 % 2:
                        continue
                    inv = dual_invariants(d, nu, kappa)
                    assert (inv.m, inv.f, inv.g, 2 * inv.b) == (m, f, g, b2)
                    sol = solve_nodes_cusps(d, g, m)
                    assert sol.feasible
                    assert (sol.nu, sol.kappa) == (nu, kappa)
                    roundtrips += 1
        assert roundtrips > 40000

        # infeasible triples must raise, not return junk
        for d, nu, kappa in [(4, 0, 50), (3, 4, 0), (5, 0, 8)]:
            try:
                dual_invariants(d, nu, kappa)
            except InfeasibleInvariantsError:
                pass
            else:
                raise AssertionError("(%d, %d, %d) should be infeasible" % (d, nu, kappa))

        # chow ring axioms on random classes
        def rand_class():
            grid = tuple(
                tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3)
            )
            return ChowClass(grid, 3)

        one = ChowClass.one(3)
        for _ in range(40):
            a, b, c = rand_class(), rand_class(), rand_class()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a

        return (
            "resultant x200, Euler x60, %d Plucker round-trips, "
            "chow axioms x40, zero failures" % roundtrips
        )

    _guard(acceptance_log, 8, body)


def test_criterion_9_multiplicity_and_corpus(acceptance_log):
    def body():
        assert multiplicity_bound(3) == 2
        expect = {
            "x1^2*x2 - x0^2*(x0 + x2)": ("A1", 1),
            "x1^2*x2 - x0^3": ("A2", 1),
            "x1^2*x2^2 - x0^4": ("A3", 2),
        }
        for text, (ade, delta) in expect.items():
            c = PlaneCurve.from_text(text, X_VARS)
            records, locus = classified_singularities(c)
            assert locus.complete
            assert records, "no singular points found for %s" % text
            for r in records:
                assert r.as_dict().get("ade") == ade
                assert r.delta == delta
        return (
            "multiplicity bound 2 at n = 3; corpus classifies "
            "A1/A2/A3 with delta 1/1/2"
        )

    _guard(acceptance_log, 9, body)
