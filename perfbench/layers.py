"""The traced layers and the per-layer metrics derived from their spans.

Each entry names a binding of plucker_lab that callers go through; the
metric prefix is ``<module>.<function>``.  README.md maps each layer to
the end-to-end metric and workload it should move.
"""

from tracing import Layer, LayerStats


def _coeff_bits(c):
    return max(abs(c.an).bit_length(), abs(c.bn).bit_length(), c.den.bit_length())


def _roots_probe(args, result):
    p = args[0]
    return {
        "degree": p.degree,
        "coeff_bits": max((_coeff_bits(c) for c in p.coeffs), default=0),
        "complete": int(result.complete),
    }


def _resultant_probe(args, result):
    p, q, var = args[:3]
    return {"sylvester_dim": p.degree_in(var) + q.degree_in(var)}


LAYERS = (
    Layer("scalars.lambda_roots", "plucker_lab.scalars", "lambda_roots", _roots_probe),
    Layer("scalars.lambdapoly_gcd", "plucker_lab.scalars", "LambdaPoly.gcd"),
    Layer("polynomials.resultant", "plucker_lab.polynomials", "resultant", _resultant_probe),
    Layer("polynomials.mv_gcd", "plucker_lab.polynomials", "mv_gcd"),
    Layer("polynomials.substitute", "plucker_lab.polynomials", "MultiPoly.substitute"),
    Layer("polynomials.parse_poly", "plucker_lab.polynomials", "parse_poly"),
    Layer("curve.singular_locus", "plucker_lab.curve", "singular_locus"),
    Layer("curve.classify_singularity", "plucker_lab.curve", "classify_singularity"),
    Layer("curve.flexes", "plucker_lab.curve", "flexes"),
    Layer("curve.dual_curve", "plucker_lab.curve", "dual_curve"),
    Layer("heisenberg.curve_orbit_obstruction", "plucker_lab.heisenberg", "curve_orbit_obstruction"),
    Layer("heisenberg.enumerate_group", "plucker_lab.heisenberg", "enumerate_group"),
    Layer("pluecker.dual_invariants", "plucker_lab.pluecker", "dual_invariants"),
    Layer("pluecker.solve_nodes_cusps", "plucker_lab.pluecker", "solve_nodes_cusps"),
    Layer("chow.incidence_numerology", "plucker_lab.chow", "incidence_numerology"),
    Layer("corpus.run_special_case", "plucker_lab.corpus", "run_special_case"),
    Layer("corpus.run_main_theorem", "plucker_lab.corpus", "run_main_theorem"),
    Layer("cli.main", "plucker_lab.cli", "main"),
)


def layer_metrics(stats, passes, pass_size):
    """Per-pass calls and self time of every layer, plus the ratios and
    maxima its probes record.  Layers a workload never reaches read 0."""
    def get(name):
        return stats.get(name) or LayerStats()

    out = {}
    for layer in LAYERS:
        st = get(layer.name)
        out[layer.name + ".calls"] = (st.calls / passes, "count")
        out[layer.name + ".self_s"] = (st.self_s / passes, "s")
    roots = get("scalars.lambda_roots")
    out["scalars.lambda_roots.degree_max"] = (roots.maxima.get("degree", 0), "count")
    out["scalars.lambda_roots.coeff_bits_max"] = (roots.maxima.get("coeff_bits", 0), "bits")
    out["scalars.lambda_roots.complete_ratio"] = (
        roots.sums.get("complete", 0) / roots.calls if roots.calls else 0, "ratio")
    out["polynomials.resultant.sylvester_dim_max"] = (
        get("polynomials.resultant").maxima.get("sylvester_dim", 0), "count")
    out["curve.singular_locus.calls_per_op"] = (
        get("curve.singular_locus").calls / passes / pass_size, "count")
    dual = get("pluecker.dual_invariants")
    out["pluecker.infeasible_ratio"] = (dual.raised / dual.calls if dual.calls else 0, "ratio")
    return out
