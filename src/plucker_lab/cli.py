"""Command line front end.

One subcommand per capability: curve analysis and duals, the degree/class
solver, the projective symmetry group, the intersection-ring report and the
two scenario runners.  Output is deterministic JSON or plain text; exit
status is 0 on success, 1 when a computation reports an infeasible or
failed result, 2 on usage errors.
"""

import argparse
import functools
import os
import sys

from . import __version__
from .scalars import lambda_roots, render_lambda_poly
from .polynomials import (
    X_VARS,
    PolyParseError,
    parse_poly,
    parse_scalar,
    render_poly,
)
from .curve import (
    PlaneCurve,
    analysis_report,
    dual_curve,
    flexes,
    parse_point,
)
from .pluecker import (
    InfeasibleInvariantsError,
    dual_invariants,
    solve_nodes_cusps,
)
from .chow import (
    incidence_numerology,
    multiplicity_bound,
    pencil_singular_count,
)
from .heisenberg import (
    ORDER3_ORBIT_REPRESENTATIVES,
    curve_orbit_obstruction,
    enumerate_group,
    fixed_locus,
    orbit,
)
from .corpus import (
    report_as_text,
    run_main_theorem,
    run_special_case,
    to_json,
)


class UsageError(Exception):
    """Bad invocation: reported on one line, exit status 2."""


def _color_on() -> bool:
    return os.environ.get("PLUCKER_LAB_COLOR", "0") == "1"


def _paint(text: str, code: str) -> str:
    if _color_on():
        return "\x1b[%sm%s\x1b[0m" % (code, text)
    return text


def _colorize_marks(text: str) -> str:
    if not _color_on():
        return text
    text = text.replace("[ok ]", "[" + _paint("ok ", "32") + "]")
    text = text.replace("[FAIL]", "[" + _paint("FAIL", "31") + "]")
    return text


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        out = to_json(payload) + "\n"
    else:
        out = _colorize_marks(text) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as e:
            raise UsageError(str(e))
    else:
        sys.stdout.write(out)


def _parse(args, default_vars):
    """The polynomial given inline or with --file, in the three variables
    of --vars or else default_vars."""
    variables = default_vars
    if args.vars:
        variables = tuple(v.strip() for v in args.vars.split(","))
        if len(variables) != 3:
            raise UsageError("--vars needs 3 comma-separated names, got %r" % args.vars)
    text = args.poly
    if args.file is not None:
        if text is not None:
            raise UsageError("give the polynomial inline or with --file, not both")
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError as e:
            raise UsageError(str(e))
    if text is None:
        raise UsageError("missing polynomial: pass it inline or with --file")
    try:
        return parse_poly(text, variables)
    except PolyParseError as e:
        raise UsageError("cannot parse polynomial: %s" % e)


def _load_curve(args) -> PlaneCurve:
    p = _parse(args, X_VARS)
    if args.lam is not None:
        p = p.specialize_lambda(parse_scalar(args.lam))
    if not p.lambda_free():
        raise UsageError("the equation still involves lambda; pass --lambda <rational>")
    return PlaneCurve(p)


# --------------------------------------------------------------------------
# curve


def _known(count):
    """A count, or why there is none: the singular locus is incomplete or
    has an unclassified point."""
    return "unknown (singular locus incomplete or unclassified)" if count is None else count


def _cmd_curve_analyze(args) -> int:
    c = _load_curve(args)
    report = analysis_report(c)
    lines = [
        "equation: %s" % report["equation"],
        "degree: %d" % report["degree"],
        "singular points (%d, complete: %s):"
        % (len(report["singularities"]), report["singular_locus_complete"]),
    ]
    for s in report["singularities"]:
        tag = s.get("ade", s["kind"])
        lines.append(
            "  (%s) %s mult %d delta %d"
            % (" : ".join(s["point"]), tag, s["multiplicity"], s["delta"])
        )
    if report["flexes"] is not None:
        fx = report["flexes"]
        count = fx["count_with_multiplicity"]
        if count is not None:
            count = "%d counted with multiplicity" % count
        lines.append("flexes: %s, complete: %s" % (_known(count), fx["complete"]))
        for p in fx["points"]:
            lines.append("  (%s)" % " : ".join(p))
    lines.append("geometric genus: %s" % _known(report["geometric_genus"]))
    for n in report["notes"]:
        lines.append("note: %s" % n)
    _emit(args, report, "\n".join(lines))
    return 0


def _cmd_curve_dual(args) -> int:
    c = _load_curve(args)
    dual = dual_curve(c)
    payload = {
        "equation": render_poly(dual.equation),
        "variables": list(dual.vars),
        "degree": dual.degree,
    }
    text = "dual curve (degree %d in %s):\n  %s" % (
        dual.degree,
        ", ".join(dual.vars),
        payload["equation"],
    )
    _emit(args, payload, text)
    return 0


def _cmd_curve_flexes(args) -> int:
    c = _load_curve(args)
    fx = flexes(c)
    payload = {
        "points": [p.as_list() for p in fx.points],
        "count_with_multiplicity": fx.count_with_multiplicity,
        "complete": fx.complete,
        "notes": list(fx.notes),
    }
    lines = [
        "flexes counted with multiplicity: %s (complete: %s)"
        % (_known(fx.count_with_multiplicity), fx.complete)
    ]
    for p in fx.points:
        lines.append("  %s" % p)
    for n in fx.notes:
        lines.append("note: %s" % n)
    _emit(args, payload, "\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# plucker


def _cmd_plucker_solve(args) -> int:
    sol = solve_nodes_cusps(args.d, args.g, args.m)
    payload = sol.as_dict()
    if sol.feasible:
        text = "nu = %d, kappa = %d" % (sol.nu, sol.kappa)
    else:
        text = "infeasible: raw (nu, kappa) = (%s, %s)" % (
            payload["raw_nu"],
            payload["raw_kappa"],
        )
        if sol.violated_identity:
            text += "; violated identity %s" % sol.violated_identity
    _emit(args, payload, text)
    return 0 if sol.feasible else 1


def _cmd_plucker_dual(args) -> int:
    try:
        inv = dual_invariants(args.d, args.nodes, args.cusps)
    except InfeasibleInvariantsError as e:
        payload = {"feasible": False, "values": {k: str(v) for k, v in e.values.items()}}
        _emit(args, payload, "infeasible: %s" % e)
        return 1
    payload = inv.as_dict()
    text = "m = %d, f = %d, b = %d, g = %d" % (inv.m, inv.f, inv.b, inv.g)
    _emit(args, payload, text)
    return 0


# --------------------------------------------------------------------------
# heisenberg


def _cmd_heisenberg_group(args) -> int:
    group = enumerate_group()
    payload = {
        "size": len(group),
        "elements": [g.as_rows() for g in group],
    }
    lines = ["group size: %d" % len(group)]
    for g in group:
        lines.append("  %s" % g)
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_heisenberg_orbit(args) -> int:
    try:
        p = parse_point(args.point)
    except (ValueError, PolyParseError) as e:
        raise UsageError("cannot parse point %r: %s" % (args.point, e))
    ob = orbit(p)
    payload = ob.as_dict()
    lines = ["orbit size: %d" % ob.size]
    for q in ob.points:
        lines.append("  %s" % q)
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_heisenberg_fixed(args) -> int:
    fl = fixed_locus()
    payload = {
        "lines": [render_poly(l) for l in fl.lines],
        "points": [str(p) for p in fl.points],
        "triple_points": [str(p) for p in fl.triple_points],
    }
    lines = ["fixed lines (%d):" % len(fl.lines)]
    lines.extend("  %s = 0" % render_poly(l) for l in fl.lines)
    lines.append("fixed points (%d):" % len(fl.points))
    lines.extend("  %s" % p for p in fl.points)
    lines.append("triple points (%d):" % len(fl.triple_points))
    lines.extend("  %s" % p for p in fl.triple_points)
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_heisenberg_check(args) -> int:
    p = _parse(args, ("y0", "y1", "y2") if args.quadratic_map else X_VARS)
    obs = curve_orbit_obstruction(p, use_quadratic_map=args.quadratic_map)
    payload = {"orbits": []}
    lines = []
    for rep in ORDER3_ORBIT_REPRESENTATIVES:
        ob = obs[rep]
        entry = {
            "orbit": str(rep),
            "obstruction": render_lambda_poly(ob),
            "identically_zero": ob.is_zero(),
        }
        if ob.is_zero():
            lines.append("%s: contained for every lambda" % rep)
        else:
            search = lambda_roots(ob)
            entry["lambda_roots"] = [
                {"value": str(r), "multiplicity": mult} for r, mult in search.roots
            ]
            entry["roots_complete"] = search.complete
            shown = ", ".join(str(r) for r, _ in search.roots) or "none"
            lines.append(
                "%s: obstruction %s; contained only at lambda in {%s}%s"
                % (
                    rep,
                    entry["obstruction"],
                    shown,
                    "" if search.complete else " (root search incomplete)",
                )
            )
        payload["orbits"].append(entry)
    _emit(args, payload, "\n".join(lines))
    return 0


# --------------------------------------------------------------------------
# chow / scenario


def _cmd_chow_report(args) -> int:
    data = incidence_numerology(args.d)
    payload = {
        "d": args.d,
        "c1_E": str(data["c1_E"]),
        "c2_E": str(data["c2_E"]),
        "gamma": str(data["gamma"]),
        "omega_dot_gamma": str(data["omega_dot_gamma"]),
        "normal_dot_gamma": str(data["normal_dot_gamma"]),
        "deg_omega": data["deg_omega"],
        "pa": data["pa"],
        "pencil_singular_count": pencil_singular_count(args.d) if args.d >= 2 else None,
        "multiplicity_bound": multiplicity_bound(args.d),
    }
    lines = [
        "d = %d" % args.d,
        "incidence class Gamma = %s" % payload["gamma"],
        "omega . Gamma = %s" % payload["omega_dot_gamma"],
        "canonical degree: %d" % data["deg_omega"],
        "arithmetic genus of Gamma: %d" % data["pa"],
        "multiplicity bound: %d" % payload["multiplicity_bound"],
    ]
    if payload["pencil_singular_count"] is not None:
        lines.append("pencil singular members: %d" % payload["pencil_singular_count"])
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_scenario_special(args) -> int:
    report = run_special_case(args.lam)  # main reports a ValueError as a usage error
    _emit(args, report.as_dict(), report_as_text(report))
    return 0 if report.passed else 1


def _cmd_scenario_main(args) -> int:
    report = run_main_theorem()
    _emit(args, report.as_dict(), report_as_text(report))
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# wiring


def _add_output_flags(p) -> None:
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--out", metavar="PATH", default=None)


def _add_poly_flags(p) -> None:
    p.add_argument("poly", nargs="?", default=None, help="inline polynomial text")
    p.add_argument("--file", metavar="PATH", default=None, help="read the polynomial from a file")
    p.add_argument("--vars", metavar="A,B,C", default=None, help="variable names, default x0,x1,x2")


def _add_commands(group: str, sub) -> None:
    """Add the subcommands of a command group to its subparsers action."""
    if group == "curve":
        for name, fn in (("analyze", _cmd_curve_analyze), ("dual", _cmd_curve_dual), ("flexes", _cmd_curve_flexes)):
            p = sub.add_parser(name)
            _add_poly_flags(p)
            p.add_argument("--lambda", dest="lam", metavar="VALUE", default=None,
                           help="specialize lambda to a rational before analyzing")
            _add_output_flags(p)
            p.set_defaults(fn=fn)
    elif group == "plucker":
        p = sub.add_parser("solve", help="solve for nodes and cusps from degree, genus, class")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_plucker_solve)
        p = sub.add_parser("dual", help="derive class, flexes, bitangents, genus")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--nodes", type=int, required=True)
        p.add_argument("--cusps", type=int, required=True)
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_plucker_dual)
    elif group == "heisenberg":
        p = sub.add_parser("group")
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_heisenberg_group)
        p = sub.add_parser("orbit")
        p.add_argument("point", help="point as a:b:c")
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_heisenberg_orbit)
        p = sub.add_parser("fixed")
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_heisenberg_fixed)
        p = sub.add_parser("check-curve", help="order-3 orbit obstruction polynomials")
        _add_poly_flags(p)
        p.add_argument("--quadratic-map", action="store_true",
                       help="compose a y-variable curve with the quadratic map first")
        def no_lambda(text):
            raise argparse.ArgumentTypeError("check-curve takes none (its obstruction is a polynomial in lambda)")
        p.add_argument("--lambda", nargs="?", const="", type=no_lambda, help=argparse.SUPPRESS)
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_heisenberg_check)
    elif group == "chow":
        p = sub.add_parser("report")
        p.add_argument("--d", type=int, required=True)
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_chow_report)
    else:
        p = sub.add_parser("special")
        p.add_argument("--lambda", dest="lam", metavar="VALUE", required=True)
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_scenario_special)
        p = sub.add_parser("main")
        _add_output_flags(p)
        p.set_defaults(fn=_cmd_scenario_main)


class _Group(argparse.ArgumentParser):
    """A command group, whose subcommands are added on first use."""

    group, commands = None, {}

    def command(self, name):
        """The parser of subcommand name, or None if the group has none."""
        if self.group:
            _add_commands(self.group, sub := self.add_subparsers(dest="subcommand", required=True))
            self.group, self.commands = None, sub.choices
        return self.commands.get(name)

    def parse_known_args(self, args=None, namespace=None):
        self.command(None)
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused by main (parse_args
    keeps no state), with its command groups by name in .groups."""
    ap = argparse.ArgumentParser(
        prog="plucker-lab",
        description="exact plane-curve invariants, projective symmetries and branch-curve arithmetic",
    )
    ap.add_argument("--version", action="version", version="plucker-lab %s" % __version__)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Group)
    for group, text in (("curve", "plane curve analysis"), ("plucker", "degree/class/genus arithmetic"),
                        ("heisenberg", "projective symmetry group"), ("chow", "intersection-ring numerology"),
                        ("scenario", "end-to-end scenario runners")):
        sub.add_parser(group, help=text).group = group
    ap.groups = sub.choices
    return ap


def main(argv=None) -> int:
    """Run argv (default sys.argv[1:]); the exit status.  `<group> <command>`
    goes to the command's parser alone, any other argv through the tree."""
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = len(argv) > 1 and argv[0] in ap.groups and ap.groups[argv[0]].command(argv[1])
    if command:
        args, extra = command.parse_known_args(argv[2:], argparse.Namespace(command=argv[0], subcommand=argv[1]))
        if extra:
            ap.error("unrecognized arguments: %s" % " ".join(extra))
    else:
        args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, KeyError) as e:  # a PolyParseError names its offset
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RuntimeError as e:
        print("computation failed: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
