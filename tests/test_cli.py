import argparse
import json
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import pytest

from plucker_lab import cli, corpus
from plucker_lab.cli import build_parser, main
from plucker_lab.polynomials import bl2_sextic, render_poly

CUSPIDAL = "x1^2*x2 - x0^3"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parser basics


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()

    def calls(out):
        return [
            ["plucker", "solve", "--g", "1", "--m", "6"],  # no --d: exit 2
            ["--version"],
            ["curve", "analyze", "--format", "json", CUSPIDAL],
            ["curve", "dual", "x0^3 - x1^3"],  # concurrent lines: exit 2
            ["scenario", "special", "--lambda=2"],
            ["chow", "report", "--d", "3", "--out", str(out)],
            ["chow", "report", "--d", "3"],  # --out must not carry over
        ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [outcome(argv) for argv in calls(tmp_path / "reused.txt")]
    # the same calls, each through a parser built afresh
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [outcome(argv) for argv in calls(tmp_path / "fresh.txt")]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 2, 0, 0, 0]
    assert "--d" in reused[0][2] and reused[1][1].startswith("plucker-lab ")
    assert reused[5][1] == "" and reused[6][1] != ""
    assert (tmp_path / "reused.txt").read_text() == (tmp_path / "fresh.txt").read_text()
    assert (tmp_path / "reused.txt").read_text() == reused[6][1]


GROUPS = {
    "curve": ["analyze", "dual", "flexes"],
    "plucker": ["solve", "dual"],
    "heisenberg": ["group", "orbit", "fixed", "check-curve"],
    "chow": ["report"],
    "scenario": ["special", "main"],
}


def _groups(ap):
    """The command group parsers of ap, by name."""
    return next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices


def _fully_built_parser():
    """A fresh parser with every group's subcommands added up front."""
    ap = build_parser.__wrapped__()
    for name, group in _groups(ap).items():
        cli._add_commands(name, group.add_subparsers(dest="subcommand", required=True))
        group.group = None
    return ap


def _exit_output(capsys, ap, argv):
    with pytest.raises(SystemExit) as exc:
        ap.parse_args(argv)
    return exc.value.code, capsys.readouterr()


def test_help_matches_a_fully_built_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert {name: list(_groups(_fully_built_parser())[name]._actions[-1].choices) for name in GROUPS} == GROUPS
    helps = [["--help"]] + [[g, "--help"] for g in GROUPS]
    helps += [[g, s, "--help"] for g, subs in GROUPS.items() for s in subs]
    for argv in helps:
        lazy = _exit_output(capsys, build_parser.__wrapped__(), argv)
        assert lazy == _exit_output(capsys, _fully_built_parser(), argv)
        assert lazy[0] == 0 and lazy[1].out.startswith("usage: plucker-lab")


def test_unknown_group_and_subcommand_errors(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cases = {
        ("bogus",): "usage: plucker-lab [-h] [--version]\n"
        "                   {curve,plucker,heisenberg,chow,scenario} ...\n"
        "plucker-lab: error: argument command: invalid choice: 'bogus' (choose from "
        "'curve', 'plucker', 'heisenberg', 'chow', 'scenario')\n",
        ("curve", "bogus"): "usage: plucker-lab curve [-h] {analyze,dual,flexes} ...\n"
        "plucker-lab curve: error: argument subcommand: invalid choice: 'bogus' "
        "(choose from 'analyze', 'dual', 'flexes')\n",
        ("scenario",): "usage: plucker-lab scenario [-h] {special,main} ...\n"
        "plucker-lab scenario: error: the following arguments are required: subcommand\n",
    }
    for argv, err in cases.items():
        for ap in (build_parser.__wrapped__(), _fully_built_parser()):
            assert _exit_output(capsys, ap, list(argv)) == (2, ("", err))


def test_a_call_builds_only_the_group_it_names(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert main(["scenario", "special", "--lambda=2"]) == 0
    groups = ["plucker-lab " + g for g in GROUPS]
    assert built == ["plucker-lab"] + groups + ["plucker-lab scenario special", "plucker-lab scenario main"]
    built.clear()
    _fully_built_parser()
    assert len(built) == 1 + len(GROUPS) + sum(map(len, GROUPS.values())) == 18


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("plucker-lab ")


# ---------------------------------------------------------------------------
# curve commands


def test_curve_analyze_text(capsys):
    code, out, _ = run(capsys, ["curve", "analyze", CUSPIDAL])
    assert code == 0
    assert "degree: 3" in out
    assert "(0 : 0 : 1) A2" in out
    assert "geometric genus: 0" in out


def test_curve_analyze_json(capsys):
    code, out, _ = run(capsys, ["curve", "analyze", CUSPIDAL, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 3
    assert data["singularities"][0]["ade"] == "A2"
    assert data["geometric_genus"] == 0


def test_curve_analyze_keeps_the_unresolved_factor_notes(capsys):
    code, out, _ = run(
        capsys, ["curve", "analyze", "x0^4 + x1^4 + x2^4", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["notes"] == [
        "unresolved degree-8 factor in x1",
        "unresolved degree-4 factor in x2 at x1 = 0",
        "unresolved degree-4 factor in x2",
    ]


def test_no_genus_or_flex_count_from_an_incomplete_locus(capsys):
    # the nodes (+-sqrt(2) : 0 : 1) lie outside Q(rho); from the points
    # found alone the genus would read 3 and the flex count 24, not 1 and 12
    quartic = "(x0^2 - 2*x2^2)^2 - x1^2*x2^2 + x1^4"
    unknown = "unknown (singular locus incomplete or unclassified)"
    data = json.loads(run(capsys, ["curve", "analyze", "--format", "json", "--", quartic])[1])
    assert data["singular_locus_complete"] is False and data["geometric_genus"] is None
    assert data["flexes"]["count_with_multiplicity"] is None
    data = json.loads(run(capsys, ["curve", "flexes", "--format", "json", "--", quartic])[1])
    assert data["count_with_multiplicity"] is None and data["complete"] is False
    out = run(capsys, ["curve", "analyze", "--", quartic])[1]
    assert "flexes: %s, complete: False\n" % unknown in out
    assert "geometric genus: %s\n" % unknown in out
    out = run(capsys, ["curve", "flexes", "--", quartic])[1]
    assert "flexes counted with multiplicity: %s (complete: False)\n" % unknown in out


def test_no_genus_or_flex_count_from_an_unclassified_point(capsys):
    # (t^2 : t^5 : 1) parametrizes the curve, so its genus is 0; the deltas
    # 2 and 3 of its two unclassified points are only lower bounds, from
    # which the genus would read 1 and the flex count 45
    quintic = "x1^2*x2^3 - x0^5"
    data = json.loads(run(capsys, ["curve", "analyze", "--format", "json", "--", quintic])[1])
    assert data["singular_locus_complete"] is True
    assert [s["kind"] for s in data["singularities"]] == ["unclassified"] * 2
    assert data["geometric_genus"] is None and data["genus_warning"] is False
    assert data["flexes"]["count_with_multiplicity"] is None
    assert data["notes"] == [
        "count not certified: unclassified singularity at (0 : 0 : 1)",
        "count not certified: unclassified singularity at (0 : 1 : 0)",
    ]
    out = run(capsys, ["curve", "analyze", "--", quintic])[1]
    assert "geometric genus: unknown (singular locus incomplete or unclassified)\n" in out
    data = json.loads(run(capsys, ["curve", "dual", "--format", "json", "--", quintic])[1])
    assert data["degree"] == 5


def test_no_genus_warning_without_a_genus(capsys):
    # x0^2*(x1 + x2) has a double line: its singular locus is a whole line
    data = json.loads(run(capsys, ["curve", "analyze", "--format", "json", "--", "x0^2*x1 + x0^2*x2"])[1])
    assert data["singular_locus_complete"] is False and data["geometric_genus"] is None
    assert data["genus_warning"] is False
    assert not any("negative geometric genus" in n for n in data["notes"])


def test_curve_analyze_with_lambda(capsys):
    code, out, _ = run(
        capsys,
        ["curve", "analyze", "x0^3 + x1^3 + x2^3 - lambda*x0*x1*x2",
         "--lambda", "0", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["geometric_genus"] == 1


def test_curve_analyze_missing_lambda_is_an_error(capsys):
    code, out, err = run(capsys, ["curve", "analyze", "lambda*x0^3 + x1^3 + x2^3"])
    assert code == 2
    assert "lambda" in err


def test_curve_dual(capsys):
    code, out, _ = run(capsys, ["curve", "dual", CUSPIDAL, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 3
    assert "u0" in data["equation"]


def test_curve_dual_of_concurrent_lines_exits_2(capsys):
    code, _, err = run(capsys, ["curve", "dual", "x0^3 - x1^3"])
    assert code == 2
    assert "Hessian" in err


def test_curve_dual_of_a_double_conic_exits_2(capsys):
    code, out, err = run(capsys, ["curve", "dual", "(x0^2 - x1*x2)^2"])
    assert code == 2 and out == ""
    assert "degree 2" in err and "6-dimensional kernel" in err


@pytest.mark.parametrize("lines", ["x0*x1*x2", "x0*x1*x2*(x0 + x1 + x2)"])
def test_curve_dual_of_lines_in_general_position_exits_2(capsys, lines):
    code, out, err = run(capsys, ["curve", "dual", lines])
    assert code == 2 and out == ""
    assert "union of lines (class 0)" in err and "set of points" in err


def test_curve_dual_of_a_line_and_a_conic_is_the_conic_dual(capsys):
    code, out, _ = run(capsys, ["curve", "dual", "--format", "json", "x0*(x0*x2 - x1^2)"])
    assert code == 0
    assert json.loads(out) == {"degree": 2, "equation": "u0*u2 - 1/4*u1^2",
                               "variables": ["u0", "u1", "u2"]}


@pytest.mark.parametrize(
    "lam, hesse",
    [
        ("2", "u0^3 - 6*u0*u1*u2 + u1^3 + u2^3"),
        ("-4/3", "u0^3 + 4*u0*u1*u2 + u1^3 + u2^3"),
    ],
)
def test_curve_dual_of_special_sextic(capsys, lam, hesse):
    sextic = render_poly(bl2_sextic())
    # a negative value needs the --lambda=VALUE form
    argv = ["curve", "dual", "--vars", "y0,y1,y2", "--lambda=" + lam, "--format", "json", sextic]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out) == {"degree": 3, "equation": hesse, "variables": ["u0", "u1", "u2"]}


def test_curve_flexes(capsys):
    code, out, _ = run(capsys, ["curve", "flexes", "x0^3 + x1^3 + x2^3"])
    assert code == 0
    assert "9" in out


def test_curve_flexes_lists_each_note_once(capsys):
    # the locus and the Hessian system both meet a positive-dimensional chart
    curve = "(x0*x2 - x1^2)^2"
    notes = [
        "solution set is positive-dimensional in a chart",
        "count not certified: unclassified singularity at (0 : 0 : 1)",
    ]
    code, out, _ = run(capsys, ["curve", "flexes", curve, "--format", "json"])
    assert code == 0
    assert json.loads(out)["notes"] == notes
    code, out, _ = run(capsys, ["curve", "analyze", curve, "--format", "json"])
    assert code == 0
    assert json.loads(out)["notes"] == notes


# the six plain curves of the curve-corpus benchmark (the corpus and the
# Fermat quartic), then three lines, a double conic and the Fermat
# quintic: between them, every reason a note gives for an incomplete search
@pytest.mark.parametrize("curve", sorted(corpus.CURVES.values()) + [
    "x0^4 + x1^4 + x2^4", "x0*x1*x2", "(x0*x2 - x1^2)^2", "x0^5 + x1^5 + x2^5",
])
def test_a_search_is_complete_exactly_when_no_note_says_why_not(capsys, curve):
    code, out, _ = run(capsys, ["curve", "flexes", curve, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["complete"] == (data["notes"] == [])
    code, out, _ = run(capsys, ["curve", "analyze", curve, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["singular_locus_complete"] or data["notes"]


def test_curve_from_file(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text(CUSPIDAL + "\n")
    code, out, _ = run(capsys, ["curve", "analyze", "--file", str(path)])
    assert code == 0
    assert "degree: 3" in out


def test_curve_rejects_two_sources(tmp_path, capsys):
    path = tmp_path / "curve.txt"
    path.write_text(CUSPIDAL)
    code, _, err = run(capsys, ["curve", "analyze", CUSPIDAL, "--file", str(path)])
    assert code == 2
    assert "either" in err or "both" in err


@pytest.mark.parametrize("command", [["curve", "analyze"], ["heisenberg", "check-curve"]])
def test_polynomial_usage_errors(command, tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for argv, message in [
        ([], "missing polynomial: pass it inline or with --file"),
        (["--vars", "a,b", CUSPIDAL], "--vars needs 3 comma-separated names, got 'a,b'"),
        (["--file", missing], missing),
        (["--", "x0 +"], "cannot parse polynomial: "),
        (["--vars", "a,a,c", "--", "a*c - a^2"], "duplicate variable names"),
        (["--vars", "rho,b,c", "--", "b*c - rho^2"], "variable name 'rho' is reserved"),
        (["--vars", "a,lambda,c", "--", "a*c"], "variable name 'lambda' is reserved"),
    ]:
        code, out, err = run(capsys, command + argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and message in err


def test_curve_parse_error_exit_code(capsys):
    code, _, err = run(capsys, ["curve", "analyze", "x0^^2"])
    assert code == 2
    assert "offset" in err


def test_parse_errors_name_their_offset_once(capsys):
    for argv, line in [
        (["--lambda", "1/0", "--", "x0^2 + x1^2 + x2^2"], "error: division by zero at offset 1\n"),
        (["x0^^2"], "error: cannot parse polynomial: expected integer exponent at offset 3\n"),
    ]:
        assert run(capsys, ["curve", "analyze"] + argv) == (2, "", line)


def test_only_the_curve_subcommands_take_lambda(capsys, monkeypatch):
    for command in (["curve", "analyze"], ["curve", "dual"], ["curve", "flexes"]):
        code, out, _ = run(capsys, command + ["--lambda", "2", "--", "x0^2 + x1^2 - lambda*x2^2"])
        assert code == 0 and out
    # check-curve reads lambda as the variable of its obstruction: the
    # error names --lambda, whatever follows it
    monkeypatch.setenv("COLUMNS", "80")
    usage = (
        "usage: plucker-lab heisenberg check-curve [-h] [--file PATH] [--vars A,B,C]\n"
        "                                          [--quadratic-map]\n"
        "                                          [--format {json,text}] [--out PATH]\n"
        "                                          [poly]\n"
    )
    error = (
        "plucker-lab heisenberg check-curve: error: argument --lambda: check-curve "
        "takes none (its obstruction is a polynomial in lambda)\n"
    )
    for argv in (
        ["--lambda", "2", "--", "x0^3"],
        ["--lambda", "1/0", "--", "x0^3"],
        ["--lambda", "2", "x0^3"],
        ["x0^3", "--lambda"],
        ["--lambda=2", "x0^3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["heisenberg", "check-curve"] + argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", usage + error)
    with pytest.raises(SystemExit):
        main(["heisenberg", "check-curve", "--help"])
    assert "--lambda" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# plucker commands


def test_plucker_solve(capsys):
    code, out, _ = run(
        capsys, ["plucker", "solve", "--d", "18", "--g", "28", "--m", "18"]
    )
    assert code == 0
    assert "nu = 36" in out and "kappa = 72" in out


def test_plucker_solve_infeasible(capsys):
    code, out, _ = run(
        capsys,
        ["plucker", "solve", "--d", "9", "--g", "28", "--m", "18", "--format", "json"],
    )
    assert code == 1
    data = json.loads(out)
    assert data["feasible"] is False
    assert data["violated_identity"] == "18 = 72"


def test_plucker_dual(capsys):
    code, out, _ = run(
        capsys,
        ["plucker", "dual", "--d", "18", "--nodes", "36", "--cusps", "72"],
    )
    assert code == 0
    assert "m = 18" in out and "f = 72" in out and "b = 36" in out


def test_plucker_dual_infeasible(capsys):
    # a smooth quartic has no cusps; forcing kappa = 50 breaks positivity
    code, out, _ = run(
        capsys,
        ["plucker", "dual", "--d", "4", "--nodes", "0", "--cusps", "50",
         "--format", "json"],
    )
    assert code == 1
    assert json.loads(out)["feasible"] is False


@pytest.mark.parametrize(
    "d, nodes, cusps, text, values",
    [
        ("4", "0", "50",
         "{'m': -138, 'f': -376, 'g': -47, '2b': 20306}",
         '    "2b": "20306",\n    "f": "-376",\n    "g": "-47",\n    "m": "-138"\n'),
        ("3", "4", "0",
         "{'m': -2, 'f': -15, 'g': -3, '2b': 48}",
         '    "2b": "48",\n    "f": "-15",\n    "g": "-3",\n    "m": "-2"\n'),
    ],
)
def test_plucker_dual_infeasible_output(capsys, d, nodes, cusps, text, values):
    argv = ["plucker", "dual", "--d", d, "--nodes", nodes, "--cusps", cusps]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert out == "infeasible: derived invariants go negative: %s\n" % text
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 1
    assert out == '{\n  "feasible": false,\n  "values": {\n%s  }\n}\n' % values


# ---------------------------------------------------------------------------
# heisenberg commands


def test_heisenberg_group(capsys):
    code, out, _ = run(capsys, ["heisenberg", "group", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 18
    assert len(data["elements"]) == 18


def test_heisenberg_orbit(capsys):
    code, out, _ = run(capsys, ["heisenberg", "orbit", "1:0:0"])
    assert code == 0
    assert "orbit size: 3" in out
    assert "(0 : 1 : 0)" in out


def test_heisenberg_fixed(capsys):
    code, out, _ = run(capsys, ["heisenberg", "fixed", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["lines"]) == 9
    assert len(data["points"]) == 9
    assert len(data["triple_points"]) == 12


SEXTIC_FAMILY = (
    "y0^6 + y1^6 + y2^6"
    " + (4*lambda^3 - 2)*(y0^3*y1^3 + y1^3*y2^3 + y2^3*y0^3)"
    " - 6*lambda^2*y0*y1*y2*(y0^3 + y1^3 + y2^3)"
    " + (12*lambda - 3*lambda^4)*y0^2*y1^2*y2^2"
)


def test_heisenberg_check_curve(capsys):
    code, out, _ = run(
        capsys,
        ["heisenberg", "check-curve", SEXTIC_FAMILY, "--quadratic-map",
         "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["orbits"]) == 4
    roots = set()
    for entry in data["orbits"]:
        assert entry["obstruction"] != "0"
        assert entry["identically_zero"] is False
        assert entry["roots_complete"] is True
        roots |= {r["value"] for r in entry["lambda_roots"]}
    assert roots == {"1", "rho", "-1 - rho"}


# ---------------------------------------------------------------------------
# chow and scenarios


def test_chow_report(capsys):
    code, out, _ = run(capsys, ["chow", "report", "--d", "3"])
    assert code == 0
    assert "arithmetic genus of Gamma: 28" in out
    assert "canonical degree: 54" in out
    assert "pencil singular members: 18" in out


def test_scenario_special(capsys):
    code, out, _ = run(capsys, ["scenario", "special", "--lambda", "2"])
    assert code == 0
    assert "result: pass" in out


def test_scenario_special_rejects_degenerate(capsys):
    code, _, err = run(capsys, ["scenario", "special", "--lambda", "1"])
    assert code == 2
    assert "excluded" in err


def test_scenario_main(capsys):
    code, out, _ = run(capsys, ["scenario", "main", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


# ---------------------------------------------------------------------------
# output plumbing


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["chow", "report", "--d", "3", "--format", "json", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pa"] == 28


def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, ["chow", "report", "--d", "3", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.exists()


def test_repeat_runs_are_identical(capsys):
    argv = ["scenario", "special", "--lambda", "2", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_color_toggle(monkeypatch, capsys):
    monkeypatch.setenv("PLUCKER_LAB_COLOR", "1")
    _, out, _ = run(capsys, ["scenario", "main"])
    assert "[\x1b[32mok \x1b[0m]" in out
    monkeypatch.delenv("PLUCKER_LAB_COLOR")
    _, out, _ = run(capsys, ["scenario", "main"])
    assert "\x1b[" not in out


REPO_ROOT = Path(__file__).resolve().parents[1]


# Whether the setuptools an interpreter sees can run ``bdist_wheel``, which
# any PEP 517 install needs: setuptools 70.1 carries it, older releases need
# the separate ``wheel`` package.
_CAN_BUILD_WHEELS = """
import importlib.metadata, importlib.util
release = importlib.metadata.version("setuptools").split(".")[:2]
print(importlib.util.find_spec("wheel") is not None
      or tuple(int(part) for part in release) >= (70, 1))
"""


def _run_installer(command, cwd, env):
    try:
        return subprocess.run(command, cwd=cwd, env=env, check=True,
                              capture_output=True, text=True, timeout=300)
    except subprocess.CalledProcessError as exc:
        pytest.fail("installing the package failed:\n%s\n%s"
                    % (" ".join(command), exc.stderr))


def _install_console_script(tmp_path):
    """Install a copy of the package into a throwaway venv under *tmp_path*,
    offline.  Return the path of the ``plucker-lab`` script it made and the
    environment, without ``PYTHONPATH``, to run it in."""
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy(REPO_ROOT / "pyproject.toml", project)
    shutil.copytree(
        REPO_ROOT / "src",
        project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bin_dir = env_dir / "bin"
    python = bin_dir / "python"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = _run_installer([str(python), "-c", _CAN_BUILD_WHEELS], project, env)
    if probe.stdout.strip() == "True":
        command = [str(python), "-m", "pip", "install", "--no-index",
                   "--no-build-isolation", "--no-deps", str(project)]
    else:
        command = [str(python), "-c", "from setuptools import setup; setup()",
                   "develop", "--no-deps"]
    _run_installer(command, project, env)
    script = bin_dir / "plucker-lab"
    assert script.exists(), (
        "the install made no plucker-lab script; pyproject.toml must declare "
        "it under [project.scripts]"
    )
    return script, env


def test_installed_entry_point(tmp_path):
    script, env = _install_console_script(tmp_path)
    proc = subprocess.run(
        [str(script), "--version"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("plucker-lab ")


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "plucker_lab.cli", "plucker", "solve",
         "--d", "18", "--g", "28", "--m", "18"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "nu = 36" in proc.stdout


def test_cli_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, about half of
    # the import time of the whole package
    proc = subprocess.run(
        [sys.executable, "-c", "import plucker_lab.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
