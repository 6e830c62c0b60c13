"""Byte-for-byte pins of the CLI outputs the benchmark workloads produce,
and of the heisenberg and dual texts that rest on the shared 3x3 algebra
and rendering.

golden/output_digests.json maps each command line to the sha256 of its
exit status, stdout and stderr:
- `scenario special --lambda=L --format json` for every admissible
  lambda of perfbench's special-sweep;
- `curve analyze`, `curve flexes` and `curve dual --format json` for
  every curve-corpus input at the seeds in SEEDS, and `curve dual` as
  text for the untransformed corpus curves;
- `heisenberg check-curve`, plain and with `--quadratic-map`, on each of
  CHECK_CURVES, and `heisenberg orbit --format json` on each of
  ORBIT_POINTS (orbits of size 3, 9, 9 and 18);
- `heisenberg group` and `heisenberg fixed`;
- `curve analyze`, `curve flexes` and `curve dual` of IRRATIONAL_NODES.

check-curve, group, fixed and the IRRATIONAL_NODES outputs are pinned as
JSON and as text.

The inputs come from perfbench/workloads.py, which is only read here.
A refactor of the curve or polynomial layers must leave every digest
as it is.  Regenerate the file (python tests/test_output_digests.py)
only for an intended change of output, and say so where the change is
recorded.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "output_digests.json"
SEEDS = (1, 20261017)

# (variables, text): the README example, the coordinate triangle, a curve
# with rho coefficients and the sextic family of bl2_sextic
CHECK_CURVES = (
    ("x0,x1,x2", "x0^6 + x1^6 + x2^6 - lambda*x0^2*x1^2*x2^2"),
    ("x0,x1,x2", "x0*x1*x2"),
    ("x0,x1,x2", "x0^3 + rho*x1^3 + x2^3 - 3*lambda*x0*x1*x2"),
    (
        "y0,y1,y2",
        "y0^6 - 6*lambda^2*y0^4*y1*y2 + (-2 + 4*lambda^3)*y0^3*y1^3"
        " + (-2 + 4*lambda^3)*y0^3*y2^3 + (12*lambda - 3*lambda^4)*y0^2*y1^2*y2^2"
        " - 6*lambda^2*y0*y1^4*y2 - 6*lambda^2*y0*y1*y2^4 + y1^6"
        " + (-2 + 4*lambda^3)*y1^3*y2^3 + y2^6",
    ),
)
ORBIT_POINTS = ("1:1:rho", "0:1:-1", "1:2:rho", "1/2:3:-1")
# a quartic with nodes at (+-sqrt(2) : 0 : 1), outside Q(rho): its singular
# locus is incomplete, its class 8 is found without a prediction
IRRATIONAL_NODES = "(x0^2 - 2*x2^2)^2 - x1^2*x2^2 + x1^4"

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

sys.path.remove(str(ROOT / "perfbench"))


def _lib():
    names = ("cli", "polynomials", "scalars")
    return SimpleNamespace(**{m: importlib.import_module("plucker_lab." + m) for m in names})


def command_lines(lib):
    out = [["scenario", "special", "--lambda=" + lam, "--format", "json"]
           for lam in workloads.admissible_lambdas(lib)]
    texts, plain = {}, {}
    for seed in SEEDS:
        corpus = workloads.CurveCorpus(ROOT)
        corpus.setup(lib, seed)
        texts.update((text, None) for *_, text in corpus.cases)
        plain.update((text, None) for _, perm, scales, text in corpus.cases
                     if perm == (0, 1, 2) and all(s == 1 for s in scales))
    for text in texts:
        out += [["curve", cmd, "--format", "json", "--", text] for cmd in ("analyze", "flexes", "dual")]
    for names, text in CHECK_CURVES:
        check = ["heisenberg", "check-curve", "--format", "json", "--vars", names]
        out += [check + ["--", text], check + ["--quadratic-map", "--", text]]
    out += [["heisenberg", "orbit", "--format", "json", "--", p] for p in ORBIT_POINTS]
    out += [["curve", "dual", "--format", "text", "--", text] for text in plain]
    for fmt in ("json", "text"):
        out += [["heisenberg", cmd, "--format", fmt] for cmd in ("group", "fixed")]
    for names, text in CHECK_CURVES:
        check = ["heisenberg", "check-curve", "--format", "text", "--vars", names]
        out += [check + ["--", text], check + ["--quadratic-map", "--", text]]
    for fmt in ("json", "text"):
        out += [["curve", cmd, "--format", fmt, "--", IRRATIONAL_NODES] for cmd in ("analyze", "flexes", "dual")]
    return out


def digests():
    lib = _lib()
    out = {}
    for argv in command_lines(lib):
        record = json.dumps(list(workloads.run_cli(lib, argv)))
        out[" ".join(argv)] = hashlib.sha256(record.encode("utf-8")).hexdigest()
    return out


def test_outputs_match_the_pinned_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, "%d outputs changed, first: %s" % (len(changed), changed[0])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
