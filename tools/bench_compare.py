"""Compare the benchmark of a parent commit with a change, in alternating pairs.

    python3 tools/bench_compare.py --parent HEAD --workload curve-corpus \\
        --seed 1 --seconds 30 --pairs 10 --out BENCH.json

The parent is the committed tree of ``--parent``, exported with ``git
archive`` into a temporary directory outside the repository (exactly the
committed files, and nothing registered in the repository's ``.git``).
The change is this checkout's working tree.  Each pair runs
``perfbench/run.py`` once on each side with the same arguments and the
same interpreter; even pairs run the parent first and odd pairs the
change first, so that drift of the host's speed falls on both sides.

Each side records its sha, the digest of its sources, ``src_lines``, the
line count of src/plucker_lab/*.py, and ``tests_lines``, that of
tests/*.py, so that lines moved from src/ into tests/ show as such.  The metrics of a run are those
of its result line plus the error and undecided rates of its record line
(``ops.error_rate``, and ``ops.undecided_rate`` over the measured
ops only).  For every metric the output
records each side's values, median and quartiles, the pairs the change
won (ties count for neither) and whether a gain is shown: the change
wins at least nine tenths of the pairs and the medians differ, in the
better direction, by more than the parent's interquartile range.  Each
(workload, seed, trace) case is stored under its own key, so several
invocations with the same sides and ``--out`` accumulate in one file.
An ``--out`` file recorded with other sides is never overwritten: when
its sha, ``src_lines``, ``tests_lines`` or ``uncommitted_changes`` differ
the script exits non-zero before any pair runs, and when a source digest
differs it exits non-zero after the runs, leaving the file as it was.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The fields of a side known before any run, and the one a run reports.
SIDE_FIELDS = ("sha", "src_lines", "tests_lines", "uncommitted_changes")
DIGEST_FIELDS = ("src_sha256",)


def quartiles(values):
    """(q1, median, q3) by the inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, better):
    """Per-metric comparison of paired runs.

    ``parent`` and ``change`` are lists of {metric: value}, one per pair
    and in pair order; ``better`` maps a metric to "lower" or "higher"
    (metrics missing from it are summarized with no direction).
    """
    out = {}
    for name in sorted(set().union(*parent, *change)):
        pairs = [(p[name], c[name]) for p, c in zip(parent, change) if name in p and name in c]
        if not pairs:
            continue
        ps, cs = [p for p, _ in pairs], [c for _, c in pairs]
        pq, cq = quartiles(ps), quartiles(cs)
        entry = {
            "parent": {"values": ps, "q1": pq[0], "median": pq[1], "q3": pq[2]},
            "change": {"values": cs, "q1": cq[0], "median": cq[1], "q3": cq[2]},
            "pairs": len(pairs),
        }
        direction = better.get(name)
        if direction in ("lower", "higher"):
            sign = -1 if direction == "lower" else 1
            gain = sign * (cq[1] - pq[1])
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
            entry.update({
                "better": direction,
                "wins": wins,
                "losses": losses,
                "median_gain": gain,
                "parent_iqr": pq[2] - pq[0],
                "gain_shown": 10 * wins >= 9 * len(pairs) and gain > pq[2] - pq[0],
            })
        out[name] = entry
    return out


def directions(benchmark):
    """Metric name -> "lower"/"higher", from a BENCHMARK.json document."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer")
            for m in benchmark.get(key, ())}


def export_tree(rev, dest):
    """Write the committed files of ``rev`` into the directory ``dest``;
    returns the commit's sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def checkout_state():
    """(sha of HEAD, whether tracked files of this checkout are modified)."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip())
    return head, dirty


def refuse_other_sides(out, recorded, sides, fields):
    """Exit non-zero, naming them as "side.field", if any of ``fields``
    differs between the ``sides`` recorded in ``out`` and this run's."""
    differ = ["%s.%s" % (side, field) for side in ("parent", "change") for field in fields
              if recorded.get(side, {}).get(field) != sides[side].get(field)]
    if differ:
        sys.exit("%s was recorded with other sides (%s differ); it is left unchanged, "
                 "pass another --out" % (out, ", ".join(differ)))


def lines(root, pattern):
    """Total lines of the files matching ``pattern`` under ``root``, as wc -l
    counts them."""
    return sum(f.read_bytes().count(b"\n") for f in Path(root).glob(pattern))


def src_lines(root):
    return lines(root, "src/plucker_lab/*.py")


def tests_lines(root):
    return lines(root, "tests/*.py")


def run_bench(root, args):
    """One perfbench run in checkout ``root``: (metrics, src_sha256)."""
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=10 * args.seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    return read_output(proc.stdout, root)


def read_output(stdout, root):
    """(metrics, src_sha256) from the stdout of one perfbench run.

    The metrics are the result line's, plus ``ops.error_rate`` and
    ``ops.undecided_rate`` from the record line before it, which carries
    them also when the run is not traced.  perfbench counts the set-up
    check as one attempted op that is never undecided, so the undecided
    rate is rescored over the measured ops alone, undecided / (attempted
    - 1): otherwise it rises with the number of passes a run completes."""
    lines = stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    attempted = result["attempted"]
    if not result["correct"]:
        raise RuntimeError("%s: %d of %d ops failed: %s" % (
            root, result["failed"], attempted, record.get("errors")))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["ops.error_rate"] = record["error_rate"]
    undecided = round(record["undecided_rate"] * attempted)
    metrics["ops.undecided_rate"] = undecided / (attempted - 1)
    return metrics, record["env"]["src_sha256"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1, got %d" % args.pairs)

    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
    head, dirty = checkout_state()
    old = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else None
    runs = {"parent": [], "change": []}
    digests = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_sha = export_tree(args.parent, tmp)
        roots = {"parent": Path(tmp), "change": ROOT}
        sides = {side: {"src_lines": src_lines(root), "tests_lines": tests_lines(root)}
                 for side, root in roots.items()}
        sides["parent"]["sha"] = parent_sha
        sides["change"].update(sha=head, uncommitted_changes=dirty)
        if old is not None:
            refuse_other_sides(args.out, old.get("sides", {}), sides, SIDE_FIELDS)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                metrics, digests[side] = run_bench(roots[side], args)
                runs[side].append(metrics)
                print("pair %d/%d %-6s %s" % (i + 1, args.pairs, side, json.dumps(
                    {k: round(v, 6) for k, v in sorted(metrics.items()) if k in better})),
                    file=sys.stderr, flush=True)

    for side in sides:
        sides[side]["src_sha256"] = digests[side]
    case = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pairs": args.pairs,
        "metrics": summarize(runs["parent"], runs["change"], better),
    }
    doc = {"cases": {}}
    if old is not None:
        refuse_other_sides(args.out, old.get("sides", {}), sides, DIGEST_FIELDS)
        doc = old
    doc.update({"sides": sides, "python": platform.python_version(),
                "command": "tools/bench_compare.py"})
    doc["cases"]["%s seed=%d trace=%d" % (args.workload, args.seed, args.trace)] = case
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, entry in case["metrics"].items():
        if "better" in entry:
            print("%-36s parent %12.6g  change %12.6g  wins %d/%d  shown %s" % (
                name, entry["parent"]["median"], entry["change"]["median"],
                entry["wins"], entry["pairs"], entry["gain_shown"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
