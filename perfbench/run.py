"""Benchmark for plucker-lab: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload special-sweep --seed 1 --seconds 30 --trace 0

One client, no think time, no threads.  The run sets up (import, input
generation, warm-up) several times and keeps the median, then runs passes
over the generated inputs until the next pass would overrun --seconds;
the first pass always runs.  Only the operations are timed, each op
counting with its median time over the passes; every output is checked
exactly after its timer stops.  Op and set-up times are CPU time of this
process, so that other tenants of a shared host, which take turns on its
cores, stretch the wall clock but not the figures; and they are
calibrated against a reference computation that an interval timer
interleaves with the work (calibrate.py), so that the host's drifting
speed does not move them either.  The record line keeps the raw CPU and
wall-clock pass times.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics of the traced ones
(per pass) and the tracing overhead.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from calibrate import Calibrator  # noqa: E402
from layers import LAYERS, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The seed claims are made on, and the one they are confirmed on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

SETUP_REPEATS = 5
SETUP_SLICES = 5
CLOCK = time.process_time
MODULES = ("scalars", "polynomials", "curve", "pluecker", "chow", "heisenberg", "corpus", "cli")
TAIL_PERCENTILES = (99.99, 99.9, 99, 95, 90, 75, 50)


def load_library():
    """Import plucker_lab afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "plucker_lab" or n.startswith("plucker_lab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{m: importlib.import_module("plucker_lab." + m) for m in MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / "plucker_lab":
        raise ImportError("plucker_lab was imported from %s, not %s" % (lib.cli.__file__, SRC))
    return lib


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks."""
    k = (len(sorted_values) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(pass_size):
    """Highest percentile with at least 10 of one pass's samples beyond it."""
    for p in TAIL_PERCENTILES:
        if pass_size * (100 - p) / 100 >= 10:
            return p
    return None


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment():
    sha = None
    if (ROOT / ".git").exists():  # git would otherwise search the parent directories
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


class Run:
    """Outcome of the measured passes of one run.  ``passes`` holds, for
    each untraced pass, the calibrated time of every op (inf where it
    failed); an op counts with its median over them.  ``pass_times``
    holds calibrated pass times, untraced and traced; ``cpu_times`` and
    ``wall_clock`` the raw CPU and wall-clock op time of each untraced
    pass."""

    def __init__(self, ops, calibrator=None):
        self.calibrator = calibrator or Calibrator(CLOCK)
        self.kinds = [kind for kind, _ in ops]
        self.passes = []
        self.pass_times = {False: [], True: []}
        self.cpu_times = []
        self.wall_clock = []
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.errors = []
        self.rss_after_first_pass = None
        self._medians = None

    def add_pass(self, times):
        self.passes.append(times)
        self._medians = None

    def op_times(self, kind=None):
        if self._medians is None:
            self._medians = []
            for values in zip(*self.passes):
                done = [t for t in values if t < math.inf]
                self._medians.append(statistics.median(done) if done else None)
        return sorted(t for k, t in zip(self.kinds, self._medians)
                      if t is not None and kind in (None, k))

    def fail(self, what, exc):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("%s: %s" % (what, "".join(
                traceback.format_exception_only(type(exc), exc)).strip()))


def one_pass(workload, ops, run, tracer=None):
    """Time each op, leaving out the calibration slices that run inside
    it, and check it outside the timer; returns the calibrated pass time,
    the sum of the op times."""
    clock = CLOCK
    calibrator = run.calibrator
    times = array("d", [math.inf]) * len(ops)
    pending = []  # ops that no slice has run during or after yet
    total = cpu = wall = 0.0
    for index, (kind, arg) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        run.attempted += 1
        inside, inside_wall = calibrator.inside, calibrator.inside_wall
        start_wall = time.perf_counter()
        start = clock()
        try:
            out = workload.run(kind, arg)
            error = None
        except Exception as exc:  # a crashing op is a failed op, not a dead run
            error = exc
        elapsed = clock() - start - (calibrator.inside - inside)
        wall += time.perf_counter() - start_wall - (calibrator.inside_wall - inside_wall)
        cpu += elapsed
        pending.append((index, elapsed, error is None))
        factor = calibrator.factor()
        if factor is not None:
            total += _settle(pending, factor, times)
        if error is not None:
            run.fail("%s %r" % (kind, arg), error)
            continue
        try:
            if not workload.check(kind, arg, out):
                run.undecided += 1
        except Exception as exc:  # output of an unexpected shape is a wrong answer too
            run.fail("%s %r" % (kind, arg), exc)
    if pending:
        total += _settle(pending, calibrator.factor(1), times)
    if tracer is None:
        run.add_pass(times)
        run.cpu_times.append(cpu)
        run.wall_clock.append(wall)
    return total


def _settle(pending, factor, times):
    """Calibrate the pending ops by ``factor``; returns their sum."""
    total = 0.0
    for index, elapsed, ok in pending:
        total += elapsed * factor
        if ok:
            times[index] = elapsed * factor
    pending.clear()
    return total


def measure(workload, ops, seconds, trace, calibrator=None):
    """Passes until the next one would overrun ``seconds`` of wall clock;
    with ``trace`` they alternate untraced and traced, starting untraced.
    Spans leave out the time of the calibration slices inside them."""
    run = Run(ops, calibrator)
    calibrator = run.calibrator
    tracer = Tracer(lambda: time.perf_counter() - calibrator.inside_wall) if trace else None
    started = time.perf_counter()
    traced = False
    while True:
        pass_start = time.perf_counter()
        if traced:
            tracer.install(LAYERS)
            try:
                run.pass_times[True].append(one_pass(workload, ops, run, tracer))
            finally:
                tracer.uninstall()
        else:
            run.pass_times[False].append(one_pass(workload, ops, run))
            if run.rss_after_first_pass is None:
                run.rss_after_first_pass = peak_rss_mib()
        last = time.perf_counter() - pass_start
        traced = trace and not traced
        if traced and not run.pass_times[True]:
            continue
        if time.perf_counter() - started + last > seconds:
            return run, tracer


def kind_p50(run, kind):
    values = run.op_times(kind)
    return percentile(values, 50) if values else 0.0


def end_to_end(run, setup_times, pass_size):
    """The --trace 0 metrics, and notes for the record line."""
    values = run.op_times()
    p = tail_percentile(pass_size)
    notes = {"op_samples": len(values), "op_tail_percentile": p, "passes_s": run.pass_times[False],
             "passes_cpu_s": run.cpu_times, "passes_wall_clock_s": run.wall_clock,
             "analyze_p50_s": kind_p50(run, "analyze"), "dual_p50_s": kind_p50(run, "dual")}
    metrics = {
        "pass_s": (math.fsum(values), "s"),
        "op_p50_s": (percentile(values, 50), "s"),
        "op_tail_s": (percentile(values, p), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (run.rss_after_first_pass, "MiB"),
    }
    return metrics, notes


def per_layer(run, tracer, pass_size):
    """The --trace 1 metrics: per-pass layer figures from the traced
    passes, tracing overhead against the untraced ones."""
    untraced = min(run.pass_times[False])
    traced = min(run.pass_times[True])
    metrics = layer_metrics(tracer.stats, len(run.pass_times[True]), pass_size)
    metrics.update({
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_ratio": ((traced - untraced) / untraced, "ratio"),
        "cli.analyze_p50_s": (kind_p50(run, "analyze"), "s"),
        "cli.dual_p50_s": (kind_p50(run, "dual"), "s"),
        "ops.error_rate": (run.failed / run.attempted, "ratio"),
        "ops.undecided_rate": (run.undecided / run.attempted, "ratio"),
    })
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "plucker_lab" / "__init__.py").is_file():
        print("error: no plucker_lab sources under %s" % SRC, file=sys.stderr)
        return 2

    env = environment()
    workload = WORKLOADS[args.workload](ROOT)
    with Calibrator(CLOCK) as calibrator:
        calibrator.factor(SETUP_SLICES)  # warms the slice up
        setup_times = []
        for _ in range(SETUP_REPEATS):
            inside = calibrator.inside
            start = CLOCK()
            lib = load_library()
            ops = workload.setup(lib, args.seed)
            elapsed = CLOCK() - start - (calibrator.inside - inside)
            setup_times.append(elapsed * calibrator.factor(SETUP_SLICES))
        setup_error = None
        try:
            workload.check_setup()
        except Exception as exc:
            setup_error = exc
        run, tracer = measure(workload, ops, args.seconds, bool(args.trace), calibrator)
    run.attempted += 1  # the warm-up outputs checked after set-up
    if setup_error is not None:
        run.fail("setup", setup_error)
    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "pass_size": len(ops),
        "error_rate": run.failed / run.attempted,
        "undecided_rate": run.undecided / run.attempted,
        "errors": run.errors,
    }
    if args.trace:
        metrics = per_layer(run, tracer, len(ops))
    else:
        metrics, notes = end_to_end(run, setup_times, len(ops))
        record.update(notes)

    for name in sorted(metrics):
        value, unit = metrics[name]
        print("%-44s %14.6g %s" % (name, value, unit))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
