"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import run  # noqa: E402
from layers import LAYERS, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    admissible_lambdas,
    draw_lambdas,
    lambda_strata,
    load_costs,
)


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def test_cost_table_covers_exactly_the_admissible_lambdas(lib):
    assert sorted(load_costs()) == admissible_lambdas(lib)


def test_draws_are_deterministic_and_admissible(lib):
    costs = load_costs()
    S = lib.scalars.EisensteinScalar
    rho = S(0, 1)
    excluded = {S(1), rho, rho * rho}
    draws = set()
    for seed in range(40):
        draw = draw_lambdas(seed, costs)
        assert draw == draw_lambdas(seed, costs)
        assert len(draw) == len(set(draw)) == len(lambda_strata(costs))
        assert not {lib.polynomials.parse_scalar(t) for t in draw} & excluded
        draws.add(tuple(sorted(draw)))
    assert len(draws) == 40


def test_every_draw_has_the_same_cost_profile():
    costs = load_costs()
    strata = lambda_strata(costs)
    light = [t for s in strata[:-2] for t in s]
    assert sorted(light) == sorted(t for t in costs if costs[t] < 1)
    assert all(2.3 <= costs[t] < 2.5 for t in strata[-2])
    assert all(8.2 <= costs[t] < 8.5 for t in strata[-1])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.open("outer")
    clock.now = 1.0
    for start, length in ((1.0, 2.0), (4.0, 0.5)):
        clock.now = start
        inner = tracer.open("inner")
        clock.now = start + 0.25
        leaf = tracer.open("leaf")
        clock.now = start + length
        tracer.close(leaf, clock.now)
        tracer.close(inner, clock.now)
    clock.now = 10.0
    tracer.close(outer, clock.now)
    st = tracer.stats
    assert st["outer"].calls == 1 and st["outer"].total_s == 10.0
    assert st["outer"].self_s == 10.0 - 2.5
    assert st["inner"].calls == 2 and st["inner"].self_s == 0.5
    assert st["leaf"].total_s == st["leaf"].self_s == 2.0


def test_spans_carry_op_and_parent():
    tracer = Tracer(FakeClock())
    tracer.op = 7
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    assert (inner.parent, inner.op, outer.parent) == (outer.id, 7, None)
    tracer.close(inner, 0.0)
    tracer.close(outer, 0.0)


def test_wrapper_counts_raises_and_probes():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert tracer.stats["boom"].raised == 1
    probed = tracer.wrap("sq", lambda x: x * x, probe=lambda args, result: {"size": result})
    probed(3)
    probed(2)
    assert tracer.stats["sq"].maxima["size"] == 9
    assert tracer.stats["sq"].sums["size"] == 13


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "plucker_lab" or name.startswith("plucker_lab."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        out[(name, attr, meth)] = fn
    return out


def test_uninstall_restores_every_wrapped_binding(lib):
    before = _bindings()
    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        assert lib.curve.lambda_roots is not before[("plucker_lab.curve", "lambda_roots")]
        assert lib.corpus.lambda_roots is not before[("plucker_lab.corpus", "lambda_roots")]
        assert lib.scalars.LambdaPoly.gcd is not before[("plucker_lab.scalars", "LambdaPoly", "gcd")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_pass_reports_every_layer_and_restores(lib):
    workload = WORKLOADS["curve-corpus"](run.ROOT)
    ops = workload.setup(lib, 3)
    workload.check_setup()
    before = _bindings()
    result, tracer = run.measure(workload, ops[:6], 0, trace=True)
    assert _bindings().keys() == before.keys()
    assert all(v is before[k] for k, v in _bindings().items())
    assert result.failed == 0 and len(result.pass_times[True]) == 1
    metrics = layer_metrics(tracer.stats, 1, 6)
    for layer in LAYERS:
        assert layer.name + ".calls" in metrics
    assert metrics["cli.main.calls"][0] == 6


def _smoke_ops(name, ops):
    if name == "special-sweep":
        costs = load_costs()
        return sorted(ops, key=lambda op: costs[op[1]])[:2]
    if name == "numerology":
        return ops[:3000] + [op for op in ops if op[0] != "roundtrip"]
    return ops[:16]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_pass(lib, name):
    workload = WORKLOADS[name](run.ROOT)
    ops = workload.setup(lib, run.HELD_OUT_SEED)
    workload.check_setup()
    smoke = _smoke_ops(name, ops)
    result = run.Run(smoke)
    seconds = run.one_pass(workload, smoke, result)
    assert result.failed == 0, result.errors
    assert seconds > 0 and result.wall_clock[0] > 0 and result.attempted > 0


def test_a_wrong_answer_is_a_failed_op(lib):
    workload = WORKLOADS["numerology"](run.ROOT)
    workload.setup(lib, 1)
    result = run.Run([("pencil", 3)])

    class Liar:
        def run(self, kind, arg):
            return 6 * arg + 1

        check = workload.check

    run.one_pass(Liar(), [("pencil", 3)], result)
    assert result.failed == 1 and "pencil count" in result.errors[0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(108) == 90
    assert run.tail_percentile(278479) == 99.99
    assert run.tail_percentile(19) is None


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = run.Run([("analyze", 0), ("dual", 0)])
    result.pass_times = {False: [2.0], True: [2.5]}
    result.attempted = 2
    result.rss_after_first_pass = 30.0
    result.add_pass([0.01, 0.02])
    e2e, _ = run.end_to_end(result, [0.1], 20)
    layers = run.per_layer(result, Tracer(), 2)
    for reported, listed in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {m["name"]: m["unit"] for m in listed} == {k: u for k, (_, u) in reported.items()}
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_each_op_counts_with_its_median_over_the_passes():
    inf = float("inf")
    result = run.Run([("analyze", 0), ("dual", 0)])
    for times in ([2.0, 5.0], [1.0, inf], [3.0, 4.0]):
        result.add_pass(times)
    assert result.op_times() == [2.0, 4.5]
    assert result.op_times("dual") == [4.5]


class _Clock:
    """A clock that each reading advances by ``step``."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_slices_scale_to_nominal_and_are_used_once(monkeypatch):
    monkeypatch.setattr(calibrate, "reference_slice", lambda: None)
    tick = 2.0 ** -10  # every slice reads one tick; binary fractions keep the sums exact
    calibrator = calibrate.Calibrator(_Clock(tick))
    assert calibrator.factor() is None
    calibrator.sample()
    calibrator.sample()
    assert calibrator.factor() == pytest.approx(calibrate.NOMINAL_SLICE_S / tick)
    assert calibrator.factor() is None
    assert calibrator.factor(3) == pytest.approx(calibrate.NOMINAL_SLICE_S / tick)
    assert calibrator.inside == 5 * tick


def test_the_timer_runs_slices_and_is_stopped_after():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibrator(time.process_time) as calibrator:
        start = time.process_time()
        while time.process_time() - start < 0.1:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(calibrator.samples) >= 5 and calibrator.inside == pytest.approx(sum(calibrator.samples))


def test_ops_are_calibrated_by_the_slices_during_or_after_them(monkeypatch):
    workload = WORKLOADS["numerology"](run.ROOT)
    result = run.Run([("pencil", 3), ("pencil", 4)])
    factors = iter([None, 2.0])
    monkeypatch.setattr(result.calibrator, "factor", lambda min_samples=0: next(factors))
    monkeypatch.setattr(run, "CLOCK", _Clock(0.5))  # every op reads 0.5 s

    class Exact:
        def run(self, kind, arg):
            return 6 * arg

        check = workload.check

    total = run.one_pass(Exact(), [("pencil", 3), ("pencil", 4)], result)
    assert total == 2.0 and result.op_times() == [1.0, 1.0]
    assert result.cpu_times == [1.0]
