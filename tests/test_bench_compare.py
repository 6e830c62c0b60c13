import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def _runs(name, values):
    return [{name: v} for v in values]


def test_summary_of_a_clear_gain():
    parent = _runs("pass_s", [0.83, 0.84, 0.82, 0.85, 0.83, 0.84, 0.83, 0.86, 0.82, 0.84])
    change = _runs("pass_s", [0.55, 0.54, 0.56, 0.55, 0.57, 0.55, 0.54, 0.55, 0.56, 0.55])
    entry = bench_compare.summarize(parent, change, {"pass_s": "lower"})["pass_s"]
    assert entry["parent"]["median"] == pytest.approx(0.835)
    assert entry["parent"]["q1"] == pytest.approx(0.83)
    assert entry["parent"]["q3"] == pytest.approx(0.84)
    assert entry["change"]["median"] == pytest.approx(0.55)
    assert (entry["wins"], entry["losses"], entry["pairs"]) == (10, 0, 10)
    assert entry["median_gain"] == pytest.approx(0.285)
    assert entry["parent_iqr"] == pytest.approx(0.01)
    assert entry["gain_shown"] is True


def test_summary_needs_nine_tenths_of_the_pairs():
    # eight wins, one tie and one loss: the tie counts for neither side
    parent = _runs("pass_s", [1.0] * 10)
    change = _runs("pass_s", [0.5] * 8 + [1.0, 1.5])
    entry = bench_compare.summarize(parent, change, {"pass_s": "lower"})["pass_s"]
    assert (entry["wins"], entry["losses"]) == (8, 1)
    assert entry["gain_shown"] is False


def test_summary_needs_a_gap_wider_than_the_parent_spread():
    parent = _runs("m", [1.0, 2.0, 3.0, 4.0, 5.0])
    change = _runs("m", [0.9, 1.9, 2.9, 3.9, 4.9])
    entry = bench_compare.summarize(parent, change, {"m": "lower"})["m"]
    assert entry["wins"] == 5
    assert entry["median_gain"] == pytest.approx(0.1)
    assert entry["parent_iqr"] == pytest.approx(2.0)
    assert entry["gain_shown"] is False


def test_summary_respects_higher_is_better_and_unknown_metrics():
    parent = [{"ratio": 0.5, "extra": 1.0}, {"ratio": 0.5, "extra": 2.0}]
    change = [{"ratio": 0.9, "extra": 3.0}, {"ratio": 0.9}]
    out = bench_compare.summarize(parent, change, {"ratio": "higher"})
    assert out["ratio"]["wins"] == 2 and out["ratio"]["median_gain"] == pytest.approx(0.4)
    # no direction: values and quartiles only, from the pairs that have it
    assert "better" not in out["extra"] and out["extra"]["pairs"] == 1
    assert out["extra"]["parent"]["median"] == out["extra"]["parent"]["q1"] == 1.0


def test_directions_read_from_a_benchmark_document():
    doc = {
        "end_to_end": [{"name": "pass_s", "better": "lower"}],
        "per_layer": [{"name": "x.complete_ratio", "better": "higher"}],
    }
    assert bench_compare.directions(doc) == {"pass_s": "lower", "x.complete_ratio": "higher"}


def test_src_lines_counts_the_package_sources_like_wc(tmp_path):
    pkg = tmp_path / "src" / "plucker_lab"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (pkg / "b.py").write_text("def f():\n    return 1")  # no final newline: 1 line
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (pkg / "sub" / "c.py").write_text("not counted either\n")
    assert bench_compare.src_lines(tmp_path) == 4


def test_tests_lines_counts_the_top_level_test_modules(tmp_path):
    tests = tmp_path / "tests"
    (tests / "golden").mkdir(parents=True)
    (tests / "test_a.py").write_text("a = 1\nb = 2\n")
    (tests / "oracle.py").write_text("def f():\n    return 1\n")
    (tests / "golden" / "g.py").write_text("not counted\n")
    (tests / "golden" / "report.json").write_text("{}\n")
    (tmp_path / "src" / "plucker_lab").mkdir(parents=True)
    (tmp_path / "src" / "plucker_lab" / "m.py").write_text("x = 1\n")
    assert bench_compare.tests_lines(tmp_path) == 4
    assert bench_compare.src_lines(tmp_path) == 1


def _canned_output(correct=True, trace=0, attempted=21, undecided=1):
    """The last three lines of a perfbench run, shaped like run.py's: its
    rates count the set-up check as one more attempted op."""
    rate = undecided / attempted
    record = {"workload": "special-sweep", "seed": 1, "trace": trace, "pass_size": 20,
              "error_rate": 0.0, "undecided_rate": rate, "errors": [] if correct else ["boom"],
              "env": {"src_sha256": "ab" * 32, "python": "3.11.7"}}
    metrics = {"pass_s": {"value": 0.31, "unit": "s"}}
    if trace:
        metrics["ops.error_rate"] = {"value": 0.0, "unit": "ratio"}
        metrics["ops.undecided_rate"] = {"value": rate, "unit": "ratio"}
    result = {"correct": correct, "attempted": attempted, "failed": 0 if correct else 1,
              "metrics": metrics}
    return "pass_s  0.31 s\n%s\n%s\n" % (json.dumps(record), json.dumps(result))


@pytest.mark.parametrize("trace", [0, 1])
def test_read_output_takes_the_rates_from_the_record_line(trace):
    metrics, digest = bench_compare.read_output(_canned_output(trace=trace), "here")
    assert metrics == {"pass_s": 0.31, "ops.error_rate": 0.0, "ops.undecided_rate": 0.05}
    assert digest == "ab" * 32


def test_undecided_rate_is_scored_over_the_measured_passes_only():
    # curve-corpus: 9 of 108 ops undecided in every pass, plus the set-up
    # check; run.py reports 9P / (108P + 1), which rises with P
    rates = {}
    for passes in (300, 310):
        out = _canned_output(attempted=108 * passes + 1, undecided=9 * passes)
        rates[passes] = bench_compare.read_output(out, "here")[0]["ops.undecided_rate"]
    assert rates[300] == rates[310] == 9 / 108
    parent = _runs("ops.undecided_rate", [rates[300]] * 10)
    change = _runs("ops.undecided_rate", [rates[310]] * 10)
    entry = bench_compare.summarize(parent, change, {"ops.undecided_rate": "lower"})
    assert (entry["ops.undecided_rate"]["wins"], entry["ops.undecided_rate"]["losses"]) == (0, 0)
    # a run with no undecided op reads 0
    assert bench_compare.read_output(_canned_output(undecided=0), "here")[0][
        "ops.undecided_rate"] == 0.0


def test_read_output_rejects_a_run_with_failed_ops():
    with pytest.raises(RuntimeError, match="1 of 21 ops failed"):
        bench_compare.read_output(_canned_output(correct=False), "here")


class _Bench:
    """Stand-ins for git and perfbench, so that main() runs offline on a
    fake checkout under ``tmp_path``."""

    def __init__(self, monkeypatch, tmp_path):
        self.root = tmp_path / "change"
        (self.root / "src" / "plucker_lab").mkdir(parents=True)
        (self.root / "src" / "plucker_lab" / "m.py").write_text("x = 1\n")
        (self.root / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "pass_s", "better": "lower"}]}))
        self.head, self.dirty, self.parent_lines = "c" * 40, False, 2
        self.digest = {"parent": "p" * 64, "change": "c" * 64}
        self.runs = 0
        monkeypatch.setattr(bench_compare, "ROOT", self.root)
        monkeypatch.setattr(bench_compare, "checkout_state", lambda: (self.head, self.dirty))
        monkeypatch.setattr(bench_compare, "export_tree", self.export_tree)
        monkeypatch.setattr(bench_compare, "run_bench", self.run_bench)

    def add_test_module(self):
        (self.root / "tests").mkdir()
        (self.root / "tests" / "test_x.py").write_text("y = 2\n")

    def export_tree(self, rev, dest):
        (Path(dest) / "src" / "plucker_lab").mkdir(parents=True)
        (Path(dest) / "src" / "plucker_lab" / "m.py").write_text("x = 1\n" * self.parent_lines)
        return "a" * 40

    def run_bench(self, root, args):
        self.runs += 1
        side = "change" if Path(root) == self.root else "parent"
        return {"pass_s": 1.0 if side == "parent" else 0.5}, self.digest[side]

    def main(self, out, workload):
        return bench_compare.main(["--workload", workload, "--pairs", "2", "--seconds", "1",
                                   "--out", str(out)])


def test_cases_accumulate_for_the_same_sides(monkeypatch, tmp_path):
    bench = _Bench(monkeypatch, tmp_path)
    out = tmp_path / "BENCH.json"
    assert bench.main(out, "numerology") == 0
    assert bench.main(out, "curve-corpus") == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["cases"]) == ["curve-corpus seed=1 trace=0", "numerology seed=1 trace=0"]
    assert doc["sides"]["parent"] == {"sha": "a" * 40, "src_sha256": "p" * 64,
                                      "src_lines": 2, "tests_lines": 0}
    assert doc["sides"]["change"]["uncommitted_changes"] is False


@pytest.mark.parametrize("field, change", [
    ("change.sha", lambda b: setattr(b, "head", "d" * 40)),
    ("change.uncommitted_changes", lambda b: setattr(b, "dirty", True)),
    ("parent.src_lines", lambda b: setattr(b, "parent_lines", 3)),
    ("change.tests_lines", lambda b: b.add_test_module()),
])
def test_other_sides_are_refused_before_any_pair_runs(monkeypatch, tmp_path, field, change):
    bench = _Bench(monkeypatch, tmp_path)
    out = tmp_path / "BENCH.json"
    bench.main(out, "numerology")
    before, runs = out.read_bytes(), bench.runs
    change(bench)
    with pytest.raises(SystemExit) as exit_:
        bench.main(out, "curve-corpus")
    assert exit_.value.code != 0 and "(%s differ)" % field in str(exit_.value.code)
    assert bench.runs == runs
    assert out.read_bytes() == before


def test_another_source_digest_is_refused_after_the_runs(monkeypatch, tmp_path):
    bench = _Bench(monkeypatch, tmp_path)
    out = tmp_path / "BENCH.json"
    bench.main(out, "numerology")
    before, runs = out.read_bytes(), bench.runs
    bench.digest["change"] = "e" * 64
    with pytest.raises(SystemExit) as exit_:
        bench.main(out, "curve-corpus")
    assert exit_.value.code != 0 and "(change.src_sha256 differ)" in str(exit_.value.code)
    assert bench.runs == runs + 4
    assert out.read_bytes() == before


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_pairs_below_one_are_refused_before_any_git_or_bench_work(
        monkeypatch, tmp_path, capsys, pairs):
    bench = _Bench(monkeypatch, tmp_path)
    calls = []
    monkeypatch.setattr(bench_compare, "checkout_state", lambda: calls.append("git"))
    monkeypatch.setattr(bench_compare, "export_tree", lambda rev, dest: calls.append("export"))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_:
        bench_compare.main(["--workload", "numerology", "--pairs", pairs, "--out", str(out)])
    assert exit_.value.code == 2
    assert "--pairs must be at least 1, got %s" % pairs in capsys.readouterr().err
    assert calls == [] and bench.runs == 0 and not out.exists()
