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


def _canned_output(correct=True, trace=0):
    """The last three lines of a perfbench run, shaped like run.py's."""
    record = {"workload": "special-sweep", "seed": 1, "trace": trace, "pass_size": 20,
              "error_rate": 0.0, "undecided_rate": 0.05, "errors": [] if correct else ["boom"],
              "env": {"src_sha256": "ab" * 32, "python": "3.11.7"}}
    metrics = {"pass_s": {"value": 0.31, "unit": "s"}}
    if trace:
        metrics["ops.error_rate"] = {"value": 0.0, "unit": "ratio"}
        metrics["ops.undecided_rate"] = {"value": 0.05, "unit": "ratio"}
    result = {"correct": correct, "attempted": 21, "failed": 0 if correct else 1,
              "metrics": metrics}
    return "pass_s  0.31 s\n%s\n%s\n" % (json.dumps(record), json.dumps(result))


@pytest.mark.parametrize("trace", [0, 1])
def test_read_output_takes_the_rates_from_the_record_line(trace):
    metrics, digest = bench_compare.read_output(_canned_output(trace=trace), "here")
    assert metrics == {"pass_s": 0.31, "ops.error_rate": 0.0, "ops.undecided_rate": 0.05}
    assert digest == "ab" * 32


def test_read_output_rejects_a_run_with_failed_ops():
    with pytest.raises(RuntimeError, match="1 of 21 ops failed"):
        bench_compare.read_output(_canned_output(correct=False), "here")
