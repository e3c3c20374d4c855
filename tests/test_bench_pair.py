"""tools/bench_pair.py: the pair statistics it writes, and its refusal of a
benchmark run that did not read "correct": true."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def _run(side, wall, rate):
    return {"side": side, "result": {"metrics": {
        "wall_s": {"value": wall}, "rate": {"value": rate}}}}


def test_summary_counts_wins_in_each_metrics_direction():
    # runs alternate base, change per pair, as main() stores them
    runs = []
    for b, c in [(1.0, 0.9), (1.2, 1.1), (1.1, 1.15), (1.0, 0.8)]:
        runs += [_run("base", b, 1 / b), _run("change", c, 1 / c)]
    out = bench_pair.summarize(runs, METRICS)
    wall, rate = out["wall_s"], out["rate"]
    assert wall["pairs"] == [[1.0, 0.9], [1.2, 1.1], [1.1, 1.15], [1.0, 0.8]]
    assert wall["change_better_in"] == "3/4"
    assert rate["change_better_in"] == "3/4"
    assert wall["base"]["median"] == pytest.approx(1.05)
    assert wall["change"]["median"] == pytest.approx(1.0)
    assert wall["median_gain"] == pytest.approx(0.05)  # lower is better
    assert rate["median_gain"] > 0  # higher is better
    q = wall["base"]
    assert q["q1"] <= q["median"] <= q["q3"]
    assert q["iqr"] == pytest.approx(q["q3"] - q["q1"])


def test_one_pair_has_no_spread():
    out = bench_pair.summarize([_run("base", 2.0, 0.5),
                                _run("change", 2.5, 0.4)], METRICS)
    assert out["wall_s"]["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                     "iqr": 0.0}
    assert out["wall_s"]["change_better_in"] == "0/1"


@pytest.mark.parametrize("code, last", [
    (0, {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}),
    (0, {"attempted": 4, "failed": 0, "metrics": {}}),
    (1, {"correct": True, "attempted": 4, "failed": 0, "metrics": {}}),
    (0, None),
])
def test_a_run_that_is_not_correct_is_refused(monkeypatch, tmp_path,
                                              code, last):
    stdout = "ops: 4\n" + ("" if last is None else json.dumps(last) + "\n")

    def fake_run(cmd, cwd, text, capture_output):
        assert cmd[1:3] == ["perfbench/run.py", "--workload"]
        return subprocess.CompletedProcess(cmd, code, stdout, "")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match="nothing written"):
        bench_pair.run_once(tmp_path, "suites", 1.0, "tiny")


def test_a_correct_run_returns_its_result_and_machine(monkeypatch, tmp_path):
    last = {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    records = tmp_path / ".perfbench"
    records.mkdir()
    (records / "suites-seed0-trace0-tiny.json").write_text(
        json.dumps({"machine": {"nproc": 2}}))

    def fake_run(cmd, cwd, text, capture_output):
        return subprocess.CompletedProcess(cmd, 0, json.dumps(last), "")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    assert bench_pair.run_once(tmp_path, "suites", 1.0, "tiny") == (
        last, {"nproc": 2})
