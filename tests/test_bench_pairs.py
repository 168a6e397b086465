"""tools/bench_pairs.py: quartiles, verdicts, the per-workload summary and
the plan parser, on hand-made runs (no git, no benchmark runs)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_of_one_two_and_five_values():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)


@pytest.mark.parametrize(
    "direction, parent, change, expected",
    [
        # the change median is 30% worse than the parent's
        ("higher", [10.0, 10.0, 10.0], [7.0, 7.0, 7.0], "worse"),
        ("lower", [10.0, 10.0, 10.0], [13.0, 13.0, 13.0], "worse"),
        # the parent's IQR (9..11) is 20% of its median, over the bound
        ("higher", [8.0, 10.0, 12.0], [10.0, 10.0, 10.0], "unresolved"),
        ("lower", [8.0, 10.0, 12.0], [10.0, 10.0, 10.0], "unresolved"),
        # ... unless every change run beats every parent run
        ("higher", [8.0, 10.0, 12.0], [13.0, 14.0, 15.0], "holds"),
        ("lower", [8.0, 10.0, 12.0], [5.0, 6.0, 7.0], "holds"),
        # a narrow parent and a change within the bound
        ("higher", [10.0, 10.0, 10.0], [9.5, 9.5, 9.5], "holds"),
        ("lower", [10.0, 10.0, 10.0], [10.5, 10.5, 10.5], "holds"),
    ],
)
def test_verdict(direction, parent, change, expected):
    assert bench_pairs.verdict(parent, change, direction, 0.1) == expected


_PARENT = [100.0, 101.0, 99.5, 100.5, 99.5, 100.0, 102.0, 98.0, 100.5, 99.0]


@pytest.mark.parametrize(
    "change, shown",
    [
        # 10 wins of 10, the median 10 above a parent q3 - q1 of 1
        ([110.0] * 10, True),
        # 9 of 10, with a loss
        ([110.0] * 9 + [90.0], True),
        # 9 of 10, with a tie, which counts for neither side
        ([110.0] * 9 + _PARENT[9:], True),
        # 8 of 10, with a tie and a loss, or with two ties
        ([110.0] * 8 + [_PARENT[8], 90.0], False),
        ([110.0] * 8 + _PARENT[8:], False),
        # every pair won, but the median gap (0.75) is inside the IQR (1)
        ([p + 0.75 for p in _PARENT], False),
        # the same gap past the IQR
        ([p + 1.25 for p in _PARENT], True),
    ],
)
def test_gain_shown_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr(
    change, shown
):
    assert bench_pairs.quartiles(_PARENT) == (99.5, 100.0, 100.5)
    assert bench_pairs.gain_shown(_PARENT, change, "higher") is shown
    # the same runs mirrored, for a metric where lower is better
    mirrored = [-p for p in _PARENT], [-c for c in change]
    assert bench_pairs.gain_shown(*mirrored, "lower") is shown
    assert bench_pairs.gain_shown(*mirrored, "higher") is False


def test_gain_shown_needs_ten_pairs():
    assert bench_pairs.gain_shown(_PARENT, [110.0] * 10, "higher") is True
    assert bench_pairs.gain_shown(_PARENT[:9], [110.0] * 9, "higher") is False
    assert bench_pairs.gain_shown(_PARENT * 2, [110.0] * 19 + [90.0], "higher")


def _run(pair, side, value, correct=True):
    metrics = {"runs_per_s": value, "setup_s": 1.0} if correct else {}
    return {"workload": "grid", "seed": 100 + pair, "pair": pair, "side": side,
            "first": "parent", "correct": correct, "units": 3,
            "metrics": metrics}


def test_summarize_ratio_wins_and_a_dropped_pair():
    runs = [
        _run(0, "parent", 10.0), _run(0, "change", 12.0),
        _run(1, "parent", 10.0), _run(1, "change", 9.0),
        _run(2, "parent", 10.0), _run(2, "change", 11.0),
        # a failed change run: this pair alone leaves the statistics
        _run(3, "parent", 10.0), _run(3, "change", None, correct=False),
    ]
    summary = bench_pairs.summarize(
        runs, {"runs_per_s": "higher", "setup_s": "lower"}, {"runs_per_s": 0.25}
    )
    grid = summary["grid"]
    assert grid["pairs"] == 3
    assert grid["seeds"] == [100, 101, 102]
    assert grid["all_correct"] is False
    assert grid["dropped_pairs"] == [{"pair": 3, "seed": 103, "failed": ["change"]}]
    rate = grid["runs_per_s"]
    assert (rate["parent_median"], rate["change_median"]) == (10.0, 11.0)
    assert rate["median_ratio"] == 1.1
    assert (rate["change_wins"], rate["out_of"]) == (2, 3)
    assert (rate["bound"], rate["verdict"]) == (0.25, "holds")
    # 2 wins of 3 is short of nine tenths
    assert rate["gain_shown"] is False
    setup = grid["setup_s"]
    assert (setup["median_ratio"], setup["change_wins"]) == (1.0, 0)
    assert setup["gain_shown"] is False
    assert "verdict" not in setup


def test_summarize_shows_a_gain_only_for_metrics_with_a_direction():
    runs = []
    for pair in range(10):
        runs += [_run(pair, "parent", 10.0 + pair % 2), _run(pair, "change", 13.0)]
    grid = bench_pairs.summarize(runs, {"runs_per_s": "higher"}, {})["grid"]
    assert grid["runs_per_s"]["change_wins"] == 10
    assert grid["runs_per_s"]["gain_shown"] is True
    assert grid["setup_s"]["better"] is None
    assert "gain_shown" not in grid["setup_s"]


def test_summarize_keeps_a_workload_whose_runs_all_pass():
    runs = [_run(0, "parent", 10.0), _run(0, "change", 10.0)]
    grid = bench_pairs.summarize(runs, {"runs_per_s": "higher"}, {})["grid"]
    assert grid["all_correct"] is True
    assert grid["dropped_pairs"] == []
    assert grid["runs_per_s"]["change_wins"] == 0


@pytest.mark.parametrize(
    "spec", ["grid", "grid=", "=1,2", "grid=1,x", "grid=1,,2", "grid=1,2,3", "grid=1"]
)
def test_parse_plan_refuses_a_bad_spec(spec):
    assert bench_pairs.parse_plan(["focused=7919,1"]) == [("focused", [7919, 1])]
    with pytest.raises(SystemExit, match="bad plan"):
        bench_pairs.parse_plan([spec])


@pytest.mark.parametrize(
    "info, last",
    [("{}", ""), ("{}", "not json"), ("{}", "{}"), ("{}", "42"),
     ("{}", "[1, 2]"), ("{}", '{"correct": true}'),
     ("{}", '{"correct": true, "metrics": {"runs_per_s": 5}}'),
     ("{", '{"correct": true, "metrics": {}}')],
)
def test_run_once_counts_a_malformed_result_as_a_failed_run(
    monkeypatch, tmp_path, info, last
):
    stdout = f"info {info}\n{last}\n"

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="boom")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run = bench_pairs.run_once(tmp_path, ["bench"], "grid", 1, 1.0)
    assert run["correct"] is False
    assert (run["units"], run["metrics"]) == (None, {})
    assert run["error"] == "exit 0: boom"


def test_run_once_reads_a_well_formed_result(monkeypatch, tmp_path):
    result = {"correct": True, "metrics": {"runs_per_s": {"value": 5.0}}}
    stdout = 'info {"units": 3}\n' + json.dumps(result) + "\n"
    monkeypatch.setattr(
        bench_pairs.subprocess, "run",
        lambda argv, **kwargs: subprocess.CompletedProcess(argv, 0, stdout, ""),
    )
    run = bench_pairs.run_once(tmp_path, ["bench"], "grid", 1, 1.0)
    assert run["correct"] is True
    assert (run["units"], run["metrics"]) == (3, {"runs_per_s": 5.0})
