"""The summary math of tools/bench_pairs.py on canned runs: medians,
quartiles, the parent's IQR, the pairs won, the gain rule and the bound
rule; and, on stubbed runs, that a run exiting non-zero is recorded and
left out of the summary."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "throughput_per_s": "higher"}


def _runs(seed, parent, change, name="wall_s", unit="s"):
    return [
        {"pair": pair, "seed": seed, "side": side, "result": {"metrics": {name: {"unit": unit, "value": value}}}}
        for pair, values in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), values)
    ]


PARENT = [0.034, 0.033, 0.035, 0.036, 0.034, 0.033, 0.037, 0.034, 0.035, 0.034]
CHANGE = [0.028, 0.027, 0.029, 0.028, 0.034, 0.027, 0.028, 0.029, 0.028, 0.027]


def test_medians_quartiles_iqr_and_wins():
    row = bench_pairs.summarize(_runs(1001, PARENT, CHANGE), BETTER)["1001"]["wall_s"]
    # pair 4 is a tie, won by neither side
    assert row["change_wins"] == 9
    assert row["pairs"] == 10
    assert (row["better"], row["unit"]) == ("lower", "s")
    assert row["parent_median"] == 0.034 and row["change_median"] == 0.028
    q1, _, q3 = statistics.quantiles(PARENT, n=4)
    assert (row["parent_q1"], row["parent_q3"]) == (round(q1, 6), round(q3, 6))
    assert row["parent_iqr"] == round(round(q3, 6) - round(q1, 6), 6) == 0.0015
    assert bench_pairs.gain_shown(row)


def test_one_pair_is_summarized_with_its_values_as_quartiles():
    row = bench_pairs.summarize(_runs(1001, PARENT[:1], CHANGE[:1]), BETTER)["1001"]["wall_s"]
    assert (row["pairs"], row["change_wins"]) == (1, 1)
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"], row["parent_iqr"]) == (0.034, 0.034, 0.034, 0)
    assert (row["change_q1"], row["change_median"], row["change_q3"]) == (0.028, 0.028, 0.028)
    # a gain needs ten pairs
    assert not bench_pairs.gain_shown(row)


def test_higher_is_better_counts_the_other_way():
    up = [v * 1000 for v in PARENT]
    row = bench_pairs.summarize(_runs(7, up, [v + 1 for v in up], "throughput_per_s", "1/s"), BETTER)["7"]
    assert row["throughput_per_s"]["change_wins"] == 10
    # every pair won, but by 1/s, well inside the parent's IQR of 1.5/s
    assert not bench_pairs.gain_shown(row["throughput_per_s"])


@pytest.mark.parametrize("wins,shown", [(9, True), (8, False)])
def test_a_gain_needs_nine_tenths_of_the_pairs(wins, shown):
    change = [p - 0.005 if i < wins else p + 0.001 for i, p in enumerate(PARENT)]
    row = bench_pairs.summarize(_runs(1, PARENT, change), BETTER)["1"]["wall_s"]
    assert row["change_wins"] == wins
    assert bench_pairs.gain_shown(row) is shown


def test_seeds_are_summarized_apart():
    summary = bench_pairs.summarize(_runs(1001, PARENT, CHANGE) + _runs(2718, CHANGE, PARENT), BETTER)
    assert sorted(summary) == ["1001", "2718"]
    assert summary["2718"]["wall_s"]["change_wins"] == 0


# the parent's IQR, 0.0015, is 4.4 % of its median 0.034: inside a 25 % bound
@pytest.mark.parametrize(
    "change,bound,status",
    [
        (CHANGE, 0.25, "within bound"),
        ([v * 1.2 for v in PARENT], 0.25, "within bound"),
        ([v * 1.3 for v in PARENT], 0.25, "worse than bound"),
        ([v * 1.06 for v in PARENT], 0.05, "worse than bound"),
        ([v * 1.02 for v in PARENT], 0.04, "unresolved"),
        (CHANGE, 0.04, "unresolved"),
    ],
    ids=["better", "worse-inside", "worse-outside", "worse-outside-tight", "spread-wider", "spread-wider-better"],
)
def test_the_change_median_is_held_to_the_bound(change, bound, status):
    row = bench_pairs.summarize(_runs(1001, PARENT, change), BETTER)["1001"]["wall_s"]
    assert bench_pairs.against_bound(row, bound) == status


def test_a_change_better_in_every_run_is_resolved_however_wide_the_spread():
    change = [v - 0.004 for v in PARENT]
    change[PARENT.index(max(PARENT))] = min(PARENT) - 0.001
    row = bench_pairs.summarize(_runs(1001, PARENT, change), BETTER)["1001"]["wall_s"]
    assert row["change_better_every_run"]
    assert bench_pairs.against_bound(row, 0.04) == "within bound"
    assert not bench_pairs.summarize(_runs(1001, PARENT, CHANGE), BETTER)["1001"]["wall_s"]["change_better_every_run"]


def test_a_higher_is_better_metric_is_worse_when_it_falls():
    up = [v * 1000 for v in PARENT]
    rows = [
        bench_pairs.summarize(_runs(7, up, [v * factor for v in up], "throughput_per_s", "1/s"), BETTER)["7"]
        ["throughput_per_s"]
        for factor in (0.7, 0.8, 1.5)
    ]
    assert [bench_pairs.against_bound(row, 0.25) for row in rows] == ["worse than bound", "within bound", "within bound"]


def test_every_end_to_end_metric_has_a_bound():
    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert all(metric["bound"] > 0 for metric in benchmark["end_to_end"])


def test_a_failed_run_is_recorded_and_the_file_still_written(monkeypatch, tmp_path):
    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    metrics = {m["name"]: {"unit": m["unit"], "value": 1.0} for m in benchmark["end_to_end"]}
    calls = []

    def run(argv, cwd=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout="subject\n", stderr="")
        calls.append(Path(cwd).name)
        if len(calls) == 3:  # pair 1, the change side, which runs first on odd pairs
            return subprocess.CompletedProcess(argv, 3, stdout="", stderr="".join(f"line {i}\n" for i in range(30)))
        result = {"correct": True, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(argv, 0, stdout=f"{{}}\n{json.dumps(result)}\n", stderr="")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "checkout", lambda rev, into: rev)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main(["parent", "--workload", "cli", "--seeds", "5", "--pairs", "3"]) == 1
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    doc = json.loads((tmp_path / "BENCH_cli.json").read_text(encoding="utf-8"))
    failed = [run for run in doc["runs"] if "result" not in run]
    assert failed == [{"exit_code": 3, "first": "change", "pair": 1, "seed": 5, "side": "change",
                       "stderr": [f"line {i}" for i in range(10, 30)]}]
    # pair 1 lost its change run, so two pairs are summarized
    assert doc["summary"]["5"]["wall_s"]["pairs"] == 2


@pytest.mark.parametrize(
    "stdout,last",
    [
        ("", ""),
        ('{"correct": true}\n', '{"correct": true}'),
        ("{}\nTraceback: not JSON\n", "Traceback: not JSON"),
        ("{}\n[1, 2]\n", "[1, 2]"),
        ('{}\n{"correct": true}\n', '{"correct": true}'),
    ],
    ids=["empty", "one-line", "not-json", "not-an-object", "no-metrics"],
)
def test_a_run_exiting_zero_without_its_json_lines_is_recorded_as_failed(monkeypatch, tmp_path, stdout, last):
    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    metrics = {m["name"]: {"unit": m["unit"], "value": 1.0} for m in benchmark["end_to_end"]}
    calls = []

    def run(argv, cwd=None, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout="subject\n", stderr="")
        calls.append(Path(cwd).name)
        if len(calls) == 2:  # pair 0, the change side
            return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="warning\n")
        result = {"correct": True, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(argv, 0, stdout=f"{{}}\n{json.dumps(result)}\n", stderr="")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "checkout", lambda rev, into: rev)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main(["parent", "--workload", "cli", "--seeds", "5", "--pairs", "2"]) == 1
    assert calls == ["parent", "change", "change", "parent"]
    doc = json.loads((tmp_path / "BENCH_cli.json").read_text(encoding="utf-8"))
    failed = [run for run in doc["runs"] if "result" not in run]
    assert failed == [{"exit_code": 0, "first": "parent", "pair": 0, "seed": 5, "side": "change",
                       "stderr": ["warning"], "stdout": last}]
    # pair 0 lost its change run, so one pair is summarized
    assert doc["summary"]["5"]["wall_s"]["pairs"] == 1
