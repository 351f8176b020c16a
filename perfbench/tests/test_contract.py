"""BENCHMARK.json names exactly what run.py measures."""

import json
import os

from perfbench import run
from perfbench.layers import PER_LAYER

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK) as f:
        bench = json.load(f)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    for metric in bench["end_to_end"]:
        assert metric["unit"] == run.UNITS[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)
    with open(os.path.join(run.HERE, "predictions.json")) as f:
        predictions = json.load(f)
    assert set(predictions["end_to_end"]) >= set(run.UNITS)
    assert set(predictions["workloads"]) == set(run.WORKLOADS)
    per_layer = {name for name, _u, _b in PER_LAYER}
    for row in predictions["predictions"]:
        assert row["per_layer"] in per_layer
        assert set(row["on"]) <= set(run.WORKLOADS)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "stream_hetero"]) == 2
    assert capsys.readouterr().out == ""
