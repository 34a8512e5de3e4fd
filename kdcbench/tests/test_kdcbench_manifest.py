"""BENCHMARK.json lists exactly the metrics the benchmark prints."""

import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402


def manifest():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_end_to_end_metrics_match_the_printed_ones():
    listed = [(m["name"], m["unit"]) for m in manifest()["end_to_end"]]
    assert listed == list(run.END_TO_END)
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in manifest()["end_to_end"])


def test_per_layer_metrics_match_the_printed_ones():
    listed = [(m["name"], m["unit"], m["better"]) for m in manifest()["per_layer"]]
    assert listed == list(layers.METRICS)


def test_workloads_match():
    assert [w["name"] for w in manifest()["workloads"]] == list(run.WORKLOADS)
