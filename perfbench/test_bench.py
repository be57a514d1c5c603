"""Benchmark self-tests.  Unit order must not change any output: two
seeds give identical results.

    python3 -m pytest perfbench/test_bench.py

This matters once certificates or words are cached across units.  It runs
two full passes of every workload (a few minutes) and is not part of the
Tier-1 suite.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_two_seeds_give_identical_outputs(name):
    run.OUT.mkdir(exist_ok=True)
    workload = workloads.load(name, run.OUT)
    first, second = (workload.order(random.Random(seed)) for seed in (1, 2))
    assert first != second
    a, b = workload.run_pass(first), workload.run_pass(second)
    assert a.failures == [] and b.failures == []
    assert a.observed == b.observed


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
