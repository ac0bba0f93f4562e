"""Smoke test for the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests

Runs one small item of each type per workload, checks that every metric
that BENCHMARK.json declares comes out with its unit, and that the span
wrappers reach `from .x import f` sites and are gone after a traced block.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)


@pytest.fixture
def one_item_per_type(monkeypatch):
    """Cut each pass down to the first item of each type."""
    full = workloads.schedule

    def small(workload, seed):
        kinds = {}
        for item in full(workload, seed):
            kinds.setdefault(item[0], item)
        return list(kinds.values())

    monkeypatch.setattr(workloads, "schedule", small)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_run_reports_every_end_to_end_metric(workload,
                                                  one_item_per_type):
    result, setup_s, passes = run.measure(workload, seed=3, seconds=0,
                                          trace=False)
    assert passes == run.MIN_PASSES
    assert not result.wrong
    metrics = result.end_to_end(setup_s)
    assert {k: v["unit"] for k, v in metrics.items()} == \
        _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_reports_every_layer_metric(one_item_per_type):
    result, _, _ = run.measure("quartic_routes", seed=3, seconds=0,
                               trace=True)
    metrics = result.per_layer()
    assert {k: v["unit"] for k, v in metrics.items()} == \
        _declared("per_layer")
    assert metrics["config.m_sequence.calls"]["value"] > 0
    assert metrics["linalg.int_rank.calls"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert tracing.installed_wrappers() == []


def test_wrappers_cover_import_sites_and_are_removed():
    from lelongplane import cli, config, linalg
    from lelongplane.config import PointSet
    from lelongplane.exactpoly import HomPoly, ProjPoint

    original = linalg.int_rank
    recorder = tracing.Recorder()
    with tracing.traced(recorder):
        # config binds int_rank with `from .linalg import ...`
        assert config.int_rank is not original
        assert cli.m_sequence is config.m_sequence
        assert tracing.installed_wrappers()
        points = tuple(ProjPoint(i, i * i, 1) for i in range(6))
        cli.m_sequence(PointSet(points))
        HomPoly.line(1, 2, 3).local_expansion(points[0])
    assert tracing.installed_wrappers() == []
    assert config.int_rank is original and linalg.int_rank is original
    names = [tracing.SPAN_NAMES[s[0]] for s in recorder.spans]
    assert names[0] == "config.m_sequence"
    assert "linalg.int_rank" in names
    assert "exactpoly.HomPoly.local_expansion" in names
    # every int_rank span hangs under the m_sequence span
    assert all(s[1] == 0 for s in recorder.spans
               if tracing.SPAN_NAMES[s[0]] == "linalg.int_rank")
    self_s = tracing.self_times(recorder.spans)
    assert 0 <= self_s[0] <= recorder.spans[0][3] - recorder.spans[0][2]
