"""The program names the benchmark in ``perfbench/`` reaches still resolve.

``perfbench/selftest.py`` checks the same and more, but takes minutes; a
deleted or renamed function the benchmark patches shows here in seconds.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    laps = importlib.import_module("laps")
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    catalog = importlib.import_module("catalog")
    for name, wl in workloads.WORKLOADS.items():
        clock = laps.LapClock(wl.laps, sampler=None)
        assert clock.boundaries == len(wl.laps), name
    spans = {span for span, *_ in tracer.Tracer._discover()}
    assert set(tracer._HOOKS) - spans == set()
    # a span metric whose span is gone would read 0 in every traced run
    span_metrics = {metric.rsplit(".", 1)[0] for metric in catalog.MOVES
                    if metric.endswith((".s", ".self_s", ".calls"))}
    assert span_metrics and span_metrics - spans == set()
    assert callable(workloads.designspace.DesignSpace.phase2_option_count)
