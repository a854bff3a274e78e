"""The program names the benchmark in ``perfbench/`` reaches still resolve,
and the calls and argument positions it relies on still fit.

``perfbench/selftest.py`` checks the same and more, but takes minutes; a
deleted or renamed function the benchmark patches shows here in seconds.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from conftest import make_platform
from test_search import CAL, PARTIAL_CONFIG

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


#: Parameters the benchmark's tracer hooks read by position: (module,
#: function) -> {position: name}.
HOOKED_PARAMETERS = {
    ("nnsim.quantize", "quantize_inputs"): {0: "activations", 1: "ip"},
    ("nnsim.crossbar", "prepare_cells"): {0: "weight_matrix", 1: "noise",
                                          2: "weight_bits", 3: "slice_bits",
                                          4: "key"},
    ("nnsim.quantize", "adc_quantize"): {0: "column_sum"},
    ("nnsim.score", "hamming_kernel"): {0: "codes"},
    ("search", "phase1_run"): {2: "config"},
    ("search", "phase2_run"): {2: "space", 4: "config"},
}


def test_hooked_parameters_keep_their_names_and_positions():
    for (module, name), wanted in HOOKED_PARAMETERS.items():
        function = getattr(importlib.import_module(f"imcsearch.{module}"), name)
        params = list(inspect.signature(function).parameters)
        assert {pos: params[pos] for pos in wanted} == wanted, name


def test_phase2_run_binds_the_benchmark_call():
    # the phase2_toy workload's call: six positional arguments and the range
    search = importlib.import_module("imcsearch.search")
    inference = importlib.import_module("imcsearch.nnsim.inference")
    inspect.signature(search.phase2_run).bind(
        *range(6), inference.AdcRange("calibrated"))


def test_phase1_run_passes_each_step_boundary_once_per_step(monkeypatch):
    # the lap clock samples the machine at sgd_step returns, and the tracer
    # and catalog time both functions per step
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    relax = importlib.import_module("imcsearch.relax")
    search = importlib.import_module("imcsearch.search")
    designspace = importlib.import_module("imcsearch.designspace")
    calls = dict.fromkeys(("phase1_loss_grad", "sgd_step"), 0)
    for name in calls:
        original = getattr(relax, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        aliases = tracer.module_aliases(original)
        assert (search, name) in aliases, name
        for owner, attr in aliases:
            monkeypatch.setattr(owner, attr, counting)
    config = search.SearchConfig(area_constraint=20.0, n1_steps=7)
    search.phase1_run(designspace.vgg16_space(), make_platform(), config)
    assert calls == {"phase1_loss_grad": 7, "sgd_step": 7}


#: ``adc_quantize`` calls of a ``phase2_run`` at ``PARTIAL_CONFIG`` on the
#: ``toy`` network, counted when the kernel's analog sums were float64.
PARTIAL_ADC_CALLS = 6012
#: (rows, batch) of its column sums: 2 slices x 2 signs of each conv's 4
#: and the fc layer's 2 output columns, over 8 adaptation or 16 evaluation
#: samples times a conv's 16 output positions.
PARTIAL_SUM_SHAPES = {(16, 128), (16, 256), (8, 8), (8, 16)}


def test_phase2_run_converts_at_the_benchmark_probe_points(toy, monkeypatch):
    # the lap clock probes the machine at adc_quantize returns, and the
    # tracer counts nnsim.inference.adc_conversions as its column_sum's size
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    quantize = importlib.import_module("imcsearch.nnsim.quantize")
    search = importlib.import_module("imcsearch.search")
    original = quantize.adc_quantize
    sums = []

    def recording(column_sum, ap, full_range, **buffers):
        sums.append((column_sum.dtype, column_sum.shape))
        return original(column_sum, ap, full_range, **buffers)

    aliases = tracer.module_aliases(original)
    assert aliases
    for owner, attr in aliases:
        monkeypatch.setattr(owner, attr, recording)
    space, model, net, data, platform = toy
    search.phase2_run(net, model, space, platform, PARTIAL_CONFIG, data, CAL)
    assert len(sums) == PARTIAL_ADC_CALLS
    assert {dtype for dtype, _ in sums} == {np.dtype(np.float32)}
    assert {shape for _, shape in sums} == PARTIAL_SUM_SHAPES


@pytest.mark.parametrize("name, counter", [
    ("phase2_toy", "nnsim.inference.plane_macs"),
    ("hd_rank_vgg16", "nnsim.score.code_bits"),
], ids=["phase2_toy", "hd_rank_vgg16"])
def test_traced_call_counts_its_work(monkeypatch, name, counter):
    # one quick-sized workload call under the benchmark's tracer: a hook
    # that no longer fits the call it wraps, or a call that no longer
    # reaches it, fails here in seconds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[name]
    fx = wl.setup(3, quick=True)
    inp = fx.inputs[0]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for run_id in (1, 2):
            tracer.run_id = run_id
            assert wl.check(fx, inp, wl.call(fx, inp)) == []
    finally:
        tracer.uninstall()
    # the tracer reads its spans once recording is over, as a traced run does
    counts = [tracer.run_counts(run_id) for run_id in (1, 2)]
    assert counts[0][counter] > 0
    assert counts[0] == counts[1]
