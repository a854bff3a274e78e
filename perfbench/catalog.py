"""Per-layer metrics: what each one measures and what it should move.

Naming rule for span metrics: ``<span>.s`` is inclusive seconds (children
included), ``<span>.self_s`` is self seconds (children excluded) and
``<span>.calls`` is the call count, each per workload call (one
phase1_run, one rank_candidates or one phase2_run).  The other names are
counters read from call arguments at the span boundaries, ratios of
counts, or the crossbar-kernel split described in ``tracer.Tracer``.
"""

from __future__ import annotations

#: per-layer metric -> (workload, end-to-end metric it should move).
#: Predicted no-change pairs: a costmodel/relax change leaves hd_rank_vgg16
#: and phase2_toy alone; a crossbar-kernel change leaves phase1_vgg16 and
#: hd_rank_vgg16 alone; an im2col change moves both nnsim workloads.
MOVES = {
    "relax.phase1_loss_grad.s": ("phase1_vgg16", "phase1_steps_per_s"),
    "costmodel.model_cost.s": ("phase1_vgg16", "phase1_steps_per_s"),
    "costmodel.model_cost.calls": ("phase1_vgg16", "phase1_steps_per_s"),
    "relax.build_cost_tables.s": ("phase1_vgg16", "phase1_steps_per_s"),
    "costmodel.layer_cost.calls": ("phase1_vgg16", "phase1_steps_per_s"),
    "relax.sgd_step.s": ("phase1_vgg16", "phase1_steps_per_s"),
    "search.CandidatePool.record.s": ("phase1_vgg16", "phase1_steps_per_s"),
    "search.phase1_run.self_s": ("phase1_vgg16", "phase1_steps_per_s"),
    "search.pool.distinct_ratio": ("phase1_vgg16", "phase1_steps_per_s"),
    "nnsim.network.RefNet.forward_with_codes.s": ("hd_rank_vgg16", "hd_candidates_per_s"),
    "nnsim.network.im2col.s": ("hd_rank_vgg16,phase2_toy",
                               "hd_candidates_per_s,phase2_probes_per_s"),
    "nnsim.score.hamming_kernel.s": ("hd_rank_vgg16", "hd_candidates_per_s"),
    "numpy.linalg.slogdet.s": ("hd_rank_vgg16", "hd_candidates_per_s"),
    "nnsim.network.build_refnet.s": ("hd_rank_vgg16", "hd_candidates_per_s"),
    "nnsim.network.RefNet.clone.s": ("hd_rank_vgg16,phase2_toy",
                                     "hd_candidates_per_s,phase2_probes_per_s"),
    "nnsim.network.RefNet.init_weights.s": ("hd_rank_vgg16", "hd_candidates_per_s"),
    "nnsim.score.hd_score.self_s": ("hd_rank_vgg16", "hd_candidates_per_s"),
    "nnsim.score.code_bits": ("hd_rank_vgg16", "hd_candidates_per_s"),
    "nnsim.score.hamming_kernel.gflop": ("hd_rank_vgg16", "hd_candidates_per_s"),
    "nnsim.inference.noisy_forward.s": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.inference.noisy_forward.calls": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.inference.bn_adapt.s": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.inference.bn_adapt.calls": ("phase2_toy", "phase2_probes_per_s"),
    "search.phase2.ce_cache_hit_ratio": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.crossbar.prepare_cells.s": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.crossbar.prepare_cells.calls": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.quantize.adc_quantize.s": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.quantize.adc_quantize.calls": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.quantize.adc_dequantize.s": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.quantize.quantize_inputs.s": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.inference.kernel_self_s": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.inference.adc_conversions": ("phase2_toy", "phase2_probes_per_s"),
    "nnsim.inference.plane_macs": ("phase2_toy", "phase2_probes_per_s"),
    **{f"nnsim.inference.layer{i}.{part}": ("phase2_toy", "phase2_probes_per_s")
       for i in range(4) for part in ("prepare_s", "adc_s", "kernel_self_s")},
    "nnsim.network.train_tiny.s": ("phase2_toy", "setup_s"),
    "trace_overhead_ratio": ("all", "none: traced / untraced time of one pass"),
}

#: Counters kept by the tracer hooks, reported per workload call.
_HOOK_COUNTS = ("nnsim.score.code_bits", "nnsim.inference.adc_conversions",
                "nnsim.inference.plane_macs")


def per_layer_values(names: list[str], tracer, call_runs: list[int],
                     setup_run: int, overhead: float) -> dict[str, float]:
    """Value of every named per-layer metric, per traced workload call."""
    n = len(call_runs)
    spans = tracer.aggregate(call_runs)
    setup_spans = tracer.aggregate([setup_run])
    counts: dict[str, float] = {}
    for (run, key), value in tracer.counts.items():
        if run in call_runs:
            counts[key] = counts.get(key, 0.0) + value
    layers = tracer.layer_split(call_runs)
    empty = {"calls": 0, "ns": 0.0, "self_ns": 0.0}

    def span(name: str, setup: bool = False) -> dict:
        return (setup_spans if setup else spans).get(name, empty)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name in names:
        if name == "trace_overhead_ratio":
            value = overhead
        elif name == "search.pool.distinct_ratio":
            value = ratio(counts.get("search.pool.distinct", 0),
                          counts.get("search.phase1.steps", 0))
        elif name == "search.phase2.ce_cache_hit_ratio":
            probes = counts.get("search.phase2.probes", 0)
            value = ratio(probes - span("nnsim.inference.noisy_forward")["calls"],
                          probes)
        elif name == "nnsim.inference.kernel_self_s":
            value = sum(span(f)["self_ns"] for f in
                        ("nnsim.inference.noisy_forward",
                         "nnsim.inference.bn_adapt")) / 1e9 / n
        elif name == "nnsim.score.hamming_kernel.gflop":
            value = counts.get("nnsim.score.hamming_kernel.flop", 0) / 1e9 / n
        elif name in _HOOK_COUNTS:
            value = counts.get(name, 0) / n
        elif name.startswith("nnsim.inference.layer"):
            layer, part = name[len("nnsim.inference.layer"):].split(".")
            value = layers.get(int(layer), {}).get(part[:-2] + "_ns", 0) / 1e9 / n
        elif name == "nnsim.network.train_tiny.s":
            value = span(name[:-2], setup=True)["ns"] / 1e9
        elif name.endswith(".self_s"):
            value = span(name[:-len(".self_s")])["self_ns"] / 1e9 / n
        elif name.endswith(".calls"):
            value = span(name[:-len(".calls")])["calls"] / n
        elif name.endswith(".s"):
            value = span(name[:-2])["ns"] / 1e9 / n
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
        out[name] = float(value)
    return out
