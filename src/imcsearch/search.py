"""Dual-phase co-search orchestration.

Phase 1 relaxes the (CD, CS, AT) grid per layer and minimizes delay under
an area constraint; candidates whose discrete-argmax area lands within 2%
of the constraint join the pool.  The pool is then ranked by a
training-free Hamming-distance score against delay.  Phase 2 freezes the
winner's widths and converters, trains nothing, and searches per-layer
(AP, IP) against noisy-accuracy loss plus a delay penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costmodel import CostReport, layer_cost_arrays, model_cost
from .designspace import (
    CandidateModel,
    DesignSpace,
    LayerChoice,
    PlatformParams,
    enumerate_options,
)
from .nnsim import (
    AdcRange,
    NoiseSpec,
    RefNet,
    TensorBatch,
    WalkState,
    build_refnet,
    cross_entropy,
    probe_layer,
    walk_layers,
)
from .nnsim.score import _score_initialized
from .relax import (
    LogitMatrix,
    _chain_softmax,
    build_cost_tables,
    expected_model_cost,
    phase1_loss_grad,
    sgd_step,
)

#: Relative area margin for pool admission.
ADMISSION_MARGIN = 0.02


class EmptyPoolError(RuntimeError):
    """Phase 1 finished without admitting any candidate."""


@dataclass(frozen=True)
class SearchConfig:
    area_constraint: float  # mm^2
    n1_steps: int = 2000
    n2_steps: int = 20
    lambda1: float = 0.01
    lambda2: float = 0.001
    lr1: float = 13.0
    lr2: float = 0.1
    seed: int = 0
    phase1_ap: int = 6
    phase1_ip: int = 8
    hd_batch_size: int = 64
    adapt_momentum: float = 0.1
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.area_constraint <= 0:
            raise ValueError("area_constraint must be positive")
        if self.n1_steps < 0 or self.n2_steps < 0:
            raise ValueError("step counts must be >= 0")
        for name in ("lr1", "lr2", "temperature", "adapt_momentum"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # zero disables the respective penalty term; negative flips its sign
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be >= 0")
        if not (1 <= self.phase1_ap <= 8 and 1 <= self.phase1_ip <= 8):
            raise ValueError("phase1_ap and phase1_ip must lie in [1, 8]")


def admit(report: CostReport, area_constraint: float) -> bool:
    """True when the report's area is within 2% of the constraint."""
    if area_constraint <= 0:
        raise ValueError("area_constraint must be positive")
    return abs(report.area - area_constraint) / area_constraint <= ADMISSION_MARGIN


@dataclass
class PoolEntry:
    model: CandidateModel
    report: CostReport
    step: int
    admitted: bool
    hd_score: float | None = None

    def choice_key(self) -> tuple:
        return tuple((c.cd_out, c.cs, c.at.value) for _, c in self.model.layers)


@dataclass
class CandidatePool:
    entries: list[PoolEntry] = field(default_factory=list)

    def admitted(self) -> list[PoolEntry]:
        return [e for e in self.entries if e.admitted]

    def record(self, entry: PoolEntry) -> bool:
        """Add a distinct candidate (earliest step wins); True when new."""
        key = entry.choice_key()
        for existing in self.entries:
            if existing.choice_key() == key:
                return False
        self.entries.append(entry)
        return True


def _candidate_from_indices(space: DesignSpace, indices: list[int], ap: int,
                            ip: int) -> CandidateModel:
    layers = []
    for l, idx in enumerate(indices):
        cd, cs, at = enumerate_options(space, l, phase=1)[idx]
        layers.append((space.layer_shapes[l],
                       LayerChoice(cd_out=cd, cs=cs, at=at, ap=ap, ip=ip)))
    return CandidateModel(layers=tuple(layers),
                          input_channels=space.input_channels)


@dataclass
class Phase1Result:
    pool: CandidatePool
    trace: list[dict]
    logits: LogitMatrix
    delay_ref: float
    final_candidate: CandidateModel


def phase1_run(space: DesignSpace, platform: PlatformParams,
               config: SearchConfig) -> Phase1Result:
    """Area-constrained delay minimization over the (CD, CS, AT) grid.

    Each step evaluates the relaxed expected cost, records the current
    discrete argmax candidate (admitting it to the pool when its area is
    within the margin), then applies one SGD update to the logits.  The
    run is deterministic given the config.

    Each distinct argmax is costed once: its option indices fix its
    choices and the constraint is fixed for the run, so a repeat reuses
    the pool entry's report and admission.
    """
    tables = build_cost_tables(space, platform, config.phase1_ap,
                               config.phase1_ip)
    counts = [tables.areas[l].shape[1] for l in range(space.num_layers)]
    logits = LogitMatrix.uniform(counts, config.temperature)
    pool = CandidatePool()
    costed: dict[tuple[int, ...], PoolEntry] = {}  # argmax indices -> entry
    trace: list[dict] = []
    # self-normalization: reference delay is the step-0 expectation
    delay_ref = expected_model_cost(logits, space, platform, tables=tables)[1]
    candidate = _candidate_from_indices(space, logits.argmax(),
                                        config.phase1_ap, config.phase1_ip)
    for step in range(config.n1_steps):
        loss, e_area, e_delay, grads = phase1_loss_grad(
            logits, space, platform, config.area_constraint, config.lambda1,
            delay_ref, tables=tables)
        indices = tuple(logits.argmax())
        entry = costed.get(indices)
        is_new = entry is None
        if is_new:
            model = _candidate_from_indices(space, indices, config.phase1_ap,
                                            config.phase1_ip)
            report = model_cost(model, platform)
            entry = costed[indices] = PoolEntry(
                model=model, report=report, step=step,
                admitted=admit(report, config.area_constraint))
            pool.record(entry)
        candidate = entry.model
        trace.append({
            "step": step,
            "loss": loss,
            "expected_area_mm2": e_area,
            "expected_delay_ns": e_delay,
            "argmax_area_mm2": entry.report.area,
            "argmax_delay_ns": entry.report.delay,
            "admitted": int(entry.admitted),
            "new_candidate": int(is_new),
        })
        logits = sgd_step(logits, grads, config.lr1)
    return Phase1Result(pool=pool, trace=trace, logits=logits,
                        delay_ref=delay_ref, final_candidate=candidate)


def _minmax_normalize(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0 for _ in values]
    return [(v - lo) / (hi - lo) for v in values]


def rank_candidates(pool: CandidatePool, hd_batch: TensorBatch, seed: int,
                    class_count: int) -> PoolEntry:
    """Pick the admitted candidate with high HD score and low delay.

    The two objectives are min-max normalized over the admitted pool and
    combined with equal weight; ties resolve to the earliest entry.  Every
    admitted entry gets its hd_score field filled in.

    The score is ``hd_score(build_refnet(model, class_count, seed),
    hd_batch, seed)``, computed without its clone and second weight draw:
    ``build_refnet`` already draws the weights from ``seed``.  It depends
    only on the layer geometry and widths, not on CS or AT, so entries
    that differ only there share one network and one score.
    """
    admitted = pool.admitted()
    if not admitted:
        raise EmptyPoolError("no admitted candidates to rank")
    scored: dict[tuple, float] = {}  # (shape, cd_out) per layer -> score
    for entry in admitted:
        key = tuple((shape, choice.cd_out) for shape, choice in entry.model.layers)
        if key not in scored:
            net = build_refnet(entry.model, class_count, seed=seed)
            scored[key] = _score_initialized(net, hd_batch)
        entry.hd_score = scored[key]
    hd_n = _minmax_normalize([e.hd_score for e in admitted])
    delay_n = _minmax_normalize([e.report.delay for e in admitted])
    scores = [h - d for h, d in zip(hd_n, delay_n)]
    best = max(range(len(admitted)), key=lambda i: (scores[i], -admitted[i].step))
    return admitted[best]


def phase2_loss(ce: float, expected_delay: float, delay_ref: float,
                lambda2: float) -> float:
    """L2 = cross-entropy plus a normalized delay penalty."""
    if delay_ref <= 0:
        raise ValueError("delay_ref must be positive")
    return ce + lambda2 * expected_delay / delay_ref


@dataclass
class Phase2Data:
    """Fixture data feeding phase 2's noisy-accuracy signal."""

    adapt_batches: list[TensorBatch]
    eval_batch: TensorBatch


@dataclass
class Phase2Result:
    assignment: list[tuple[int, int]]
    trace: list[dict]
    logits: LogitMatrix
    delay_ref: float


def _phase2_delays(model: CandidateModel, space: DesignSpace,
                   platform: PlatformParams, ref_ap: int,
                   ref_ip: int) -> tuple[list[np.ndarray], float]:
    """Per-layer delay vectors over the (ap, ip) grid, and the reference delay.

    One broadcast cost call per layer covers the grid plus the (ref_ap,
    ref_ip) point; the model's delay there is summed layer by layer.
    """
    points = enumerate_options(space, 0, phase=2) + [(ref_ap, ref_ip)]
    delays = []
    delay_ref = 0.0
    for l, (shape, choice) in enumerate(model.layers):
        choices = [LayerChoice(cd_out=choice.cd_out, cs=choice.cs, at=choice.at,
                               ap=ap, ip=ip) for ap, ip in points]
        _, d, _ = layer_cost_arrays(model.cd_in(l), shape, choices, platform)
        delays.append(d[:-1])
        delay_ref += float(d[-1])
    return delays, delay_ref


def phase2_run(trained_net: RefNet, phase1_model: CandidateModel,
               space: DesignSpace, platform: PlatformParams,
               config: SearchConfig, data: Phase2Data,
               adc_range: AdcRange = AdcRange("calibrated")) -> Phase2Result:
    """Per-layer (AP, IP) search on a trained, frozen network.

    Each step picks one layer, evaluates the noisy cross-entropy of all of
    its options (holding the other layers at their argmax, with batchnorm
    re-adapted per option), forms the soft-mixture loss for that layer
    plus the differentiable delay penalty for all layers, and takes one
    SGD step on the option logits.  Weights, CD, CS and AT are never
    modified; batchnorm statistics are adapted in the walk's own state.

    Cross-entropies are memoized per assignment.  A step with misses
    walks the argmax plan up to the probed layer once.  Its misses are
    grouped by input precision: ``probe_layer`` runs the probed layer
    once per IP for all of that IP's ADC precisions, and each miss
    resumes the walk from its own output.  One IP group's walks finish
    before the next group's layer outputs are made, so only one group's
    outputs are held at a time.  Each layer's cells are programmed on
    first use and reused for the rest of the run.
    """
    options = enumerate_options(space, 0, phase=2)
    n_layers = len(phase1_model.layers)
    n_opts = len(options)
    logits = LogitMatrix.uniform([n_opts] * n_layers, config.temperature)
    delays, delay_ref = _phase2_delays(phase1_model, space, platform,
                                       config.phase1_ap, config.phase1_ip)
    noise = NoiseSpec(sigma_over_mu=platform.sigma_over_mu,
                      rng_seed=config.seed)
    rng = np.random.default_rng(config.seed)
    ce_cache: dict[tuple, float] = {}
    cells: dict = {}  # programmed cells per layer key, kept for the run
    start = WalkState.begin(data.adapt_batches, data.eval_batch)

    def walk(state: WalkState, plan: list[tuple[int, int]],
             stop: int | None = None) -> WalkState:
        return walk_layers(trained_net, state, plan, noise, platform, stop,
                           momentum=config.adapt_momentum,
                           adc_range=adc_range, cells=cells)

    trace: list[dict] = []
    for step in range(config.n2_steps):
        probs = logits.probs()
        argmax = logits.argmax()
        layer = int(rng.integers(n_layers))
        base = [options[i] for i in argmax]
        probes = []
        for option in options:
            probe = list(base)
            probe[layer] = option
            probes.append(tuple(probe))
        misses = [i for i, key in enumerate(probes) if key not in ce_cache]
        if misses:
            prefix = walk(start, base, stop=layer)
            for ip in dict.fromkeys(options[i][1] for i in misses):
                group = [i for i in misses if options[i][1] == ip]
                states = probe_layer(trained_net, prefix,
                                     [options[i] for i in group], noise,
                                     platform, adc_range=adc_range, cells=cells)
                for i in group:
                    # popped, so each output is freed once its walk is done
                    ce_cache[probes[i]] = cross_entropy(
                        walk(states.pop(0), probes[i]).eval,
                        data.eval_batch.labels)
        ce_values = np.array([ce_cache[key] for key in probes])
        e_delay = float(sum(p @ d for p, d in zip(probs, delays)))
        mixture_ce = float(probs[layer] @ ce_values)
        loss = phase2_loss(mixture_ce, e_delay, delay_ref, config.lambda2)
        dprobs = [config.lambda2 / delay_ref * d for d in delays]
        dprobs[layer] += ce_values
        grads = _chain_softmax(probs, dprobs, logits.temperature)
        trace.append({
            "step": step,
            "layer": layer,
            "mixture_ce": mixture_ce,
            "expected_delay_ns": e_delay,
            "loss": loss,
        })
        logits = sgd_step(logits, grads, config.lr2)
    assignment = [options[i] for i in logits.argmax()]
    return Phase2Result(assignment=assignment, trace=trace, logits=logits,
                        delay_ref=delay_ref)


def apply_assignment(model: CandidateModel,
                     assignment: list[tuple[int, int]]) -> CandidateModel:
    """Candidate with phase-2 (ap, ip) choices written into each layer."""
    if len(assignment) != len(model.layers):
        raise ValueError("assignment length does not match model")
    layers = []
    for (shape, choice), (ap, ip) in zip(model.layers, assignment):
        layers.append((shape, LayerChoice(cd_out=choice.cd_out, cs=choice.cs,
                                          at=choice.at, ap=ap, ip=ip)))
    return CandidateModel(layers=tuple(layers),
                          input_channels=model.input_channels)
