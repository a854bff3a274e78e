"""The three benchmark workloads: set-up, one call, output checks, digests.

Each workload is a closed loop over a list of call inputs that set-up
draws from the workload seed; the program sees only those inputs.  The
workloads call the program through module attributes (``search.phase1_run``
and so on) so that the tracer's patches apply to them.
"""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace

import numpy as np

from imcsearch import config, costmodel, designspace, search
from imcsearch.nnsim import data, inference, network

#: Call inputs drawn per seed at reduced size; the loop passes over them.
QUICK_INPUTS = 2


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _row_text(row: dict) -> str:
    return ",".join(f"{k}={v!r}" for k, v in row.items())


def _platform() -> designspace.PlatformParams:
    return designspace.PlatformParams(unit_costs=config.load_unit_costs())


class Phase1VGG16:
    """phase1_run on the VGG16 preset with the pinned paper settings."""

    name = "phase1_vgg16"
    metric, unit, op = "phase1_steps_per_s", "steps/s", "step"
    # The constraint hardly changes the work, and one input gives each run
    # the most passes to take the median of.
    n_inputs = 1
    setup_reps = 5  # per pass; set-up takes milliseconds
    max_setups = 100
    #: Probe points (see laps.py): cost-table entries and steps.
    laps = ("costmodel.layer_cost", "relax.sgd_step")
    sensitivity = 1.2  # to contention, relative to the probe (reference.py)

    def setup(self, seed: int, quick: bool) -> SimpleNamespace:
        platform = _platform()
        if platform.unit_costs.calibration_id != "desk32nm-v1":
            raise ValueError("packaged unit costs are not desk32nm-v1")
        rng = np.random.default_rng(seed)
        n = QUICK_INPUTS if quick else self.n_inputs
        inputs = [search.SearchConfig(area_constraint=float(a),
                                      n1_steps=50 if quick else 2000,
                                      lr1=13.0, lambda1=0.01, phase1_ap=6,
                                      phase1_ip=8, seed=seed)
                  for a in rng.uniform(10.0, 30.0, size=n)]
        return SimpleNamespace(platform=platform,
                               space=designspace.vgg16_space(), inputs=inputs)

    def call(self, fx, cfg):
        return search.phase1_run(fx.space, fx.platform, cfg)

    def ops(self, fx, cfg) -> int:
        return cfg.n1_steps

    def check(self, fx, cfg, out) -> list[str]:
        problems = []
        if len(out.trace) != cfg.n1_steps:
            problems.append(f"trace has {len(out.trace)} rows, expected {cfg.n1_steps}")
        for e in out.pool.entries:
            fresh = costmodel.model_cost(e.model, fx.platform).area
            if fresh != e.report.area:
                problems.append(f"pool entry of step {e.step}: area {e.report.area!r} "
                                f"!= fresh model_cost {fresh!r}")
        return problems

    def digest(self, out) -> str:
        parts = [_row_text(r) for r in out.trace]
        parts += [f"{e.choice_key()}|{e.step}|{e.admitted}|{e.report.area!r}|"
                  f"{e.report.delay!r}" for e in out.pool.entries]
        return _digest(parts)


class HDRankVGG16:
    """rank_candidates over pools of 3 admitted VGG16 candidates.

    Each drawn pool is followed by its mirror, the same draw with every CD
    index flipped between quarter and half width, so a pass over the inputs
    costs close to the same work whatever the seed.
    """

    name = "hd_rank_vgg16"
    metric, unit, op = "hd_candidates_per_s", "candidates/s", "candidate"
    n_inputs = 2  # one drawn pool and its mirror; a pass takes seconds
    setup_reps = 5  # per pass
    max_setups = 100
    pool_size = 3
    #: Probe points: every convolution's im2col, each candidate's kernel.
    laps = ("nnsim.network.im2col", "nnsim.network.build_refnet",
            "nnsim.score.hamming_kernel")
    sensitivity = 0.6

    def setup(self, seed: int, quick: bool) -> SimpleNamespace:
        platform = _platform()
        space = designspace.vgg16_space()
        rng = np.random.default_rng(seed)
        n_layers = space.num_layers
        inputs = []
        for _ in range((QUICK_INPUTS if quick else self.n_inputs) // 2):
            cd = rng.integers(2, size=(self.pool_size, n_layers))  # quarter | half
            cs = rng.integers(len(space.cs_options), size=cd.shape)
            at = rng.integers(len(space.at_options), size=cd.shape)
            init_seed = int(rng.integers(2 ** 31))
            for flip in (cd, 1 - cd):
                inputs.append((self._pool(space, platform, flip, cs, at), init_seed))
        batch = data.make_patterns(8 if quick else 64, channels=space.input_channels,
                                   height=32, width=32,
                                   n_classes=space.class_count,
                                   seed=int(rng.integers(2 ** 31)))
        return SimpleNamespace(space=space, batch=batch, inputs=inputs)

    @staticmethod
    def _pool(space, platform, cd, cs, at) -> search.CandidatePool:
        pool = search.CandidatePool()
        for k in range(cd.shape[0]):
            layers = []
            for l, shape in enumerate(space.layer_shapes):
                cds = space.cd_options_per_layer[l]
                choice = designspace.LayerChoice(
                    cd_out=cds[cd[k, l] if len(cds) > 1 else 0],
                    cs=space.cs_options[cs[k, l]], at=space.at_options[at[k, l]],
                    ap=6, ip=8)
                layers.append((shape, choice))
            model = designspace.CandidateModel(layers=tuple(layers),
                                               input_channels=space.input_channels)
            pool.entries.append(search.PoolEntry(
                model=model, report=costmodel.model_cost(model, platform),
                step=k, admitted=True))
        return pool

    def call(self, fx, inp):
        pool, init_seed = inp
        selected = search.rank_candidates(pool, fx.batch, init_seed,
                                          fx.space.class_count)
        return selected, [(e.choice_key(), e.hd_score) for e in pool.entries]

    def ops(self, fx, inp) -> int:
        return len(inp[0].admitted())

    def check(self, fx, inp, out) -> list[str]:
        selected, scores = out
        problems = []
        if not selected.admitted:
            problems.append(f"selected entry of step {selected.step} is not admitted")
        problems += [f"HD score {s!r} is not finite" for _, s in scores
                     if s is None or not math.isfinite(s)]
        return problems

    def digest(self, out) -> str:
        selected, scores = out
        return _digest([f"{k}|{s!r}" for k, s in scores]
                       + [f"selected|{selected.step}"])


class Phase2Toy:
    """One-step phase2_run calls on a trained 4-layer toy conv net.

    A call probes the 12 (AP, IP) options of one layer through the noisy
    crossbar path with BN re-adaptation.  Calls are one search step long:
    over 10 steps the number of distinct assignments evaluated varied from
    45 to 100 with the search seed, so the work of a call, and with it the
    throughput, depended on the seed more than on the program.
    """

    name = "phase2_toy"
    metric, unit, op = "phase2_probes_per_s", "probes/s", "probe"
    n_inputs = 8  # a call probes one layer; layers differ in cost
    setup_reps = 1  # per pass; set-up trains the net
    max_setups = 5
    steps = 1
    #: Probe points: ADC conversions, cell preparations, forward passes.
    laps = ("nnsim.quantize.adc_quantize", "nnsim.crossbar.prepare_cells",
            "nnsim.inference.bn_adapt", "nnsim.inference.noisy_forward")
    sensitivity = 0.75

    def setup(self, seed: int, quick: bool) -> SimpleNamespace:
        platform = _platform()
        conv = designspace.LayerShape(kernel=3, in_spatial=(8, 8))
        shapes = (conv, conv, conv, designspace.LayerShape.fc())
        space = designspace.DesignSpace(
            layer_shapes=shapes, cd_options_per_layer=((8,), (8,), (8,), (2,)),
            input_channels=1, class_count=2)  # default 2 AP x 6 IP grid
        model = designspace.CandidateModel(
            layers=tuple((s, designspace.LayerChoice(
                cd_out=cds[0], cs=8, at=designspace.ADCType.SAR, ap=6, ip=8))
                for s, cds in zip(shapes, space.cd_options_per_layer)),
            input_channels=1)
        rng = np.random.default_rng(seed)
        s_net, s_train, s_order, s_adapt, s_eval = (int(v) for v in
                                                    rng.integers(2 ** 31, size=5))

        def patterns(n, s):
            return data.make_patterns(n, channels=1, height=8, width=8,
                                      n_classes=2, seed=s)

        net = network.build_refnet(model, space.class_count, seed=s_net)
        net = network.train_tiny(net, patterns(64 if quick else 256, s_train),
                                 epochs=2 if quick else 30, lr=0.05,
                                 batch_size=32, seed=s_order)
        phase2_data = search.Phase2Data(
            adapt_batches=[patterns(8 if quick else 32, s_adapt)],
            eval_batch=patterns(16 if quick else 64, s_eval))
        area = costmodel.model_cost(model, platform).area
        inputs = [search.SearchConfig(area_constraint=area,
                                      n2_steps=self.steps, seed=int(s))
                  for s in rng.integers(2 ** 31,
                                        size=QUICK_INPUTS if quick else self.n_inputs)]
        return SimpleNamespace(platform=platform, space=space, model=model,
                               net=net, data=phase2_data, inputs=inputs,
                               options=designspace.enumerate_options(space, 0, 2))

    def call(self, fx, cfg):
        return search.phase2_run(fx.net, fx.model, fx.space, fx.platform, cfg,
                                 fx.data, inference.AdcRange("calibrated"))

    def ops(self, fx, cfg) -> int:
        return cfg.n2_steps * len(fx.options)

    def check(self, fx, cfg, out) -> list[str]:
        problems = []
        if len(out.assignment) != len(fx.model.layers):
            problems.append(f"assignment has {len(out.assignment)} layers")
        problems += [f"assignment {a} is not in the option grid"
                     for a in out.assignment if tuple(a) not in fx.options]
        if len(out.trace) != cfg.n2_steps:
            problems.append(f"trace has {len(out.trace)} rows, expected {cfg.n2_steps}")
        problems += [f"step {r['step']}: CE {r['mixture_ce']!r} is not finite"
                     for r in out.trace if not math.isfinite(r["mixture_ce"])]
        return problems

    def digest(self, out) -> str:
        return _digest([_row_text(r) for r in out.trace]
                       + [f"assignment|{out.assignment}"])


WORKLOADS = {w.name: w for w in (Phase1VGG16(), HDRankVGG16(), Phase2Toy())}
