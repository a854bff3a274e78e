"""Phase-2 search: the shared-prefix layer walk and a pinned search run."""

import numpy as np
import pytest

from imcsearch.designspace import (
    ADCType,
    CandidateModel,
    DesignSpace,
    LayerChoice,
    LayerShape,
)
from imcsearch.nnsim import (
    AdcRange,
    NoiseSpec,
    WalkState,
    bn_adapt,
    build_refnet,
    cross_entropy,
    make_patterns,
    noisy_forward,
    train_tiny,
    walk_layers,
)
from imcsearch.nnsim import inference
from imcsearch.search import Phase2Data, SearchConfig, phase2_run

from conftest import make_platform

CAL = AdcRange("calibrated")
#: One (ap, ip) per quantizable layer, all different, from the phase-2 grid.
PLAN = [(5, 3), (6, 8), (5, 6), (6, 4)]


def patterns(n, seed):
    return make_patterns(n, channels=1, height=4, width=4, n_classes=2,
                         seed=seed)


@pytest.fixture(scope="module")
def toy():
    """Three 3x3 convs at 4x4 of width 4, then fc: 4 quantizable layers.

    16-row crossbars split each 36-row conv into three row chunks.
    """
    conv = LayerShape(kernel=3, in_spatial=(4, 4))
    shapes = (conv, conv, conv, LayerShape.fc())
    space = DesignSpace(layer_shapes=shapes,
                        cd_options_per_layer=((4,), (4,), (4,), (2,)),
                        input_channels=1, class_count=2)
    model = CandidateModel(
        layers=tuple((s, LayerChoice(cd_out=cds[0], cs=8, at=ADCType.SAR,
                                     ap=6, ip=8))
                     for s, cds in zip(shapes, space.cd_options_per_layer)),
        input_channels=1)
    net = train_tiny(build_refnet(model, 2, seed=1), patterns(32, 2),
                     epochs=3, lr=0.05, batch_size=16, seed=3)
    data = Phase2Data(adapt_batches=[patterns(8, 4), patterns(8, 5)],
                      eval_batch=patterns(16, 6))
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    return space, model, net, data, platform


def test_walk_cut_equivalence(toy):
    _, _, net, data, platform = toy
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=9)
    start = WalkState.begin(data.adapt_batches, data.eval_batch)
    whole = walk_layers(net, start, PLAN, noise, platform, momentum=0.3,
                        adc_range=CAL)
    ce = cross_entropy(whole.eval, data.eval_batch.labels)
    for q in range(len(PLAN) + 1):
        cells = {}
        prefix = walk_layers(net, start, PLAN, noise, platform, stop=q,
                             momentum=0.3, adc_range=CAL, cells=cells)
        assert prefix.cut == q
        split = walk_layers(net, prefix, PLAN, noise, platform, momentum=0.3,
                            adc_range=CAL, cells=cells)
        assert len(split.adapt) == len(whole.adapt) == 2
        for a, b in zip(split.adapt, whole.adapt):
            assert np.array_equal(a, b)
        assert np.array_equal(split.eval, whole.eval)
        assert split.bn_stats.keys() == whole.bn_stats.keys()
        for i, (mean, var) in whole.bn_stats.items():
            assert np.array_equal(split.bn_stats[i][0], mean)
            assert np.array_equal(split.bn_stats[i][1], var)
        assert cross_entropy(split.eval, data.eval_batch.labels) == ce
    # the walk is bn_adapt followed by noisy_forward
    adapted = bn_adapt(net, data.adapt_batches, PLAN, noise, platform,
                       momentum=0.3, adc_range=CAL)
    assert np.array_equal(noisy_forward(adapted, data.eval_batch, PLAN, noise,
                                        platform, adc_range=CAL), whole.eval)


def test_unseeded_noise_draws_fresh_cells_per_evaluation(toy, monkeypatch):
    _, _, net, data, platform = toy
    calls = []
    prepare = inference.prepare_cells

    def counting(*args, **kwargs):
        calls.append(1)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(inference, "prepare_cells", counting)
    start = WalkState.begin(data.adapt_batches, data.eval_batch)
    # 4 quantizable layers x (2 adapt batches + 1 eval batch)
    for seed, per_walk in ((None, [12, 12]), (9, [4, 0])):
        noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=seed)
        cells = {}
        for want in per_walk:
            calls.clear()
            walk_layers(net, start, PLAN, noise, platform, adc_range=CAL,
                        cells=cells)
            assert len(calls) == want
        assert len(cells) == (0 if seed is None else 4)


#: Captured from the search before it shared prefixes and cells; the seed
#: probes layers 1, 2, 3, 3, 0, 0.
GOLDEN_SEED = 1
GOLDEN_TRACE = [
    {"step": 0, "layer": 1, "mixture_ce": 0.653571654940677,
     "expected_delay_ns": 18418.570249999997, "loss": 0.6542230910461392},
    {"step": 1, "layer": 2, "mixture_ce": 0.6470627914915095,
     "expected_delay_ns": 18419.002054117922, "loss": 0.6477142428692099},
    {"step": 2, "layer": 3, "mixture_ce": 0.6457853292457912,
     "expected_delay_ns": 18418.66341771328, "loss": 0.6464367686464502},
    {"step": 3, "layer": 3, "mixture_ce": 0.6457846495702244,
     "expected_delay_ns": 18418.576932032236, "loss": 0.6464360859120196},
    {"step": 4, "layer": 0, "mixture_ce": 0.6448809552779432,
     "expected_delay_ns": 18418.490415872544, "loss": 0.6455323885597968},
    {"step": 5, "layer": 0, "mixture_ce": 0.6448745818123356,
     "expected_delay_ns": 18418.21223892409, "loss": 0.6455260052555043},
]
GOLDEN_ASSIGNMENT = [(6, 5), (5, 6), (6, 4), (5, 3)]


def test_phase2_run_golden(toy):
    space, model, net, data, platform = toy
    config = SearchConfig(area_constraint=1.0, n2_steps=6, seed=GOLDEN_SEED,
                          lr2=2.0)
    result = phase2_run(net, model, space, platform, config, data, CAL)
    assert {row["layer"] for row in result.trace} >= {0, len(PLAN) - 1}
    assert result.trace == GOLDEN_TRACE
    assert result.assignment == GOLDEN_ASSIGNMENT
