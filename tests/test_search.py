"""Phase 1 (pinned run, argmax costing), HD ranking and phase 2 (shared-prefix
layer walk, pinned run)."""

import numpy as np
import pytest

from imcsearch import search
from imcsearch.costmodel import model_cost
from imcsearch.designspace import (
    ADCType,
    CandidateModel,
    DesignSpace,
    LayerChoice,
    LayerShape,
    enumerate_options,
    vgg16_space,
)
from imcsearch.nnsim import (
    AdcRange,
    NoiseSpec,
    WalkState,
    bn_adapt,
    build_refnet,
    cross_entropy,
    hd_score,
    make_patterns,
    noisy_forward,
    probe_layer,
    train_tiny,
    walk_layers,
)
from imcsearch.nnsim import inference
from imcsearch.search import Phase2Data, SearchConfig, phase1_run, phase2_run

from conftest import make_platform

# ---------------------------------------------------------------------------
# phase 1
# ---------------------------------------------------------------------------

#: A short VGG16 run with a strong area term: 10 distinct argmax candidates
#: in 14 steps, the last one admitted and seen again at step 13.
PHASE1_CONFIG = SearchConfig(area_constraint=30.0, n1_steps=14, lambda1=30.0)

#: Captured before phase 1 costed each distinct argmax once.  Pool entries
#: are (option index per layer, step, admitted, area, delay).
PHASE1_DELAY_REF = 1765077.8939999999
PHASE1_TRACE = [
    {"step": 0, "loss": 45.287133527730326, "expected_area_mm2": 66.45015783,
     "expected_delay_ns": 1765077.8939999999,
     "argmax_area_mm2": 9.236507999999999, "argmax_delay_ns": 432142.486,
     "admitted": 0, "new_candidate": 1},
    {"step": 1, "loss": 15.061160938976244,
     "expected_area_mm2": 9.61229531705886,
     "expected_delay_ns": 2128467.7728668866, "argmax_area_mm2": 6.1444888,
     "argmax_delay_ns": 1264185.6859999998, "admitted": 0, "new_candidate": 1},
    {"step": 2, "loss": 12.810930939510994,
     "expected_area_mm2": 11.209171191458042,
     "expected_delay_ns": 1837603.8193331282,
     "argmax_area_mm2": 10.480744799999998,
     "argmax_delay_ns": 500150.48600000003, "admitted": 0, "new_candidate": 1},
    {"step": 3, "loss": 9.961390783018123,
     "expected_area_mm2": 13.534455831497135,
     "expected_delay_ns": 1631377.8754248417, "argmax_area_mm2": 15.1893784,
     "argmax_delay_ns": 577505.6860000003, "admitted": 0, "new_candidate": 1},
    {"step": 4, "loss": 6.441761241494378,
     "expected_area_mm2": 17.00582096266462,
     "expected_delay_ns": 1435840.7615325442,
     "argmax_area_mm2": 21.503029599999998,
     "argmax_delay_ns": 653907.2860000001, "admitted": 0, "new_candidate": 1},
    {"step": 5, "loss": 4.153923042092737,
     "expected_area_mm2": 19.834229774573096,
     "expected_delay_ns": 1251723.050372496,
     "argmax_area_mm2": 22.699573599999997, "argmax_delay_ns": 646944.086,
     "admitted": 0, "new_candidate": 1},
    {"step": 6, "loss": 2.6969408140038604,
     "expected_area_mm2": 22.09891134794683,
     "expected_delay_ns": 1087348.1443551197,
     "argmax_area_mm2": 23.896117599999997, "argmax_delay_ns": 639980.886,
     "admitted": 0, "new_candidate": 1},
    {"step": 7, "loss": 2.101049403671169,
     "expected_area_mm2": 23.171453178201553,
     "expected_delay_ns": 965052.2443075546,
     "argmax_area_mm2": 25.391797599999997,
     "argmax_delay_ns": 611692.8859999999, "admitted": 0, "new_candidate": 1},
    {"step": 8, "loss": 1.4245830975640945,
     "expected_area_mm2": 24.685431279707107,
     "expected_delay_ns": 852700.437241947,
     "argmax_area_mm2": 25.391797599999997,
     "argmax_delay_ns": 611692.8859999999, "admitted": 0, "new_candidate": 0},
    {"step": 9, "loss": 1.0124860460977572,
     "expected_area_mm2": 25.869772411068855,
     "expected_delay_ns": 783447.5591408211,
     "argmax_area_mm2": 26.588341599999996, "argmax_delay_ns": 604729.686,
     "admitted": 0, "new_candidate": 1},
    {"step": 10, "loss": 0.8354315009658767,
     "expected_area_mm2": 26.451061038423497,
     "expected_delay_ns": 733565.0357575892,
     "argmax_area_mm2": 26.588341599999996, "argmax_delay_ns": 604729.686,
     "admitted": 0, "new_candidate": 0},
    {"step": 11, "loss": 0.7058033284495804,
     "expected_area_mm2": 26.915966822105812,
     "expected_delay_ns": 686193.989095043,
     "argmax_area_mm2": 26.588341599999996, "argmax_delay_ns": 604729.686,
     "admitted": 0, "new_candidate": 0},
    {"step": 12, "loss": 0.5893618438921112,
     "expected_area_mm2": 27.38470873239132,
     "expected_delay_ns": 637846.6046599671,
     "argmax_area_mm2": 30.177973599999994, "argmax_delay_ns": 354054.486,
     "admitted": 1, "new_candidate": 1},
    {"step": 13, "loss": 0.4923347929896138,
     "expected_area_mm2": 27.829562750042992,
     "expected_delay_ns": 591845.0875953716,
     "argmax_area_mm2": 30.177973599999994, "argmax_delay_ns": 354054.486,
     "admitted": 1, "new_candidate": 0},
]
PHASE1_POOL = [
    ((0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
     0, False, 9.236507999999999, 432142.486),
    ((2, 2, 4, 4, 6, 6, 6, 8, 8, 8, 8, 8, 8, 8),
     1, False, 6.1444888, 1264185.6859999998),
    ((0, 0, 0, 0, 7, 7, 7, 9, 0, 0, 0, 0, 0, 2),
     2, False, 10.480744799999998, 500150.48600000003),
    ((0, 0, 7, 5, 5, 5, 5, 7, 9, 9, 9, 9, 9, 0),
     3, False, 15.1893784, 577505.6860000003),
    ((5, 5, 5, 5, 5, 5, 5, 5, 7, 7, 7, 7, 7, 9),
     4, False, 21.503029599999998, 653907.2860000001),
    ((5, 5, 5, 5, 3, 5, 5, 5, 7, 7, 7, 7, 7, 9),
     5, False, 22.699573599999997, 646944.086),
    ((5, 5, 5, 5, 3, 5, 3, 5, 7, 7, 7, 7, 7, 9),
     6, False, 23.896117599999997, 639980.886),
    ((5, 5, 5, 3, 3, 5, 3, 5, 7, 7, 7, 7, 7, 7),
     7, False, 25.391797599999997, 611692.8859999999),
    ((5, 5, 5, 3, 3, 3, 3, 5, 7, 7, 7, 7, 7, 7),
     9, False, 26.588341599999996, 604729.686),
    ((3, 3, 3, 3, 3, 3, 3, 5, 7, 7, 7, 7, 7, 7),
     12, True, 30.177973599999994, 354054.486),
]


def _option_indices(space, key):
    return tuple(
        [(cd, cs, at.value) for cd, cs, at in enumerate_options(space, l, 1)]
        .index(k) for l, k in enumerate(key))


@pytest.fixture(scope="module")
def vgg16():
    return vgg16_space(), make_platform()


def test_phase1_run_golden(vgg16):
    space, platform = vgg16
    result = phase1_run(space, platform, PHASE1_CONFIG)
    assert result.delay_ref == PHASE1_DELAY_REF
    assert result.trace == PHASE1_TRACE
    pool = [(_option_indices(space, e.choice_key()), e.step, e.admitted,
             e.report.area, e.report.delay) for e in result.pool.entries]
    assert pool == PHASE1_POOL
    assert result.final_candidate == result.pool.entries[-1].model


def test_phase1_costs_each_distinct_argmax_once(vgg16, monkeypatch):
    space, platform = vgg16
    calls = []
    model_cost = search.model_cost

    def counting(*args, **kwargs):
        calls.append(1)
        return model_cost(*args, **kwargs)

    monkeypatch.setattr(search, "model_cost", counting)
    config = SearchConfig(area_constraint=30.0, n1_steps=60, lambda1=30.0)
    result = phase1_run(space, platform, config)
    assert len(calls) == len(result.pool.entries) < config.n1_steps
    assert sum(row["new_candidate"] for row in result.trace) == len(calls)


def test_phase1_without_steps_keeps_the_step0_reference(vgg16):
    space, platform = vgg16
    config = SearchConfig(area_constraint=30.0, n1_steps=0, lambda1=30.0)
    result = phase1_run(space, platform, config)
    assert result.delay_ref == PHASE1_DELAY_REF
    assert result.trace == [] and result.pool.entries == []


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

#: Two 3x3 convs at 8x8, one at 4x4, then the 2-class fc layer.
RANK_SHAPES = (LayerShape(kernel=3, in_spatial=(8, 8)),
               LayerShape(kernel=3, in_spatial=(8, 8)),
               LayerShape(kernel=3, in_spatial=(4, 4)), LayerShape.fc())
#: (widths, cs, admitted) per pool entry; entry 2 is entry 0 with another CS.
RANK_SPECS = [((4, 4, 8, 2), 4, True), ((8, 4, 8, 2), 4, True),
              ((4, 4, 8, 2), 8, True), ((8, 8, 8, 2), 4, False),
              ((4, 8, 8, 2), 8, True)]
RANK_SEED = 11
#: Captured before the ranking drew each candidate's weights once.
RANK_SCORES = [75.18752731142024, 81.54072054047039, 75.18752731142024, None,
               80.76895215277882]
RANK_SELECTED_STEP = 1


def rank_pool(specs) -> search.CandidatePool:
    platform = make_platform()
    pool = search.CandidatePool()
    for step, (widths, cs, admitted) in enumerate(specs):
        model = CandidateModel(
            layers=tuple((shape, LayerChoice(cd_out=cd, cs=cs, at=ADCType.SAR,
                                             ap=6, ip=8))
                         for shape, cd in zip(RANK_SHAPES, widths)),
            input_channels=1)
        pool.entries.append(search.PoolEntry(
            model=model, report=model_cost(model, platform), step=step,
            admitted=admitted))
    return pool


@pytest.fixture(scope="module")
def rank_batch():
    return make_patterns(16, channels=1, height=8, width=8, n_classes=2, seed=5)


def test_rank_candidates_golden(rank_batch):
    pool = rank_pool(RANK_SPECS)
    selected = search.rank_candidates(pool, rank_batch, RANK_SEED, 2)
    assert [e.hd_score for e in pool.entries] == RANK_SCORES
    assert selected.step == RANK_SELECTED_STEP


def test_rank_scores_equal_hd_score_of_the_built_net(rank_batch):
    pool = rank_pool(RANK_SPECS)
    search.rank_candidates(pool, rank_batch, RANK_SEED, 2)
    for entry in pool.admitted():
        net = build_refnet(entry.model, 2, seed=RANK_SEED)
        assert entry.hd_score == hd_score(net, rank_batch, RANK_SEED)


def test_rank_builds_one_net_per_width_vector(rank_batch, monkeypatch):
    built = []

    def counting(model, class_count, seed=0):
        built.append(tuple(c.cd_out for _, c in model.layers))
        return build_refnet(model, class_count, seed=seed)

    monkeypatch.setattr(search, "build_refnet", counting)
    pool = rank_pool(RANK_SPECS)
    search.rank_candidates(pool, rank_batch, RANK_SEED, 2)
    assert sorted(built) == [(4, 4, 8, 2), (4, 8, 8, 2), (8, 4, 8, 2)]
    twin, cs_twin = pool.entries[0], pool.entries[2]
    assert twin.model.layers != cs_twin.model.layers
    assert twin.hd_score == cs_twin.hd_score


def test_rank_tie_resolves_to_the_earliest_step(rank_batch):
    # identical candidates tie on both objectives; listed latest step first
    pool = rank_pool([RANK_SPECS[1]] * 3)
    for entry, step in zip(pool.entries, (7, 3, 5)):
        entry.step = step
    assert search.rank_candidates(pool, rank_batch, RANK_SEED, 2).step == 3


def test_rank_without_admitted_entries_raises(rank_batch):
    for pool in (search.CandidatePool(), rank_pool([RANK_SPECS[3]])):
        with pytest.raises(search.EmptyPoolError):
            search.rank_candidates(pool, rank_batch, RANK_SEED, 2)
    assert pool.entries[0].hd_score is None


# ---------------------------------------------------------------------------
# phase 2
# ---------------------------------------------------------------------------

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


def test_probe_layer_states_resume_to_whole_walks(toy):
    _, _, net, data, platform = toy
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=9)
    start = WalkState.begin(data.adapt_batches, data.eval_batch)
    options = [(5, 3), (5, 8), (6, 3), (6, 8)]
    cells = {}
    for q in range(len(PLAN)):
        prefix = walk_layers(net, start, PLAN, noise, platform, stop=q,
                             momentum=0.3, adc_range=CAL, cells=cells)
        states = probe_layer(net, prefix, options, noise, platform,
                             adc_range=CAL, cells=cells)
        assert len(states) == len(options)
        for option, state in zip(options, states):
            assert state.cut == q and state.past_cut
            plan = list(PLAN)
            plan[q] = option
            whole = walk_layers(net, start, plan, noise, platform,
                                momentum=0.3, adc_range=CAL, cells=cells)
            resumed = walk_layers(net, state, plan, noise, platform,
                                  momentum=0.3, adc_range=CAL, cells=cells)
            assert not resumed.past_cut
            for a, b in zip(resumed.adapt, whole.adapt):
                assert np.array_equal(a, b)
            assert np.array_equal(resumed.eval, whole.eval)
            assert resumed.bn_stats.keys() == whole.bn_stats.keys()
            for i, (mean, var) in whole.bn_stats.items():
                assert np.array_equal(resumed.bn_stats[i][0], mean)
                assert np.array_equal(resumed.bn_stats[i][1], var)
        # a state past its cut neither probes again nor walks back to its cut
        with pytest.raises(ValueError):
            probe_layer(net, states[0], options, noise, platform)
        with pytest.raises(ValueError):
            walk_layers(net, states[0], PLAN, noise, platform, stop=q)


def test_cells_memo_programs_each_layer_once(toy, monkeypatch):
    _, _, net, data, platform = toy
    calls = []
    prepare = inference.prepare_cells

    def counting(*args, **kwargs):
        calls.append(1)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(inference, "prepare_cells", counting)
    start = WalkState.begin(data.adapt_batches, data.eval_batch)
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=9)
    cells = {}
    # the first walk programs the 4 quantizable layers, the second none
    for want in (4, 0):
        calls.clear()
        walk_layers(net, start, PLAN, noise, platform, adc_range=CAL,
                    cells=cells)
        assert len(calls) == want
    assert len(cells) == 4


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


#: Captured from the search before it shared the probed layer across
#: options: steps 1-3 and 5-7 each find one of their 12 probes in the CE
#: cache, step 4 finds all of them.
PARTIAL_CONFIG = SearchConfig(area_constraint=1.0, n2_steps=8, seed=2, lr2=2.0)
PARTIAL_MISSES = [12, 11, 11, 11, 0, 11, 11, 11]
PARTIAL_TRACE = [
    {"step": 0, "layer": 3, "mixture_ce": 0.6623010646283661,
     "expected_delay_ns": 18418.570249999997, "loss": 0.6629525007338283},
    {"step": 1, "layer": 1, "mixture_ce": 0.6519810824653077,
     "expected_delay_ns": 18418.52155597407, "loss": 0.6526325168485382},
    {"step": 2, "layer": 0, "mixture_ce": 0.6359348926492504,
     "expected_delay_ns": 18418.270034523342, "loss": 0.6365863181365594},
    {"step": 3, "layer": 1, "mixture_ce": 0.636284581456917,
     "expected_delay_ns": 18418.16383917403, "loss": 0.636936003188262},
    {"step": 4, "layer": 1, "mixture_ce": 0.6362728221412768,
     "expected_delay_ns": 18417.715042340074, "loss": 0.6369242279993778},
    {"step": 5, "layer": 3, "mixture_ce": 0.6253324624839683,
     "expected_delay_ns": 18417.2692384375, "loss": 0.6259838525746805},
    {"step": 6, "layer": 1, "mixture_ce": 0.6358565665282324,
     "expected_delay_ns": 18417.206862761257, "loss": 0.6365079544128142},
    {"step": 7, "layer": 0, "mixture_ce": 0.6355470649051762,
     "expected_delay_ns": 18416.822037182574, "loss": 0.6361984391790774},
]
PARTIAL_ASSIGNMENT = [(6, 4), (5, 6), (5, 3), (6, 5)]


def _count_per_step(monkeypatch):
    """Per-step counts of CE evaluations, prefix walks and probed-layer
    input quantizations (with their IPs) of a phase-2 run."""
    steps, current = [], {"ce": 0, "prefix": 0, "ips": []}
    probing = [False]

    def wrap(module, name, before):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            before(*args, **kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    def ce(*args):
        current["ce"] += 1

    def walk(net, state, plan, noise, platform, stop=None, **kwargs):
        current["prefix"] += stop is not None

    def quantize(activations, ip):
        if probing[0]:
            current["ips"].append(ip)

    def step(*args):
        steps.append(dict(current, ips=sorted(current["ips"])))
        current.update(ce=0, prefix=0, ips=[])

    original_probe = search.probe_layer

    def probe(*args, **kwargs):
        probing[0] = True
        try:
            return original_probe(*args, **kwargs)
        finally:
            probing[0] = False

    wrap(search, "cross_entropy", ce)
    wrap(search, "walk_layers", walk)
    wrap(inference, "quantize_inputs", quantize)
    wrap(search, "sgd_step", step)
    monkeypatch.setattr(search, "probe_layer", probe)
    return steps


def test_phase2_partial_cache_hits_match_the_captured_run(toy, monkeypatch):
    space, model, net, data, platform = toy
    steps = _count_per_step(monkeypatch)
    result = phase2_run(net, model, space, platform, PARTIAL_CONFIG, data, CAL)
    assert [s["ce"] for s in steps] == PARTIAL_MISSES
    assert result.trace == PARTIAL_TRACE
    assert result.assignment == PARTIAL_ASSIGNMENT


def test_phase2_walks_the_prefix_once_and_quantizes_per_ip(toy, monkeypatch):
    space, model, net, data, platform = toy
    steps = _count_per_step(monkeypatch)
    phase2_run(net, model, space, platform, PARTIAL_CONFIG, data, CAL)
    n_batches = len(data.adapt_batches) + 1
    ips = sorted(list(space.ip_options) * n_batches)
    assert len(steps) == PARTIAL_CONFIG.n2_steps
    for s in steps:
        # every step with misses still misses all six IPs
        assert s["prefix"] == (s["ce"] > 0)
        assert s["ips"] == (ips if s["ce"] else [])
