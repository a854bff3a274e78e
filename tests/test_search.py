"""Phase 1 (pinned run, argmax costing), HD ranking and phase 2 (shared-prefix
layer walk, pinned run)."""

import numpy as np
import pytest

from imcsearch import search
from imcsearch.costmodel import model_cost
from imcsearch.designspace import (
    ADCType,
    CandidateModel,
    LayerChoice,
    LayerShape,
    enumerate_options,
    vgg16_space,
)
from imcsearch.nnsim import AdcRange, NoiseSpec, WalkState
from imcsearch.nnsim import inference, network
from imcsearch.nnsim.data import make_patterns
from imcsearch.nnsim.inference import probe_layer, walk_layers
from imcsearch.nnsim.network import cross_entropy, refnet_layers
from imcsearch.nnsim.score import hd_score
from imcsearch.search import SearchConfig, phase1_run, phase2_run

from conftest import make_platform, whole_matrix_score

# ---------------------------------------------------------------------------
# phase 1
# ---------------------------------------------------------------------------

#: A short VGG16 run with a strong area term: 10 distinct argmax candidates
#: in 14 steps, the last one admitted and seen again at step 13.
PHASE1_CONFIG = SearchConfig(area_constraint=30.0, n1_steps=14, lambda1=30.0)

#: Captured before phase 1 costed each distinct argmax once; the trace's
#: expected costs and losses were re-captured when the relaxed state was
#: stacked over layers (they moved by at most 1.2e-15 relative).  Pool
#: entries are (option index per layer, step, admitted, area, delay).
PHASE1_DELAY_REF = 1765077.8939999999
PHASE1_TRACE = [
    {"step": 0, "loss": 45.287133527730326, "expected_area_mm2": 66.45015783,
     "expected_delay_ns": 1765077.8939999999,
     "argmax_area_mm2": 9.236507999999999, "argmax_delay_ns": 432142.486,
     "admitted": 0, "new_candidate": 1},
    {"step": 1, "loss": 15.061160938976244,
     "expected_area_mm2": 9.612295317058859,
     "expected_delay_ns": 2128467.772866886, "argmax_area_mm2": 6.1444888,
     "argmax_delay_ns": 1264185.6859999998, "admitted": 0, "new_candidate": 1},
    {"step": 2, "loss": 12.810930939510994,
     "expected_area_mm2": 11.209171191458042,
     "expected_delay_ns": 1837603.8193331282,
     "argmax_area_mm2": 10.480744799999998,
     "argmax_delay_ns": 500150.48600000003, "admitted": 0, "new_candidate": 1},
    {"step": 3, "loss": 9.96139078301812,
     "expected_area_mm2": 13.534455831497137,
     "expected_delay_ns": 1631377.8754248417, "argmax_area_mm2": 15.1893784,
     "argmax_delay_ns": 577505.6860000003, "admitted": 0, "new_candidate": 1},
    {"step": 4, "loss": 6.441761241494381,
     "expected_area_mm2": 17.005820962664618,
     "expected_delay_ns": 1435840.761532544,
     "argmax_area_mm2": 21.503029599999998,
     "argmax_delay_ns": 653907.2860000001, "admitted": 0, "new_candidate": 1},
    {"step": 5, "loss": 4.153923042092737,
     "expected_area_mm2": 19.834229774573096,
     "expected_delay_ns": 1251723.050372496,
     "argmax_area_mm2": 22.699573599999997, "argmax_delay_ns": 646944.086,
     "admitted": 0, "new_candidate": 1},
    {"step": 6, "loss": 2.6969408140038573,
     "expected_area_mm2": 22.098911347946835,
     "expected_delay_ns": 1087348.14435512,
     "argmax_area_mm2": 23.896117599999997, "argmax_delay_ns": 639980.886,
     "admitted": 0, "new_candidate": 1},
    {"step": 7, "loss": 2.101049403671171,
     "expected_area_mm2": 23.17145317820155,
     "expected_delay_ns": 965052.2443075547,
     "argmax_area_mm2": 25.391797599999997,
     "argmax_delay_ns": 611692.8859999999, "admitted": 0, "new_candidate": 1},
    {"step": 8, "loss": 1.4245830975640932,
     "expected_area_mm2": 24.68543127970711,
     "expected_delay_ns": 852700.4372419467,
     "argmax_area_mm2": 25.391797599999997,
     "argmax_delay_ns": 611692.8859999999, "admitted": 0, "new_candidate": 0},
    {"step": 9, "loss": 1.0124860460977583,
     "expected_area_mm2": 25.86977241106885,
     "expected_delay_ns": 783447.5591408212,
     "argmax_area_mm2": 26.588341599999996, "argmax_delay_ns": 604729.686,
     "admitted": 0, "new_candidate": 1},
    {"step": 10, "loss": 0.8354315009658757,
     "expected_area_mm2": 26.4510610384235,
     "expected_delay_ns": 733565.035757589,
     "argmax_area_mm2": 26.588341599999996, "argmax_delay_ns": 604729.686,
     "admitted": 0, "new_candidate": 0},
    {"step": 11, "loss": 0.705803328449581,
     "expected_area_mm2": 26.91596682210581,
     "expected_delay_ns": 686193.989095043,
     "argmax_area_mm2": 26.588341599999996, "argmax_delay_ns": 604729.686,
     "admitted": 0, "new_candidate": 0},
    {"step": 12, "loss": 0.5893618438921119,
     "expected_area_mm2": 27.384708732391317,
     "expected_delay_ns": 637846.6046599671,
     "argmax_area_mm2": 30.177973599999994, "argmax_delay_ns": 354054.486,
     "admitted": 1, "new_candidate": 1},
    {"step": 13, "loss": 0.4923347929896137,
     "expected_area_mm2": 27.829562750042992,
     "expected_delay_ns": 591845.0875953715,
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


def test_rank_candidates_golden(rank_batch, monkeypatch):
    # the scores predate the blocked code forward: they hold with the batch
    # in one block per stage (the default budget holds 16 samples of the
    # widest 8x8 patch rows, 8 x 3 x 3 values), in blocks of 4 samples at
    # 8x8 for the 8-wide first convs (8 for the 4-wide ones) and in blocks
    # of one sample, with one-column Gram chunks
    widest = 8 * 8 * 8 * 3 * 3
    assert len(rank_batch) * widest <= network.CODE_VALUES
    for budget in (network.CODE_VALUES, 4 * widest, 1):
        monkeypatch.setattr(network, "CODE_VALUES", budget)
        pool = rank_pool(RANK_SPECS)
        selected = search.rank_candidates(pool, rank_batch, RANK_SEED, 2)
        assert [e.hd_score for e in pool.entries] == RANK_SCORES
        assert selected.step == RANK_SELECTED_STEP


def test_rank_candidates_records_its_terms(rank_batch):
    pool = rank_pool(RANK_SPECS)
    selected = search.rank_candidates(pool, rank_batch, RANK_SEED, 2)
    admitted = pool.admitted()
    hd = [e.hd_score for e in admitted]
    delay = [e.report.delay for e in admitted]
    for e in admitted:
        assert e.hd_norm == (e.hd_score - min(hd)) / (max(hd) - min(hd))
        assert e.delay_norm == ((e.report.delay - min(delay))
                                / (max(delay) - min(delay)))
        assert e.rank_score == e.hd_norm - e.delay_norm
    assert selected.rank_score == max(e.rank_score for e in admitted)
    (rejected,) = [e for e in pool.entries if not e.admitted]
    assert (rejected.hd_norm, rejected.delay_norm, rejected.rank_score) == (
        None, None, None)


def test_nearest_miss_is_the_earliest_entry_nearest_the_constraint():
    # entry 0 last again, so two entries tie at the nearest area
    specs = [(widths, cs, False) for widths, cs, _ in RANK_SPECS]
    pool = rank_pool(specs + specs[:1])
    target = pool.entries[0].report.area * 1.5
    assert pool.nearest_miss(target) is min(
        pool.entries, key=lambda e: (abs(e.report.area - target), e.step))
    assert pool.nearest_miss(pool.entries[-1].report.area) is pool.entries[0]
    assert search.CandidatePool().nearest_miss(target) is None
    assert rank_pool(RANK_SPECS).nearest_miss(target) is None


def test_rank_scores_equal_hd_score_of_the_built_net(rank_batch):
    pool = rank_pool(RANK_SPECS)
    search.rank_candidates(pool, rank_batch, RANK_SEED, 2)
    for entry in pool.admitted():
        net = network.build_refnet(entry.model, 2, seed=RANK_SEED,
                                   dtype=np.float32)
        assert entry.hd_score == whole_matrix_score(
            net, rank_batch.data.astype(np.float32))


def test_rank_builds_one_net_per_width_vector(rank_batch, monkeypatch):
    built = []

    def counting(model, class_count):
        built.append(tuple(c.cd_out for _, c in model.layers))
        return refnet_layers(model, class_count)

    monkeypatch.setattr(search, "refnet_layers", counting)
    pool = rank_pool(RANK_SPECS)
    search.rank_candidates(pool, rank_batch, RANK_SEED, 2)
    assert sorted(built) == [(4, 4, 8, 2), (4, 8, 8, 2), (8, 4, 8, 2)]
    twin, cs_twin = pool.entries[0], pool.entries[2]
    assert twin.model.layers != cs_twin.model.layers
    assert twin.hd_score == cs_twin.hd_score


def test_rank_casts_the_hd_batch_once(rank_batch, monkeypatch):
    # every score, and every code forward under it, gets one float32 array
    batches, forwarded = [], []
    collect = network.RefNet.forward_with_codes

    def scoring(net, batch, seed):
        batches.append(batch)
        return hd_score(net, batch, seed)

    def forwarding(net, x, rng, on_codes):
        forwarded.append(x)
        return collect(net, x, rng, on_codes)

    monkeypatch.setattr(search, "hd_score", scoring)
    monkeypatch.setattr(network.RefNet, "forward_with_codes", forwarding)
    search.rank_candidates(rank_pool(RANK_SPECS), rank_batch, RANK_SEED, 2)
    first = batches[0]
    assert len(batches) == len(forwarded) == 3 and first.dtype == np.float32
    assert all(b is first for b in batches + forwarded)
    assert np.array_equal(first, rank_batch.data.astype(np.float32))


def test_rank_candidates_leaves_its_batch_unchanged(rank_batch):
    # the code forward multiplies ReLU outputs in place, never into the
    # batch
    data, labels = rank_batch.data.copy(), rank_batch.labels.copy()
    search.rank_candidates(rank_pool(RANK_SPECS), rank_batch, RANK_SEED, 2)
    assert np.array_equal(rank_batch.data, data)
    assert np.array_equal(rank_batch.labels, labels)


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

# ``toy``, the trained 4-layer network these tests walk, is in conftest.py
CAL = AdcRange("calibrated")
#: One (ap, ip) per quantizable layer, all different, from the phase-2 grid.
PLAN = [(5, 3), (6, 8), (5, 6), (6, 4)]


def test_walk_cut_equivalence(toy):
    _, _, net, data, platform = toy
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=9)
    start = WalkState.begin(data.adapt_batches, data.eval_batch)
    whole = walk_layers(net, start, PLAN, noise, platform, momentum=0.3)
    ce = cross_entropy(whole.eval, data.eval_batch.labels)
    stops = inference._quantizable_index(net) + [len(net.layers)]
    for q in range(len(PLAN) + 1):
        cells = {}
        prefix = walk_layers(net, start, PLAN, noise, platform, stop=q,
                             momentum=0.3, cells=cells)
        assert prefix.at == stops[q]
        split = walk_layers(net, prefix, PLAN, noise, platform, momentum=0.3,
                            cells=cells)
        assert len(split.adapt) == len(whole.adapt) == 2
        for a, b in zip(split.adapt, whole.adapt):
            assert np.array_equal(a, b)
        assert np.array_equal(split.eval, whole.eval)
        assert split.bn_stats.keys() == whole.bn_stats.keys()
        for i, (mean, var) in whole.bn_stats.items():
            assert np.array_equal(split.bn_stats[i][0], mean)
            assert np.array_equal(split.bn_stats[i][1], var)
        assert cross_entropy(split.eval, data.eval_batch.labels) == ce
    for stop in (-1, len(PLAN) + 1):
        with pytest.raises(ValueError):
            walk_layers(net, start, PLAN, noise, platform, stop=stop)


def test_float32_walk_keeps_its_dtype_and_tracks_the_float64_walk(toy):
    _, _, net, data, platform = toy
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=9)
    start = WalkState.begin([b.data.astype(np.float32) for b in data.adapt_batches],
                            data.eval_batch.data.astype(np.float32))
    for q in range(len(PLAN) + 1):
        state = walk_layers(net, start, PLAN, noise, platform, stop=q)
        assert {x.dtype for x in state.adapt + (state.eval,)} == {np.dtype(np.float32)}
    logits = walk_layers(net, WalkState.begin(data.adapt_batches, data.eval_batch),
                         PLAN, noise, platform).eval
    assert logits.dtype == np.float64
    # no ADC code flips on this walk, so only float32 rounding is left
    assert np.abs(state.eval - logits).max() <= 1e-6


def test_phase2_walks_its_activations_in_float32(toy, monkeypatch):
    space, model, net, data, platform = toy
    dtypes = set()

    def spy(module, name):
        original = getattr(module, name)

        def recording(x, *args, **kwargs):
            dtypes.add((name, x.dtype))
            return original(x, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    spy(inference, "quantize_inputs")
    spy(inference, "im2col")
    spy(search, "cross_entropy")
    phase2_run(net, model, space, platform, PARTIAL_CONFIG, data, CAL)
    assert dtypes == {(name, np.dtype(np.float32)) for name in
                      ("quantize_inputs", "im2col", "cross_entropy")}
    # the cast copies; the caller's batches stay float64
    assert {b.data.dtype for b in data.adapt_batches + [data.eval_batch]} \
        == {np.dtype(float)}


@pytest.mark.parametrize("plan", [PLAN, [(6, 8)] * 4, [(5, 3)] * 4],
                         ids=["mixed", "ap6-ip8", "ap5-ip3"])
def test_eval_samples_score_the_same_alone_or_in_any_batch(toy, plan):
    # each layer is calibrated on the adaptation batches only, so a sample's
    # logits do not depend on the evaluation samples it runs with
    _, _, net, data, platform = toy
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=9)
    x = data.eval_batch.data
    cells = {}

    def logits(rows):
        start = WalkState.begin(data.adapt_batches, x[rows])
        return walk_layers(net, start, plan, noise, platform, cells=cells).eval

    whole = logits(slice(None))
    for width in (1, 4):
        parts = [logits(slice(k, k + width)) for k in range(0, len(x), width)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_probe_layer_states_resume_to_whole_walks(toy):
    _, _, net, data, platform = toy
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=9)
    start = WalkState.begin(data.adapt_batches, data.eval_batch)
    ips, aps = (3, 8), (5, 6)
    q_index = inference._quantizable_index(net)
    cells = {}
    for q in range(len(PLAN)):
        prefix = walk_layers(net, start, PLAN, noise, platform, stop=q,
                             momentum=0.3, cells=cells)
        options, states = [], []
        for ip in ips:
            states += probe_layer(net, prefix, ip, aps, noise, platform,
                                  cells=cells)
            options += [(ap, ip) for ap in aps]
        assert len(states) == len(ips) * len(aps)
        for option, state in zip(options, states):
            assert state.at == q_index[q] + 1
            plan = list(PLAN)
            plan[q] = option
            whole = walk_layers(net, start, plan, noise, platform,
                                momentum=0.3, cells=cells)
            resumed = walk_layers(net, state, plan, noise, platform,
                                  momentum=0.3, cells=cells)
            assert resumed.at == len(net.layers)
            for a, b in zip(resumed.adapt, whole.adapt):
                assert np.array_equal(a, b)
            assert np.array_equal(resumed.eval, whole.eval)
            assert resumed.bn_stats.keys() == whole.bn_stats.keys()
            for i, (mean, var) in whole.bn_stats.items():
                assert np.array_equal(resumed.bn_stats[i][0], mean)
                assert np.array_equal(resumed.bn_stats[i][1], var)
        # a state past its cut neither probes again nor walks back to its cut
        with pytest.raises(ValueError):
            probe_layer(net, states[0], ips[0], aps, noise, platform)
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
        walk_layers(net, start, PLAN, noise, platform, cells=cells)
        assert len(calls) == want
    assert len(cells) == 4


#: Four steps that probe layers 2, 1, 0 and 3: the first probes a conv,
#: whose buffers are as large as any layer's.
WORK_CONFIG = SearchConfig(area_constraint=1.0, n2_steps=4, seed=8, lr2=2.0)


def test_phase2_run_reuses_its_work_buffers_across_steps(toy, monkeypatch):
    space, model, net, data, platform = toy
    works, held = [], []  # each walk's work dict; its buffers after each step

    def passing_work(name):
        original = getattr(search, name)

        def recording(*args, work=None, **kwargs):
            works.append(work)
            return original(*args, work=work, **kwargs)

        monkeypatch.setattr(search, name, recording)

    passing_work("walk_layers")
    passing_work("probe_layer")
    step = search.sgd_step

    def stepping(*args, **kwargs):
        # the arrays themselves, so that no id is reused
        held.append(dict(works[-1]))
        return step(*args, **kwargs)

    monkeypatch.setattr(search, "sgd_step", stepping)
    result = phase2_run(net, model, space, platform, WORK_CONFIG, data, CAL)
    assert [row["layer"] for row in result.trace] == [2, 1, 0, 3]
    # one dict for the run, filled during the first step
    assert all(work is works[0] for work in works)
    assert len(held) == 4 and held[0]
    for later in held[1:]:
        assert later.keys() == held[0].keys()
        assert all(later[role] is held[0][role] for role in held[0])


#: Captured with every layer calibrated once per walk, on the adaptation
#: batches, and with float32 cells and analog sums whose ADC codes shift
#: and add exactly, on activations walked in float32; the seed probes
#: layers 1, 2, 3, 3, 0, 0.
GOLDEN_SEED = 1
GOLDEN_TRACE = [
    {"step": 0, "layer": 1, "mixture_ce": 0.6597022180406568,
     "expected_delay_ns": 18418.570249999997, "loss": 0.6603536541461189},
    {"step": 1, "layer": 2, "mixture_ce": 0.653461588645537,
     "expected_delay_ns": 18416.768541396923, "loss": 0.6541129610273757},
    {"step": 2, "layer": 3, "mixture_ce": 0.6459595271051647,
     "expected_delay_ns": 18416.114852381703, "loss": 0.6466108763670424},
    {"step": 3, "layer": 3, "mixture_ce": 0.6459586821159079,
     "expected_delay_ns": 18416.047894080064, "loss": 0.6466100290095749},
    {"step": 4, "layer": 0, "mixture_ce": 0.6448475092606999,
     "expected_delay_ns": 18415.980909267804, "loss": 0.6454988537852185},
    {"step": 5, "layer": 0, "mixture_ce": 0.6448297346912062,
     "expected_delay_ns": 18416.6156191122, "loss": 0.6454811016644222},
]
GOLDEN_ASSIGNMENT = [(6, 4), (5, 3), (5, 3), (6, 3)]


def test_phase2_run_golden(toy):
    space, model, net, data, platform = toy
    config = SearchConfig(area_constraint=1.0, n2_steps=6, seed=GOLDEN_SEED,
                          lr2=2.0)
    result = phase2_run(net, model, space, platform, config, data, CAL)
    assert {row["layer"] for row in result.trace} >= {0, len(PLAN) - 1}
    assert result.trace == GOLDEN_TRACE
    assert result.assignment == GOLDEN_ASSIGNMENT


def test_phase2_run_on_a_loaded_net_equals_its_float64_cast(toy, tmp_path):
    # the phase2 CLI's situation: the loaded conv and dense arrays stay float32
    space, model, net, data, platform = toy
    path = tmp_path / "net.imcn"
    network.save_net(net, path)
    loaded, cast = network.load_net(path), network.load_net(path)
    for layer in cast.layers:
        for name in layer.arrays:
            setattr(layer, name, getattr(layer, name).astype(float))
    assert loaded.layers[0].weight.dtype == np.float32
    config = SearchConfig(area_constraint=1.0, n2_steps=6, seed=GOLDEN_SEED,
                          lr2=2.0)
    got, want = (phase2_run(n, model, space, platform, config, data, CAL)
                 for n in (loaded, cast))
    assert got.trace == want.trace
    assert got.assignment == want.assignment


#: Captured with the calibration and kernel of ``GOLDEN_TRACE``: steps 1-3 and 5-7
#: each find one of their 12 probes in the CE cache, step 4 finds all of
#: them.
PARTIAL_CONFIG = SearchConfig(area_constraint=1.0, n2_steps=8, seed=2, lr2=2.0)
PARTIAL_MISSES = [12, 11, 11, 11, 0, 11, 11, 11]
PARTIAL_TRACE = [
    {"step": 0, "layer": 3, "mixture_ce": 0.661223747834836,
     "expected_delay_ns": 18418.570249999997, "loss": 0.6618751839402981},
    {"step": 1, "layer": 1, "mixture_ce": 0.6573889565688763,
     "expected_delay_ns": 18418.530467330012, "loss": 0.6580403912672875},
    {"step": 2, "layer": 0, "mixture_ce": 0.6423234465627649,
     "expected_delay_ns": 18417.97650545698, "loss": 0.6429748616684086},
    {"step": 3, "layer": 1, "mixture_ce": 0.6329409469516015,
     "expected_delay_ns": 18418.29955291739, "loss": 0.6335923734829301},
    {"step": 4, "layer": 1, "mixture_ce": 0.6329346007523182,
     "expected_delay_ns": 18417.10686354815, "loss": 0.6335859851000838},
    {"step": 5, "layer": 3, "mixture_ce": 0.6220950742495396,
     "expected_delay_ns": 18415.914112321447, "loss": 0.6227464164115544},
    {"step": 6, "layer": 1, "mixture_ce": 0.6339374799888868,
     "expected_delay_ns": 18415.83179088888, "loss": 0.634588819239321},
    {"step": 7, "layer": 0, "mixture_ce": 0.6410470229177871,
     "expected_delay_ns": 18414.56085468294, "loss": 0.6416983172171897},
]
PARTIAL_ASSIGNMENT = [(6, 4), (5, 4), (5, 3), (6, 4)]


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

    def quantize(activations, ip, amax, **buffers):
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
