import hashlib
import itertools
import json
import math

import numpy as np
import pytest

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
from imcsearch.relax import (
    LogitMatrix,
    _chain_softmax,
    build_cost_tables,
    expected_model_cost,
    phase1_loss,
    phase1_loss_grad,
    sgd_step,
)
from imcsearch.search import SearchConfig, phase1_run

from conftest import make_platform, toy_space


# ---------------------------------------------------------------------------
# softmax / argmax
# ---------------------------------------------------------------------------

def softmax_probs(row, temperature=1.0):
    return LogitMatrix.from_rows([row], temperature).probs()[0]


def argmax_select(row):
    return int(LogitMatrix.from_rows([row]).argmax()[0])


def test_softmax_uniform():
    p = softmax_probs(np.zeros(40))
    assert p == pytest.approx(np.full(40, 0.025))
    assert abs(p.sum() - 1.0) < 1e-12


def test_softmax_closed_form():
    p = softmax_probs(np.array([0.0, math.log(3.0)]))
    assert p == pytest.approx([0.25, 0.75])


def test_softmax_high_temperature_is_uniform():
    p = softmax_probs(np.array([5.0, -3.0, 1.0]), temperature=1e9)
    assert p.max() - p.min() < 1e-6


def test_softmax_extreme_logits_stable():
    p = softmax_probs(np.array([1e6, 0.0, -1e6]))
    assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) < 1e-12


def test_argmax_select():
    assert argmax_select(np.array([1.0, 5.0, 2.0])) == 1
    assert argmax_select(np.array([3.0, 3.0, 1.0])) == 0  # tie -> lowest index


def test_argmax_shift_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        row = rng.standard_normal(12)
        idx = argmax_select(row)
        assert argmax_select(row + 7.0) == idx
        assert argmax_select(row * 3.5) == idx


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def _discrete_cost(space, platform, indices, ap=6, ip=8):
    layers = []
    for l, idx in enumerate(indices):
        cd, cs, at = enumerate_options(space, l, phase=1)[idx]
        layers.append((space.layer_shapes[l],
                       LayerChoice(cd_out=cd, cs=cs, at=at, ap=ap, ip=ip)))
    model = CandidateModel(layers=tuple(layers),
                           input_channels=space.input_channels)
    report = model_cost(model, platform)
    return report.area, report.delay


def test_one_hot_probabilities_collapse_to_discrete_cost():
    space = toy_space()
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    tables = build_cost_tables(space, platform, 6, 8)
    n = len(enumerate_options(space, 0, 1))
    for target in (0, 3, n - 1):
        rows = [np.full(n, -60.0) for _ in range(space.num_layers)]
        for r in rows:
            r[target] = 60.0
        logits = LogitMatrix.from_rows(rows)
        e_area, e_delay, _, _ = expected_model_cost(logits, tables)
        area, delay = _discrete_cost(space, platform,
                                     [target] * space.num_layers)
        assert e_area == pytest.approx(area, rel=1e-9)
        assert e_delay == pytest.approx(delay, rel=1e-9)


def test_expectation_matches_brute_force_enumeration():
    space = toy_space()
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    tables = build_cost_tables(space, platform, 6, 8)
    n = len(enumerate_options(space, 0, 1))
    rng = np.random.default_rng(5)
    logits = LogitMatrix.from_rows([rng.standard_normal(n) for _ in range(2)])
    probs = logits.probs()
    want_area = want_delay = 0.0
    for i, j in itertools.product(range(n), range(n)):
        area, delay = _discrete_cost(space, platform, [i, j])
        want_area += probs[0][i] * probs[1][j] * area
        want_delay += probs[0][i] * probs[1][j] * delay
    e_area, e_delay, _, _ = expected_model_cost(logits, tables)
    assert e_area == pytest.approx(want_area, rel=1e-9)
    assert e_delay == pytest.approx(want_delay, rel=1e-9)


def test_expectation_bounded_by_discrete_extremes():
    space = toy_space()
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    tables = build_cost_tables(space, platform, 6, 8)
    n = len(enumerate_options(space, 0, 1))
    costs = [_discrete_cost(space, platform, [i, j])
             for i, j in itertools.product(range(n), range(n))]
    areas = [c[0] for c in costs]
    delays = [c[1] for c in costs]
    rng = np.random.default_rng(11)
    for _ in range(10):
        logits = LogitMatrix.from_rows([2.0 * rng.standard_normal(n)
                                        for _ in range(2)])
        e_area, e_delay, _, _ = expected_model_cost(logits, tables)
        assert min(areas) - 1e-9 <= e_area <= max(areas) + 1e-9
        assert min(delays) - 1e-9 <= e_delay <= max(delays) + 1e-9


def _fd_grad(fun, logits: LogitMatrix, h=1e-4):
    """Central differences w.r.t. every real logit; 0 at the padding."""
    grads = np.zeros_like(logits.values)
    for l, n in enumerate(logits.counts):
        for i in range(n):
            ends = []
            for step in (h, -h):
                values = logits.values.copy()
                values[l, i] += step
                ends.append(fun(LogitMatrix(values, logits.counts,
                                            logits.temperature)))
            grads[l, i] = (ends[0] - ends[1]) / (2 * h)
    return grads


def test_expected_cost_gradients_match_finite_differences():
    space = toy_space()
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    tables = build_cost_tables(space, platform, 6, 8)
    n = len(enumerate_options(space, 0, 1))
    rng = np.random.default_rng(23)
    for _ in range(10):
        logits = LogitMatrix.from_rows(
            [rng.standard_normal(n) for _ in range(2)],
            temperature=float(rng.uniform(0.5, 2.0)))
        _, _, darea, ddelay = expected_model_cost(logits, tables)

        def area_of(lg):
            return expected_model_cost(lg, tables)[0]

        def delay_of(lg):
            return expected_model_cost(lg, tables)[1]

        fd_area = _fd_grad(area_of, logits)
        fd_delay = _fd_grad(delay_of, logits)
        for got, want in zip(darea, fd_area):
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-4
        for got, want in zip(ddelay, fd_delay):
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-4


# ---------------------------------------------------------------------------
# padded layout: layers with different option counts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ragged():
    """8, 12 and 4 options per layer: layer 0's tables have one row and the
    last layer is narrower than the one before, like VGG16's 40 -> 10."""
    conv = LayerShape(kernel=3, in_spatial=(8, 8))
    space = DesignSpace(layer_shapes=(conv, conv, LayerShape.fc()),
                        cd_options_per_layer=((8, 16), (4, 8, 16), (2,)),
                        cs_options=(4, 8),
                        at_options=(ADCType.SAR, ADCType.FLASH),
                        input_channels=1, class_count=2)
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    return space, platform, build_cost_tables(space, platform, 6, 8)


def test_padded_tables_hold_zeros_past_each_layer_s_options(ragged):
    _, _, tables = ragged
    assert tables.counts == (8, 12, 4)
    assert tables.costs.shape == (2, 3, 12, 12)
    assert not tables.costs[:, 0, 1:].any()  # layer 0: one previous option
    assert not tables.costs[:, 0, :, 8:].any()
    assert not tables.costs[:, 2, :, 4:].any()
    assert tables.costs[:, 1, :8, :].all() and not tables.costs[:, 1, 8:].any()


def test_padded_expectation_matches_brute_force_enumeration(ragged):
    space, platform, tables = ragged
    rng = np.random.default_rng(3)
    logits = LogitMatrix.from_rows([rng.standard_normal(n) for n in tables.counts])
    probs = logits.probs()
    assert np.all(probs[0, 8:] == 0.0) and np.all(probs[2, 4:] == 0.0)
    assert probs.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)
    want_area = want_delay = 0.0
    for idx in itertools.product(*(range(n) for n in tables.counts)):
        area, delay = _discrete_cost(space, platform, idx)
        weight = probs[0, idx[0]] * probs[1, idx[1]] * probs[2, idx[2]]
        want_area += weight * area
        want_delay += weight * delay
    e_area, e_delay, _, _ = expected_model_cost(logits, tables)
    assert e_area == pytest.approx(want_area, rel=1e-9)
    assert e_delay == pytest.approx(want_delay, rel=1e-9)


def test_padded_gradients_match_finite_differences_and_vanish_at_padding(ragged):
    _, _, tables = ragged
    rng = np.random.default_rng(29)
    for temperature in (0.7, 1.0, 1.6):
        logits = LogitMatrix.from_rows(
            [rng.standard_normal(n) for n in tables.counts], temperature)
        _, _, darea, ddelay = expected_model_cost(logits, tables)
        for l, n in enumerate(tables.counts):
            assert np.all(darea[l, n:] == 0.0) and np.all(ddelay[l, n:] == 0.0)
        for index, got in ((0, darea), (1, ddelay)):
            want = _fd_grad(lambda lg: expected_model_cost(lg, tables)[index],
                            logits)
            assert np.abs(got - want).max() / np.abs(want).max() < 1e-4
        loss, _, _, grads = phase1_loss_grad(logits, tables, 0.5, 0.01, 1e5)
        want = _fd_grad(lambda lg: phase1_loss_grad(lg, tables, 0.5, 0.01,
                                                    1e5)[0], logits)
        assert np.abs(grads - want).max() / np.abs(want).max() < 1e-4
        assert not grads[0, 8:].any() and not grads[2, 4:].any()


def test_argmax_never_selects_padding(ragged):
    _, _, tables = ragged
    logits = LogitMatrix.from_rows([np.full(n, -1e6) for n in tables.counts])
    assert logits.argmax().tolist() == [0, 0, 0]
    rows = [np.full(n, -1e6) for n in tables.counts]
    rows[0][-1] = rows[2][-1] = -1e6 + 1.0
    assert LogitMatrix.from_rows(rows).argmax().tolist() == [7, 0, 3]
    # an SGD step leaves the padding out of reach
    out = sgd_step(logits, phase1_loss_grad(logits, tables, 0.5, 0.01, 1e5)[3],
                   13.0)
    assert np.all(out.values[0, 8:] == -np.inf)
    assert np.all(out.values[2, 4:] == -np.inf)
    assert out.argmax()[0] < 8 and out.argmax()[2] < 4


# ---------------------------------------------------------------------------
# phase-1 loss
# ---------------------------------------------------------------------------

def test_phase1_loss_zero_mse_at_constraint():
    loss, _, darea = phase1_loss(5.0, 50.0, 50.0, 0.01, 5.0)
    assert loss == pytest.approx(1.0)
    assert darea == 0.0


def test_phase1_loss_formula():
    # delay 2*ref, area 1.1*A_C, lambda1 0.01 -> 2 + 0.01 * 0.01 = 2.0001
    loss, _, _ = phase1_loss(2.0, 1.1, 1.0, 0.01, 1.0)
    assert loss == pytest.approx(2.0001)


def test_phase1_loss_grad_matches_finite_differences():
    space = toy_space()
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    tables = build_cost_tables(space, platform, 6, 8)
    n = len(enumerate_options(space, 0, 1))
    rng = np.random.default_rng(31)
    a_c = 0.5
    delay_ref = 1e5
    for _ in range(5):
        logits = LogitMatrix.from_rows([rng.standard_normal(n)
                                        for _ in range(2)])
        _, _, _, grads = phase1_loss_grad(logits, tables, a_c, 0.01, delay_ref)

        def loss_of(lg):
            return phase1_loss_grad(lg, tables, a_c, 0.01, delay_ref)[0]

        fd = _fd_grad(loss_of, logits)
        for got, want in zip(grads, fd):
            scale = max(1e-8, np.abs(want).max())
            assert np.abs(got - want).max() / scale < 1e-4


# ---------------------------------------------------------------------------
# SGD
# ---------------------------------------------------------------------------

def test_sgd_zero_gradient_keeps_logits():
    logits = LogitMatrix.from_rows([np.array([1.0, 2.0]), np.array([0.5, -0.5])])
    out = sgd_step(logits, np.zeros((2, 2)), 13.0)
    assert np.array_equal(out.values, logits.values)


def test_sgd_arithmetic():
    logits = LogitMatrix.from_rows([np.array([1.0])])
    out = sgd_step(logits, np.array([[0.5]]), 0.1)
    assert out.values[0, 0] == pytest.approx(0.95)


def test_sgd_shape_mismatch_raises():
    logits = LogitMatrix.from_rows([np.array([1.0, 2.0])])
    with pytest.raises(ValueError):
        sgd_step(logits, np.zeros((1, 3)), 1.0)
    with pytest.raises(ValueError):
        sgd_step(logits, np.zeros((2, 2)), 1.0)


def test_sgd_nonfinite_gradient_raises():
    logits = LogitMatrix.from_rows([np.array([1.0, 2.0]), np.array([0.5])])
    for bad in (np.nan, np.inf):
        with pytest.raises(FloatingPointError, match="finite"):
            sgd_step(logits, np.array([[0.0, bad], [0.0, 0.0]]), 13.0)
    # the input logits are untouched and the update owns its stack
    out = sgd_step(logits, np.ones((2, 2)), 1.0)
    assert np.array_equal(logits.values[0], [1.0, 2.0])
    assert np.array_equal(out.values, [[0.0, 1.0], [-0.5, -np.inf]])
    assert not np.shares_memory(out.values, logits.values)
    assert out.temperature == logits.temperature


def test_default_learning_rates_are_paper_settings():
    cfg = SearchConfig(area_constraint=1.0)
    assert cfg.lr1 == 13.0
    assert cfg.lr2 == 0.1
    assert cfg.lambda1 == 0.01
    assert cfg.lambda2 == 0.001
    assert cfg.n1_steps == 2000
    assert cfg.n2_steps == 20


# ---------------------------------------------------------------------------
# inputs stay untouched
# ---------------------------------------------------------------------------

def _ragged_state(tables, temperature=0.5):
    rng = np.random.default_rng(41)
    return LogitMatrix.from_rows([rng.standard_normal(n) for n in tables.counts],
                                 temperature)


def test_step_functions_leave_logits_and_tables_unchanged(ragged):
    _, _, tables = ragged
    logits = _ragged_state(tables)
    values, costs = logits.values.copy(), tables.costs.copy()
    logits.probs()
    expected_model_cost(logits, tables)
    grads = phase1_loss_grad(logits, tables, 1.0, 0.01, 1e4)[3]
    assert np.array_equal(logits.values, values)
    assert np.array_equal(tables.costs, costs)
    kept = grads.copy()
    out = sgd_step(logits, grads, 13.0)
    assert np.array_equal(grads, kept) and np.array_equal(logits.values, values)
    assert not np.shares_memory(out.values, grads)


@pytest.mark.parametrize("shape", [(2,), ()], ids=["area_delay", "phase2"])
def test_chain_softmax_leaves_probs_and_dprobs_unchanged(ragged, shape):
    # phase 1 pulls back an (area, delay) pair, phase 2 one (L, K) gradient
    _, _, tables = ragged
    probs = _ragged_state(tables).probs()
    rng = np.random.default_rng(43)
    dprobs = rng.standard_normal(shape + probs.shape)
    kept_probs, kept_dprobs = probs.copy(), dprobs.copy()
    grads = _chain_softmax(probs, dprobs, 0.5)
    assert grads.shape == dprobs.shape
    assert np.array_equal(probs, kept_probs)
    assert np.array_equal(dprobs, kept_dprobs)
    assert not np.shares_memory(grads, dprobs)


# ---------------------------------------------------------------------------
# exactness: whole phase-1 runs, digested before the step bodies were
# rewritten to work in place
# ---------------------------------------------------------------------------

def _run_digests(result):
    """sha256 of the trace (floats as their repr, so bit for bit) and of
    the final logits' little-endian float64 bytes."""
    trace = json.dumps(result.trace).encode()
    logits = result.logits.values.astype("<f8").tobytes()
    return hashlib.sha256(trace).hexdigest(), hashlib.sha256(logits).hexdigest()


def test_phase1_run_digest_at_paper_settings():
    # VGG16, lambda1 0.01, lr1 13, 2000 steps: the benchmark's run
    config = SearchConfig(area_constraint=20.0)
    result = phase1_run(vgg16_space(), make_platform(), config)
    assert _run_digests(result) == (
        "94b0c27b1a892176d8ef08c96cd2409c29ff65bd69a2df354ac889dad06eb5b7",
        "3e8ead0b35ca7d497d5f0b2c69b9f1223872daf1f458f886d8ef88a5cb58a556")


def test_phase1_run_digest_at_temperature_half(ragged):
    # every softmax and its chain rule divide by a temperature other than 1
    space, platform, _ = ragged
    config = SearchConfig(area_constraint=1.0, n1_steps=300, temperature=0.5)
    result = phase1_run(space, platform, config)
    assert result.pool.admitted()
    assert _run_digests(result) == (
        "71c8e6be402047501510bfd3487f8ba86fb055816c6fdd37f94f79119ad7e672",
        "a4183635c72bde1f36dab87f68c464bc12e6c15204a8c4068d969c2a54c549f4")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lr1", "lr2", "temperature", "lambda1",
                                   "lambda2"])
def test_search_config_refuses_non_finite_rates_and_weights(field, value):
    # NaN compares False with everything, so a bare sign check lets it by
    with pytest.raises(ValueError, match=f"^{field} must"):
        SearchConfig(area_constraint=1.0, **{field: value})


@pytest.mark.parametrize("temperature", [math.nan, math.inf, 0.0, -1.0])
def test_logit_rows_refuse_a_non_positive_or_non_finite_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        LogitMatrix.from_rows([np.zeros(3)], temperature)
