import itertools
import math

import numpy as np
import pytest

from imcsearch.costmodel import model_cost
from imcsearch.designspace import CandidateModel, LayerChoice, enumerate_options
from imcsearch.relax import (
    LogitMatrix,
    argmax_select,
    build_cost_tables,
    expected_model_cost,
    phase1_loss,
    phase1_loss_grad,
    sgd_step,
    softmax_probs,
)

from conftest import make_platform, toy_space


# ---------------------------------------------------------------------------
# softmax / argmax
# ---------------------------------------------------------------------------

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
        logits = LogitMatrix(rows)
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
    logits = LogitMatrix([rng.standard_normal(n) for _ in range(2)])
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
        logits = LogitMatrix([2.0 * rng.standard_normal(n) for _ in range(2)])
        e_area, e_delay, _, _ = expected_model_cost(logits, tables)
        assert min(areas) - 1e-9 <= e_area <= max(areas) + 1e-9
        assert min(delays) - 1e-9 <= e_delay <= max(delays) + 1e-9


def _fd_grad(fun, logits: LogitMatrix, h=1e-4):
    grads = []
    for l, row in enumerate(logits.rows):
        g = np.zeros_like(row)
        for i in range(len(row)):
            hi = logits.copy()
            hi.rows[l][i] += h
            lo = logits.copy()
            lo.rows[l][i] -= h
            g[i] = (fun(hi) - fun(lo)) / (2 * h)
        grads.append(g)
    return grads


def test_expected_cost_gradients_match_finite_differences():
    space = toy_space()
    platform = make_platform(xbar_size=16, xbars_per_tile=4)
    tables = build_cost_tables(space, platform, 6, 8)
    n = len(enumerate_options(space, 0, 1))
    rng = np.random.default_rng(23)
    for _ in range(10):
        logits = LogitMatrix([rng.standard_normal(n) for _ in range(2)],
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
        logits = LogitMatrix([rng.standard_normal(n) for _ in range(2)])
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
    logits = LogitMatrix([np.array([1.0, 2.0]), np.array([0.5, -0.5])])
    out = sgd_step(logits, [np.zeros(2), np.zeros(2)], 13.0)
    assert np.array_equal(out.rows[0], logits.rows[0])
    assert np.array_equal(out.rows[1], logits.rows[1])


def test_sgd_arithmetic():
    logits = LogitMatrix([np.array([1.0])])
    out = sgd_step(logits, [np.array([0.5])], 0.1)
    assert out.rows[0][0] == pytest.approx(0.95)


def test_sgd_shape_mismatch_raises():
    logits = LogitMatrix([np.array([1.0, 2.0])])
    with pytest.raises(ValueError):
        sgd_step(logits, [np.zeros(3)], 1.0)
    with pytest.raises(ValueError):
        sgd_step(logits, [np.zeros(2), np.zeros(2)], 1.0)


def test_sgd_nonfinite_gradient_raises():
    logits = LogitMatrix([np.array([1.0, 2.0]), np.array([0.5])])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            sgd_step(logits, [np.array([0.0, bad]), np.zeros(1)], 13.0)
    # the input logits are untouched and the update owns its rows
    out = sgd_step(logits, [np.ones(2), np.ones(1)], 1.0)
    assert np.array_equal(logits.rows[0], [1.0, 2.0])
    assert np.array_equal(out.rows[0], [0.0, 1.0])
    assert not np.shares_memory(out.rows[0], logits.rows[0])
    assert out.temperature == logits.temperature


def test_default_learning_rates_are_paper_settings():
    from imcsearch.search import SearchConfig

    cfg = SearchConfig(area_constraint=1.0)
    assert cfg.lr1 == 13.0
    assert cfg.lr2 == 0.1
    assert cfg.lambda1 == 0.01
    assert cfg.lambda2 == 0.001
    assert cfg.n1_steps == 2000
    assert cfg.n2_steps == 20
