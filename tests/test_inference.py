import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imcsearch.nnsim import NoiseSpec, TensorBatch, WalkState
from imcsearch.nnsim import inference
from imcsearch.nnsim.crossbar import chunk_rows, prepare_cells
from imcsearch.nnsim.data import make_blobs, split_batches
from imcsearch.nnsim.inference import (
    _noisy_matmul,
    _quantizable_index,
    _quantized_layer_outputs,
    bn_adapt,
    noisy_forward,
    probe_layer,
    walk_layers,
)
from imcsearch.nnsim.network import (
    BatchNorm,
    Conv2D,
    Dense,
    RefNet,
    ReLU,
    accuracy,
    train_tiny,
)
from imcsearch.nnsim.quantize import quantize_inputs

from conftest import NO_VARIATION, fc_net, loop_matmul, make_platform


def small_platform(**kw):
    kw.setdefault("xbar_size", 8)
    kw.setdefault("xbars_per_tile", 4)
    return make_platform(**kw)


# ---------------------------------------------------------------------------
# integer-path equivalence
# ---------------------------------------------------------------------------

def quantized_dense(x, layer, ap, ip, platform):
    """Oracle: the noiseless crossbar path of a dense layer, calibrated on
    x itself as a walk without adaptation data is, through the per-slice
    reference kernel."""
    cells = prepare_cells(layer.weight, NO_VARIATION, platform.weight_bits,
                          platform.weight_slice_bits)
    codes, in_scale = quantize_inputs(np.maximum(x, 0.0), ip, x.max())
    # the calibration rule: the largest chunk sum of the cells with every
    # input of a nonzero code on; noiseless cells make every sum exact
    on = (codes > 0).astype(float)
    full_range = max([1.0] + [float((on[:, sl] @ cells.columns[sl]).max())
                              for sl in chunk_rows(len(layer.weight),
                                                   platform.xbar_size)])
    acc = loop_matmul(cells, ap, ip, codes, platform.xbar_size, full_range)
    return acc * cells.scale * in_scale + layer.bias


def test_quantized_path_matches_integer_oracle_bit_for_bit():
    rng = np.random.default_rng(8)
    layer = Dense(6, 4)
    layer.init_weights(rng)
    layer.bias = rng.standard_normal(4)
    x = np.abs(rng.standard_normal((9, 6)))
    platform = small_platform()
    _, (got,) = _quantized_layer_outputs(layer, [], x, 8, (8,), NO_VARIATION,
                                         platform, (0,), {})
    want = quantized_dense(x, layer, ap=8, ip=8, platform=platform)
    assert np.array_equal(got, want)


def test_noisy_forward_ideal_settings_match_layerwise_oracle(trained_mlp):
    data = make_blobs(40, seed=12)
    platform = small_platform()
    got = noisy_forward(trained_mlp, data, [(8, 8), (8, 8)], NO_VARIATION,
                        platform)
    # oracle: walk the network, applying the crossbar oracle per layer
    x = data.data
    for layer in trained_mlp.layers:
        if isinstance(layer, Dense):
            x = quantized_dense(x, layer, ap=8, ip=8, platform=platform)
        else:
            x = layer.forward(x)
    assert np.array_equal(got, x)


def test_noisy_forward_near_ideal_at_max_precision(trained_mlp, blob_data):
    platform = small_platform()
    ideal = trained_mlp.forward(blob_data.data)
    quant = noisy_forward(trained_mlp, blob_data, [(8, 8), (8, 8)],
                          NO_VARIATION, platform)
    # 8-bit everything on a calibrated range: predictions must agree
    assert accuracy(quant, blob_data.labels) \
        == pytest.approx(accuracy(ideal, blob_data.labels), abs=0.02)
    scale = np.abs(ideal).max()
    assert np.abs(quant - ideal).max() <= 0.1 * scale


def test_noisy_forward_zero_weight_net_constant_logits():
    net = fc_net([2, 4, 2], seed=0)
    for layer in net.layers:
        for p in layer.params():
            p[...] = 0.0
    data = make_blobs(10, seed=6)
    out = noisy_forward(net, data, [(6, 6), (6, 6)],
                        NoiseSpec(sigma_over_mu=0.2, rng_seed=5),
                        small_platform())
    assert np.allclose(out, out[0])


def test_noisy_forward_plan_length_checked(trained_mlp, blob_data):
    with pytest.raises(ValueError):
        noisy_forward(trained_mlp, blob_data, [(8, 8)], NO_VARIATION,
                      small_platform())


def test_low_input_precision_does_not_beat_high(trained_mlp, blob_data):
    platform = small_platform()
    accs = {}
    for ip in (1, 8):
        outs = []
        for seed in (0, 1, 2):
            noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=seed)
            logits = noisy_forward(trained_mlp, blob_data, [(6, ip), (6, ip)],
                                   noise, platform)
            outs.append(accuracy(logits, blob_data.labels))
        accs[ip] = float(np.median(outs))
    assert accs[1] <= accs[8]


# ---------------------------------------------------------------------------
# one layer under one IP and several APs
# ---------------------------------------------------------------------------

#: 2 IPs, each run with 2 APs.
IPS, APS = (3, 8), (5, 6)


@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_multi_option_layer_equals_one_option_runs(kind):
    rng = np.random.default_rng(21)
    if kind == "conv":
        layer, shape = Conv2D(2, 3), (2, 4, 4)  # 18 rows: three 8-row chunks
        layer.init_weights(rng)
    else:
        layer, shape = Dense(12, 3), (12,)  # 12 rows: two chunks
        layer.init_weights(rng)
        layer.bias = rng.standard_normal(3)
    adapt_x = np.abs(rng.standard_normal((8,) + shape))
    eval_x = rng.standard_normal((5,) + shape)  # negatives clip at zero
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=4)
    platform = small_platform()
    cells = {}
    for ip in IPS:
        (adapt_outs,), eval_outs = _quantized_layer_outputs(
            layer, [adapt_x], eval_x, ip, APS, noise, platform, (0,), cells)
        for outs in (adapt_outs, eval_outs):
            assert len(outs) == len(APS)
            # the APs of one IP share matmuls but not their ADC pass
            assert not np.array_equal(outs[0], outs[1])
        for k, ap in enumerate(APS):
            ((want_adapt,),), (want_eval,) = _quantized_layer_outputs(
                layer, [adapt_x], eval_x, ip, (ap,), noise, platform, (0,), {})
            assert np.array_equal(adapt_outs[k], want_adapt)
            assert np.array_equal(eval_outs[k], want_eval)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_negative_inputs_take_code_zero(kind, dtype):
    # a layer fed x equals one fed max(x, 0) bit for bit, in x's dtype
    rng = np.random.default_rng(22)
    if kind == "conv":
        layer, shape = Conv2D(2, 3), (2, 4, 4)
    else:
        layer, shape = Dense(12, 3), (12,)
    layer.init_weights(rng)
    adapt_x = rng.standard_normal((8,) + shape).astype(dtype)
    eval_x = rng.standard_normal((5,) + shape).astype(dtype)
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=4)
    platform = small_platform()

    def outputs(adapt, x):
        (adapt_outs,), eval_outs = _quantized_layer_outputs(
            layer, [adapt], x, 4, APS, noise, platform, (0,), {})
        return adapt_outs + eval_outs

    got = outputs(adapt_x, eval_x)
    want = outputs(np.maximum(adapt_x, 0), np.maximum(eval_x, 0))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_activation_is_refused_not_coded(bad):
    # NaN would cast to input code 0 and infinity clip to the top code
    rng = np.random.default_rng(23)
    layer = Dense(12, 3)
    layer.init_weights(rng)
    adapt_x = np.abs(rng.standard_normal((8, 12)))
    eval_x = np.abs(rng.standard_normal((5, 12)))
    noise, platform = NoiseSpec(sigma_over_mu=0.2, rng_seed=4), small_platform()
    for which in ("adapt", "eval"):
        a, e = adapt_x.copy(), eval_x.copy()
        (a if which == "adapt" else e)[2, 5] = bad
        with pytest.raises(FloatingPointError, match="quantizable layer 3: "):
            _quantized_layer_outputs(layer, [a], e, 4, APS, noise, platform,
                                     (3,), {})


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def test_walk_without_adaptation_data_calibrates_on_its_eval_activation():
    # without batchnorm, adaptation data changes only the calibration
    rng = np.random.default_rng(30)
    net = RefNet(layers=[Dense(6, 5), ReLU(), Dense(5, 3)], class_count=3)
    net.init_weights(rng)
    x = np.abs(rng.standard_normal((12, 6)))
    plan, noise, platform = [(5, 4), (6, 3)], NoiseSpec(rng_seed=2), small_platform()

    def eval_logits(adapt):
        return walk_layers(net, WalkState.begin(adapt, x), plan, noise,
                           platform).eval

    alone = eval_logits([])
    assert np.array_equal(alone, eval_logits([x]))
    assert not np.array_equal(alone, eval_logits([0.5 * x]))


def test_sums_above_the_calibrated_full_range_clip_to_the_top_adc_code(monkeypatch):
    # unit weights program slices (15, 7) into the positive cells; 16 rows
    # make two 8-row chunks
    layer = Dense(16, 2)
    layer.weight = np.ones((16, 2))
    adapt = np.zeros((1, 16))
    adapt[0, 0] = 2.0  # one input on: the full range is one cell, 15
    x_eval = np.array([np.full(16, 2.0), np.full(16, 6.0)])  # at and above the max
    ip, ap = 8, 5
    ranges = []
    adc_quantize = inference.adc_quantize

    def recording(column_sum, ap, full_range, **buffers):
        ranges.append(full_range)
        return adc_quantize(column_sum, ap, full_range, **buffers)

    monkeypatch.setattr(inference, "adc_quantize", recording)
    _, (out,) = _quantized_layer_outputs(
        layer, [adapt], x_eval, ip, (ap,), NoiseSpec(sigma_over_mu=0.0),
        small_platform(), (0,), {})
    assert set(ranges) == {15.0}
    # every eval code is 255 and every positive chunk sum (8 * 15 or 8 * 7)
    # converts to the top code 2^ap - 1, whose level is (2^ap - 1) * 15 / 2^ap
    top = (2 ** ap - 1) * 15.0 / 2 ** ap
    acc = 2 * top * (2 ** ip - 1) * (1 + 16)  # chunks, bit planes, slices
    want = acc * (1.0 / 127) * (2.0 / (2 ** ip - 1))  # weight and input scales
    assert np.array_equal(out[0], out[1])
    assert out[0] == pytest.approx(np.full(2, want), rel=1e-12)


# ---------------------------------------------------------------------------
# blocks of patch columns
# ---------------------------------------------------------------------------

def blocked_layer(kind, rng):
    """A layer of 3 * PATCH_BLOCK + 1 patch columns, so the last block takes
    a 1-column remainder, and its noiseless uint8 input codes in the layout
    the kernel gets them in.  Both have more rows than two 8-row chunks."""
    n = 3 * inference.PATCH_BLOCK + 1
    if kind == "conv":
        # 1 x 1 inputs give one patch per sample; the padding zeros of the
        # 3 x 3 window are input code 0
        layer, x = Conv2D(3, 4), np.abs(rng.standard_normal((n, 3, 1, 1)))
        rows = 27
    else:
        layer, x = Dense(20, 4), np.abs(rng.standard_normal((n, 20)))
        rows = 20
    layer.init_weights(rng)
    if kind == "dense":
        layer.bias = rng.standard_normal(4)
    codes = rng.integers(0, 2 ** 6, size=(rows, n), dtype=np.uint8)
    return layer, x, (codes.T if kind == "conv" else codes.T.copy())


@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_patch_blocks_give_the_one_block_result_bit_for_bit(monkeypatch, kind):
    # noiseless cells make every float32 sum an exact integer, so neither
    # the blocks nor the BLAS kernel can change a bit; a full range that is
    # not a power of two still makes the ADC round
    layer, x, codes = blocked_layer(kind, np.random.default_rng(40))
    n = len(x)
    w = layer.weight_matrix() if kind == "conv" else layer.weight
    cells = prepare_cells(w, NO_VARIATION, 8, 4)
    platform = small_platform()
    assert [b.stop - b.start for b in inference._column_blocks(n)] \
        == [inference.PATCH_BLOCK] * 2 + [inference.PATCH_BLOCK + 1]
    ranges = []
    adc_quantize = inference.adc_quantize

    def recording(column_sum, ap, full_range, **buffers):
        ranges.append(full_range)
        return adc_quantize(column_sum, ap, full_range, **buffers)

    def run():
        kernel = _noisy_matmul(cells, (4, 8), 6, codes, 8, 37.3)
        ranges.clear()
        (adapt,), eval_ = _quantized_layer_outputs(
            layer, [x], x[:5], 6, (4, 8), NO_VARIATION, platform, (0,), {})
        return kernel, adapt + eval_, set(ranges)

    monkeypatch.setattr(inference, "adc_quantize", recording)
    blocked = run()
    monkeypatch.setattr(inference, "PATCH_BLOCK", n)
    assert inference._column_blocks(n) == [slice(0, n)]
    whole = run()
    assert len(blocked[2]) == 1 and blocked[2] == whole[2]
    for got, want in zip(blocked[0] + blocked[1], whole[0] + whole[1], strict=True):
        assert got.dtype == want.dtype and got.strides == want.strides
        assert np.array_equal(got, want)


def test_patch_blocks_are_exact_under_a_second_blas_kernel():
    # another sgemm kernel may sum a column in another order, and so give
    # sums that depend on the column count; the noiseless sums above are
    # exact integers, so the blocks must agree under it too
    test = Path(__file__).resolve()
    node = f"{test}::test_patch_blocks_give_the_one_block_result_bit_for_bit"
    src = str(Path(inference.__file__).resolve().parents[2])
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import sys, pytest\n"
              "from imcsearch.cli import _openblas_core\n"
              "if _openblas_core() != 'Haswell':\n"
              "    sys.exit(99)\n"
              f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {node!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=test.parents[1])
    if proc.returncode == 99:
        pytest.skip("this OpenBLAS cannot select its Haswell kernel")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 passed" in proc.stdout


def test_kernel_and_calibration_buffers_do_not_grow_with_the_batch(monkeypatch):
    # 8 x 8 inputs give 64 patches a sample: 2 and 8 blocks of patch columns.
    # Float64 activations make every float32 request of the patch buffer the
    # kernel's bit plane or the calibration's on-matrix, which share it.
    block = inference.PATCH_BLOCK
    rng = np.random.default_rng(41)
    layer = Conv2D(2, 3)  # 18 rows, 2 slices x 2 signs x 3 = 12 cell columns
    layer.init_weights(rng)
    requests = []
    scratch = inference._scratch

    def recording(work, role, shape, dtype, transposed=False):
        requests.append((role, np.dtype(dtype), math.prod(shape)))
        return scratch(work, role, shape, dtype, transposed)

    monkeypatch.setattr(inference, "_scratch", recording)
    noise, platform = NoiseSpec(sigma_over_mu=0.2, rng_seed=4), small_platform()
    work, sizes, planes = {}, [], []
    for blocks in (2, 8):
        x = np.abs(rng.standard_normal((blocks * block // 64, 2, 8, 8)))
        requests.clear()
        _quantized_layer_outputs(layer, [x], x, 6, (4, 8), noise, platform,
                                 (0,), {}, work)
        sizes.append({role: buf.nbytes for role, buf in work.items()})
        planes.append({values for role, dtype, values in requests
                       if role == "patches" and dtype == np.float32})
    # one block of each role: the calibration's products take the sums' buffer
    want = {"bits": 18 * block, "sums": 12 * block * 4,
            "adc_levels": 12 * block * 4, "adc_codes": 12 * block * 4,
            "accs": 2 * 12 * block * 4}
    for size in sizes:
        assert {role: size[role] for role in want} == want
    assert planes == [{18 * block}] * 2
    grown = {role for role in sizes[1] if sizes[1][role] != sizes[0][role]}
    assert grown == {"padded", "patches", ("codes", 0), ("codes", 1)}


# ---------------------------------------------------------------------------
# batchnorm adaptation
# ---------------------------------------------------------------------------

def test_bn_adapt_momentum_one_single_batch_exact():
    rng = np.random.default_rng(3)
    net = RefNet(layers=[Dense(3, 5), BatchNorm(5)], class_count=5)
    net.init_weights(rng)
    batch = TensorBatch(np.abs(rng.standard_normal((16, 3))))
    platform = small_platform()
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=11)
    adapted = bn_adapt(net, [batch], [(6, 6)], noise, platform, momentum=1.0)
    ((pre_bn,),), _ = _quantized_layer_outputs(net.layers[0], [batch.data],
                                               None, 6, (6,), noise, platform,
                                               (0,), {})
    bn = adapted.layers[1]
    assert bn.running_mean == pytest.approx(pre_bn.mean(axis=0))
    assert bn.running_var == pytest.approx(pre_bn.var(axis=0))


def test_bn_adapt_does_not_touch_weights(trained_mlp, blob_data):
    platform = small_platform()
    batches = split_batches(blob_data, 32)[:2]

    def weights(net):
        return [p for i in _quantizable_index(net) for p in net.layers[i].params()]

    before = [p.copy() for p in weights(trained_mlp)]
    adapted = bn_adapt(trained_mlp, batches, [(5, 4), (5, 4)],
                       NoiseSpec(sigma_over_mu=0.2, rng_seed=1), platform)
    after_orig = weights(trained_mlp)
    after_copy = weights(adapted)
    for b, a in zip(before, after_orig):
        assert np.array_equal(b, a)  # input net untouched
    for b, a in zip(before, after_copy):
        assert np.array_equal(b, a)  # adaptation never trains weights


def test_bn_adapt_noise_off_matches_clean_stats(trained_mlp, blob_data):
    platform = small_platform()
    plan = [(8, 8), (8, 8)]
    batches = split_batches(blob_data, len(blob_data))
    adapted = bn_adapt(trained_mlp, batches * 30, plan, NO_VARIATION,
                       platform, momentum=0.5)
    # reference: batch statistics of the same walk's pre-batchnorm
    # activation, the output of the quantizable layer before each batchnorm;
    # 30 blends at momentum 0.5 leave 2^-30 of the trained statistics
    q_index = _quantizable_index(trained_mlp)
    begin = WalkState.begin(adapt_batches=batches)
    checked = 0
    for i, layer in enumerate(adapted.layers):
        if not isinstance(layer, BatchNorm):
            continue
        q = q_index.index(i - 1)
        state = walk_layers(trained_mlp, begin, plan, NO_VARIATION, platform,
                            stop=q)
        [pre_bn] = probe_layer(trained_mlp, state, plan[q][1], (plan[q][0],),
                               NO_VARIATION, platform)
        mean, var = layer.batch_stats(pre_bn.adapt[0])
        assert layer.running_mean == pytest.approx(mean, rel=1e-6, abs=1e-6)
        assert layer.running_var == pytest.approx(var, rel=1e-6, abs=1e-6)
        checked += 1
    assert checked


def test_bn_adapt_recovers_noisy_accuracy(trained_mlp, blob_data):
    platform = small_platform()
    # coarse enough that the un-adapted noisy accuracy is below 1.0 on
    # every seed, so there is something to recover
    plan = [(2, 3), (2, 3)]
    batches = split_batches(blob_data, 32)
    deltas = []
    for seed in (0, 1, 2):
        noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=seed)
        raw = accuracy(noisy_forward(trained_mlp, blob_data, plan, noise,
                                     platform), blob_data.labels)
        adapted = bn_adapt(trained_mlp, batches, plan, noise, platform,
                           momentum=0.1)
        fixed = accuracy(noisy_forward(adapted, blob_data, plan, noise,
                                       platform), blob_data.labels)
        deltas.append(fixed - raw)
    assert float(np.median(deltas)) >= 0.0
