import numpy as np
import pytest

from imcsearch.nnsim import (
    AdcRange,
    IDEAL_NOISE,
    NoiseSpec,
    TensorBatch,
    accuracy,
    bn_adapt,
    make_blobs,
    make_mlp,
    noisy_forward,
    split_batches,
    train_tiny,
)
from imcsearch.nnsim.inference import (
    _quantized_layer_output,
    _quantized_layer_outputs,
)
from imcsearch.nnsim.network import BatchNorm, Conv2D, Dense, RefNet
from imcsearch.nnsim.quantize import quantize_inputs, quantize_slice_weights

from conftest import make_platform

CAL = AdcRange("calibrated")


def small_platform(**kw):
    kw.setdefault("xbar_size", 8)
    kw.setdefault("xbars_per_tile", 4)
    return make_platform(**kw)


# ---------------------------------------------------------------------------
# integer-path equivalence
# ---------------------------------------------------------------------------

def ideal_quantized_dense(x, layer, ip, weight_bits=8, slice_bits=4):
    """Oracle: exact integer matmul of quantized codes, no hardware steps."""
    sliced = quantize_slice_weights(layer.weight, weight_bits, slice_bits)
    codes, in_scale = quantize_inputs(np.maximum(x, 0.0), ip)
    q = sliced.recompose_codes()
    return (codes.astype(float) @ q.astype(float)) * sliced.scale * in_scale \
        + layer.bias


def test_quantized_path_matches_integer_oracle_bit_for_bit():
    rng = np.random.default_rng(8)
    layer = Dense(6, 4)
    layer.init_weights(rng)
    layer.bias = rng.standard_normal(4)
    x = np.abs(rng.standard_normal((9, 6)))
    platform = small_platform()
    got = _quantized_layer_output(layer, x, ap=8, ip=8, noise=IDEAL_NOISE,
                                  platform=platform, adc_range=CAL, key=(0,))
    want = ideal_quantized_dense(x, layer, ip=8)
    assert np.array_equal(got, want)


def test_noisy_forward_ideal_settings_match_layerwise_oracle(trained_mlp):
    data = make_blobs(40, seed=12)
    platform = small_platform()
    got = noisy_forward(trained_mlp, data, [(8, 8), (8, 8)], IDEAL_NOISE,
                        platform, adc_range=CAL)
    # oracle: walk the network, applying the integer-exact path per layer
    x = data.data
    q_iter = iter(trained_mlp.quantizable())
    for layer in trained_mlp.layers:
        if isinstance(layer, Dense):
            x = ideal_quantized_dense(x, layer, ip=8)
            next(q_iter)
        else:
            x = layer.forward(x)
    assert np.array_equal(got, x)


def test_noisy_forward_near_ideal_at_max_precision(trained_mlp, blob_data):
    platform = small_platform()
    ideal = trained_mlp.forward(blob_data.data)
    quant = noisy_forward(trained_mlp, blob_data, [(8, 8), (8, 8)],
                          NoiseSpec(sigma_over_mu=0.0, rng_seed=0,
                                    variation=False, quantization=True),
                          platform, adc_range=CAL)
    # 8-bit everything on a calibrated range: predictions must agree
    assert accuracy(quant, blob_data.labels) \
        == pytest.approx(accuracy(ideal, blob_data.labels), abs=0.02)
    scale = np.abs(ideal).max()
    assert np.abs(quant - ideal).max() <= 0.1 * scale


def test_noisy_forward_zero_weight_net_constant_logits():
    net = make_mlp([2, 4, 2], seed=0)
    for layer in net.layers:
        for p in layer.params():
            p[...] = 0.0
    data = make_blobs(10, seed=6)
    out = noisy_forward(net, data, [(6, 6), (6, 6)],
                        NoiseSpec(sigma_over_mu=0.2, rng_seed=5),
                        small_platform(), adc_range=AdcRange("worst_case"))
    assert np.allclose(out, out[0])


def test_noisy_forward_plan_length_checked(trained_mlp, blob_data):
    with pytest.raises(ValueError):
        noisy_forward(trained_mlp, blob_data, [(8, 8)], IDEAL_NOISE,
                      small_platform())


def test_low_input_precision_does_not_beat_high(trained_mlp, blob_data):
    platform = small_platform()
    accs = {}
    for ip in (1, 8):
        outs = []
        for seed in (0, 1, 2):
            noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=seed)
            logits = noisy_forward(trained_mlp, blob_data, [(6, ip), (6, ip)],
                                   noise, platform, adc_range=CAL)
            outs.append(accuracy(logits, blob_data.labels))
        accs[ip] = float(np.median(outs))
    assert accs[1] <= accs[8]


# ---------------------------------------------------------------------------
# one layer under several (ap, ip) options
# ---------------------------------------------------------------------------

#: 2 APs x 2 IPs in the AP-major order of the phase-2 grid.
OPTIONS = [(5, 3), (5, 8), (6, 3), (6, 8)]


@pytest.mark.parametrize("mode", ["worst_case", "calibrated"])
@pytest.mark.parametrize("kind", ["conv", "dense"])
def test_multi_option_layer_equals_one_option_runs(kind, mode):
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
    adc_range = AdcRange(mode)
    cells = {}
    for x in (adapt_x, eval_x):
        outs = _quantized_layer_outputs(layer, x, OPTIONS, noise, platform,
                                        adc_range, key=(0,), cells=cells)
        assert len(outs) == len(OPTIONS)
        for (ap, ip), out in zip(OPTIONS, outs):
            want = _quantized_layer_output(layer, x, ap=ap, ip=ip, noise=noise,
                                           platform=platform,
                                           adc_range=adc_range, key=(0,))
            assert np.array_equal(out, want)
        # the APs of one IP share matmuls but not their ADC pass
        assert not np.array_equal(outs[0], outs[2])


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
    adapted = bn_adapt(net, [batch], [(6, 6)], noise, platform, momentum=1.0,
                       adc_range=CAL)
    pre_bn = _quantized_layer_output(net.layers[0], batch.data, ap=6, ip=6,
                                     noise=noise, platform=platform,
                                     adc_range=CAL, key=(0,))
    bn = adapted.layers[1]
    assert bn.running_mean == pytest.approx(pre_bn.mean(axis=0))
    assert bn.running_var == pytest.approx(pre_bn.var(axis=0))


def test_bn_adapt_does_not_touch_weights(trained_mlp, blob_data):
    platform = small_platform()
    batches = split_batches(blob_data, 32)[:2]
    before = [p.copy() for l in trained_mlp.quantizable() for p in l.params()]
    adapted = bn_adapt(trained_mlp, batches, [(5, 4), (5, 4)],
                       NoiseSpec(sigma_over_mu=0.2, rng_seed=1), platform)
    after_orig = [p for l in trained_mlp.quantizable() for p in l.params()]
    after_copy = [p for l in adapted.quantizable() for p in l.params()]
    for b, a in zip(before, after_orig):
        assert np.array_equal(b, a)  # input net untouched
    for b, a in zip(before, after_copy):
        assert np.array_equal(b, a)  # adaptation never trains weights


def test_bn_adapt_noise_off_matches_clean_stats(trained_mlp, blob_data):
    platform = small_platform()
    batches = split_batches(blob_data, len(blob_data))
    adapted = bn_adapt(trained_mlp, batches * 30, [(8, 8), (8, 8)],
                       IDEAL_NOISE, platform, momentum=0.5, adc_range=CAL)
    # clean reference: batch statistics of the ideal float forward
    x = blob_data.data
    clean_stats = []
    for layer in trained_mlp.layers:
        if isinstance(layer, BatchNorm):
            clean_stats.append(layer.batch_stats(x))
            x = layer.normalize(x, *clean_stats[-1])
        else:
            x = layer.forward(x)
    for bn, (mean, var) in zip(adapted.batchnorms(), clean_stats):
        assert bn.running_mean == pytest.approx(mean, rel=0.05, abs=0.05)
        assert bn.running_var == pytest.approx(var, rel=0.05, abs=0.05)


def test_bn_adapt_recovers_noisy_accuracy(trained_mlp, blob_data):
    platform = small_platform()
    plan = [(5, 3), (5, 3)]
    batches = split_batches(blob_data, 32)
    deltas = []
    for seed in (0, 1, 2):
        noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=seed)
        raw = accuracy(noisy_forward(trained_mlp, blob_data, plan, noise,
                                     platform, adc_range=AdcRange("worst_case")),
                       blob_data.labels)
        adapted = bn_adapt(trained_mlp, batches, plan, noise, platform,
                           momentum=0.1, adc_range=AdcRange("worst_case"))
        fixed = accuracy(noisy_forward(adapted, blob_data, plan, noise,
                                       platform, adc_range=AdcRange("worst_case")),
                         blob_data.labels)
        deltas.append(fixed - raw)
    assert float(np.median(deltas)) >= 0.0
