import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from imcsearch.designspace import (
    ADCType,
    CandidateModel,
    LayerChoice,
    LayerShape,
    homogeneous_model,
    vgg16_space,
)
from imcsearch.nnsim import (
    TensorBatch,
    TrainingDiverged,
    cross_entropy,
    hd_score,
    load_net,
    make_blobs,
    make_patterns,
)
from imcsearch.nnsim import network
from imcsearch.nnsim.network import (
    CODE_VALUES,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool,
    Layer,
    ReLU,
    accuracy,
    build_refnet,
    cross_entropy_grad,
    im2col,
    save_net,
    train_tiny,
)

from conftest import candidate_net, fc_net, one_float_per_array, whole_matrix_score


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    for c in (2, 10):
        logits = np.zeros((5, c))
        labels = np.arange(5) % c
        assert cross_entropy(logits, labels) == pytest.approx(math.log(c))


def test_cross_entropy_confident_correct():
    logits = np.array([[30.0, 0.0], [0.0, 30.0]])
    assert cross_entropy(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_two_class_closed_form():
    logits = np.array([[1.0, 0.0]])
    want = math.log(1 + math.exp(-1.0))
    assert cross_entropy(logits, np.array([0])) == pytest.approx(want)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_cross_entropy_refuses_a_feature_map():
    # a conv-final network's output: one (class, y, x) map per sample
    with pytest.raises(ValueError, match="samples, classes"):
        cross_entropy(np.zeros((4, 2, 8, 8)), np.array([0, 1, 0, 1]))


def test_cross_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 3))
    labels = np.array([0, 2, 1, 1])
    got = cross_entropy_grad(logits, labels)
    h = 1e-6
    for i in range(4):
        for j in range(3):
            hi = logits.copy()
            hi[i, j] += h
            lo = logits.copy()
            lo[i, j] -= h
            fd = (cross_entropy(hi, labels) - cross_entropy(lo, labels)) / (2 * h)
            assert got[i, j] == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# layer backward passes (finite-difference spot checks)
# ---------------------------------------------------------------------------

def _layer_fd_check(layer, x, seed=0):
    rng = np.random.default_rng(seed)
    out = layer.forward(x, train=True)
    dout = rng.standard_normal(out.shape)
    dx = layer.backward(dout)
    h = 1e-6
    flat = x.reshape(-1)
    for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
        orig = flat[idx]
        flat[idx] = orig + h
        hi = float((layer.forward(x, train=True) * dout).sum())
        flat[idx] = orig - h
        lo = float((layer.forward(x, train=True) * dout).sum())
        flat[idx] = orig
        layer.forward(x, train=True)  # restore caches
        fd = (hi - lo) / (2 * h)
        assert dx.reshape(-1)[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def _naive_im2col(x, kernel, stride, pad):
    """One row per output pixel: its (c, ky, kx) patch of the padded input."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    rows = [xp[b, :, i * stride:i * stride + kernel,
               j * stride:j * stride + kernel].ravel()
            for b in range(n) for i in range(out_h) for j in range(out_w)]
    return np.array(rows), (out_h, out_w)


@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3])
def test_im2col_matches_per_pixel_loop(kernel, stride, pad, channels_last):
    rng = np.random.default_rng(9)
    if channels_last:  # the memory order a conv layer's output has
        x = rng.standard_normal((2, 5, 6, 3)).transpose(0, 3, 1, 2)
    else:
        x = rng.standard_normal((2, 3, 5, 6))
    cols, out_hw = im2col(x, kernel, stride, pad)
    want, want_hw = _naive_im2col(x, kernel, stride, pad)
    assert out_hw == want_hw
    assert np.array_equal(cols, want)
    # each patch column is one contiguous run
    assert cols.T.flags.c_contiguous


def test_conv_backward():
    rng = np.random.default_rng(3)
    layer = Conv2D(2, 3, kernel=3, stride=1)
    layer.init_weights(rng)
    _layer_fd_check(layer, rng.standard_normal((2, 2, 5, 5)))


def test_dense_backward():
    rng = np.random.default_rng(4)
    layer = Dense(6, 4)
    layer.init_weights(rng)
    _layer_fd_check(layer, rng.standard_normal((3, 6)))


def test_batchnorm_backward():
    rng = np.random.default_rng(5)
    layer = BatchNorm(3)
    _layer_fd_check(layer, rng.standard_normal((6, 3)))


def test_avgpool_backward():
    rng = np.random.default_rng(6)
    _layer_fd_check(AvgPool2D(2), rng.standard_normal((2, 3, 4, 4)))


def test_relu_keeps_its_mask_only_when_training():
    rng = np.random.default_rng(7)
    x, dout = rng.standard_normal((2, 4, 3, 3)), rng.standard_normal((2, 4, 3, 3))
    net = candidate_net([LayerShape(kernel=3, in_spatial=(3, 3)), LayerShape.fc()],
                        [4, 2], input_channels=4, seed=0)
    relus = [layer for layer in net.layers if isinstance(layer, ReLU)]
    net.forward(x)
    assert relus and all(layer._mask is None for layer in relus)
    relu = ReLU()
    out = relu.forward(x)
    assert relu._mask is None
    assert np.array_equal(out, x * (x > 0))
    assert np.array_equal(relu.forward(x, train=True), out)
    assert np.array_equal(relu.backward(dout), dout * (x > 0))


def test_batchnorm_running_stats_update():
    layer = BatchNorm(2, momentum=1.0)
    x = np.array([[1.0, 10.0], [3.0, 30.0]])
    layer.forward(x, train=True)
    assert layer.running_mean == pytest.approx([2.0, 20.0])
    assert layer.running_var == pytest.approx([1.0, 100.0])


@pytest.mark.parametrize("shape", [(5, 3), (4, 3, 2, 5)])
def test_batchnorm_normalize_matches_the_expression_bit_for_bit(shape):
    rng = np.random.default_rng(8)
    layer = BatchNorm(3)
    layer.gamma, layer.beta = rng.random(3) + 0.5, rng.standard_normal(3)
    x = rng.standard_normal(shape)
    mean, var = layer.batch_stats(x)
    before = x.copy()
    out = layer.normalize(x, mean, var)
    v = (lambda a: a.reshape(1, -1, 1, 1)) if x.ndim == 4 else (lambda a: a)
    xhat = (x - v(mean)) / np.sqrt(v(var) + layer.eps)
    want = v(layer.gamma) * xhat + v(layer.beta)
    assert np.array_equal(out, want)
    assert np.array_equal(x, before)


def test_batchnorm_normalizes_in_the_activation_dtype():
    # float64 statistics and parameters are cast to a float32 activation's
    # dtype, so the output equals a float32 layer's on the cast values
    rng = np.random.default_rng(9)
    layer, layer32 = BatchNorm(3), BatchNorm(3)
    layer.gamma, layer.beta = rng.random(3) + 0.5, rng.standard_normal(3)
    layer32.gamma, layer32.beta = (a.astype(np.float32)
                                   for a in (layer.gamma, layer.beta))
    x = rng.standard_normal((4, 3, 2, 5)).astype(np.float32)
    mean, var = rng.standard_normal(3), rng.random(3) + 0.5
    out = layer.normalize(x, mean, var)
    assert out.dtype == np.float32
    want = layer32.normalize(x, mean.astype(np.float32), var.astype(np.float32))
    assert want.dtype == np.float32
    assert np.array_equal(out, want)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_tiny_separable_blobs(trained_mlp):
    assert trained_mlp.train_accuracy >= 0.95


def test_train_tiny_zero_lr_keeps_weights():
    data = make_blobs(64, seed=1)
    net = fc_net([2, 8, 2], seed=1)
    before = [p.copy() for layer in net.layers for p in layer.params()]
    train_tiny(net, data, epochs=3, lr=0.0, batch_size=16, seed=1)
    after = [p for layer in net.layers for p in layer.params()]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_train_tiny_loss_decreases():
    data = make_blobs(128, seed=2)
    finals = []
    for seed in (0, 1, 2):
        net = fc_net([2, 12, 2], seed=seed)
        first = cross_entropy(net.forward(data.data), data.labels)
        train_tiny(net, data, epochs=25, lr=0.05, batch_size=32, seed=seed)
        last = cross_entropy(net.forward(data.data), data.labels)
        finals.append(last < first)
    assert sorted(finals)[1]  # median over 3 seeds improves


def test_train_tiny_reports_divergence():
    from imcsearch.nnsim.network import RefNet

    data = make_blobs(64, seed=3)
    # no batchnorm and overflow-scale weights: the first forward pass
    # produces a non-finite loss, which must surface as TrainingDiverged
    layers = [Dense(2, 8), ReLU(), Dense(8, 2)]
    net = RefNet(layers=layers, class_count=2)
    layers[0].weight = np.full((2, 8), 1e200)
    layers[2].weight = np.full((8, 2), 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            train_tiny(net, data, epochs=1, lr=0.1, batch_size=16, seed=3)


def test_zero_weight_net_constant_logits():
    net = fc_net([2, 4, 2], seed=0)
    for layer in net.layers:
        for p in layer.params():
            p[...] = 0.0 if p.ndim > 1 else p * 0.0
    # zero everything including bn scale -> constant (shift-only) outputs
    data = make_blobs(16, seed=4)
    logits = net.forward(data.data)
    assert np.allclose(logits, logits[0])


# ---------------------------------------------------------------------------
# fixtures and serialization
# ---------------------------------------------------------------------------

def test_fixture_data_nonnegative_and_seeded():
    a = make_blobs(50, seed=9)
    b = make_blobs(50, seed=9)
    assert np.array_equal(a.data, b.data)
    assert a.data.min() >= 0.0
    p = make_patterns(20, channels=1, height=8, width=8, seed=9)
    q = make_patterns(20, channels=1, height=8, width=8, seed=9)
    assert np.array_equal(p.data, q.data)
    assert p.data.min() >= 0.0 and p.data.max() <= 1.0


def test_tensorbatch_validates():
    with pytest.raises(ValueError):
        TensorBatch(data=np.array([[np.inf]]))
    with pytest.raises(ValueError):
        TensorBatch(data=np.zeros((3, 2)), labels=np.array([0, 1]))


def test_save_load_roundtrip(tmp_path, trained_mlp):
    path = tmp_path / "net.imcn"
    save_net(trained_mlp, path)
    restored = load_net(path)
    data = make_blobs(32, seed=5)
    want = trained_mlp.forward(data.data)
    got = restored.forward(data.data)
    # weights travel as float32; behaviour must match at that precision
    assert np.allclose(got, want, atol=1e-4)
    assert accuracy(got, data.labels) == accuracy(want, data.labels)


def _every_kind_net():
    """A conv candidate's net through every layer kind (conv, batchnorm,
    ReLU, average pool, global pool, dense), with no two stored arrays of
    a layer alike."""
    net = candidate_net([LayerShape(kernel=3, in_spatial=(8, 8)),
                         LayerShape(kernel=3, in_spatial=(4, 4)),
                         LayerShape.fc()], [4, 8, 2], input_channels=1, seed=3)
    rng = np.random.default_rng(5)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            n = layer.num_features
            layer.gamma, layer.beta = rng.random(n) + 0.5, rng.standard_normal(n)
            layer.running_mean = rng.standard_normal(n)
            layer.running_var = rng.random(n) + 0.5
        elif isinstance(layer, Dense):
            layer.bias = rng.standard_normal(layer.n_out)
    return net


def test_save_load_roundtrip_of_a_net_with_every_layer_kind(tmp_path):
    net = _every_kind_net()
    assert ({type(layer) for layer in net.layers}
            == set(network._LAYER_KINDS.values()))
    path = tmp_path / "net.imcn"
    save_net(net, path)
    restored = load_net(path)
    assert ([layer.spec() for layer in restored.layers]
            == [layer.spec() for layer in net.layers])
    x = make_patterns(4, seed=2).data
    # weights travel as float32
    np.testing.assert_allclose(restored.forward(x), net.forward(x), atol=1e-5)
    again = tmp_path / "again.imcn"
    save_net(restored, again)
    assert again.read_bytes() == path.read_bytes()


def test_save_net_bytes_are_pinned(tmp_path):
    # the file layout: magic, version, sort-keyed JSON header, then each
    # layer's arrays in order as little-endian float32
    path = tmp_path / "net.imcn"
    save_net(_every_kind_net(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "edb51b1a4db16979590f77ed7d50a736a2dc938cdc9d62e539d9337aef2877b2")


def test_build_refnet_holds_no_more_than_its_weights():
    # a net that is never trained must not hold gradient buffers
    shapes = [LayerShape(kernel=3, in_spatial=(8, 8)),
              LayerShape(kernel=3, in_spatial=(8, 8)), LayerShape.fc()]
    # a first build imports the modules it needs; keep them out of the count
    candidate_net(shapes, [32, 64, 10], input_channels=3, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net = candidate_net(shapes, [32, 64, 10], input_channels=3, seed=0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    weight_bytes = sum(a.nbytes for _, a in network._named_arrays(net))
    assert held < 1.25 * weight_bytes


def test_every_layer_kind_is_declared_and_its_spec_round_trips():
    layers = [Conv2D(2, 3, kernel=1, stride=2), Dense(3, 4),
              BatchNorm(3, momentum=0.2, eps=1e-3), ReLU(), AvgPool2D(4),
              GlobalAvgPool()]
    kinds = set(Layer.__subclasses__())
    assert {type(layer) for layer in layers} == kinds
    assert set(network._LAYER_KINDS.values()) == kinds
    for layer in layers:
        spec = layer.spec()
        cls = network._LAYER_KINDS[spec["kind"]]
        assert cls is type(layer)
        assert cls(**{a: spec[a] for a in cls.args}).spec() == spec
        assert set(cls.param_names) <= set(cls.arrays)
        for name in cls.arrays:
            assert isinstance(getattr(layer, name), np.ndarray)


def test_load_rejects_an_array_of_another_shape(tmp_path):
    # a one-float array would otherwise broadcast over the whole weight matrix
    path = tmp_path / "net.imcn"
    save_net(fc_net([2, 4, 2], seed=0), path)
    path.write_bytes(one_float_per_array(path.read_bytes()))
    with pytest.raises(ValueError, match=r"array layers\.0\.weight has shape "
                                         r"\[1\], its layer expects \[2, 4\]"):
        load_net(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.imcn"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_net(path)


# ---------------------------------------------------------------------------
# candidate -> reference-net builder
# ---------------------------------------------------------------------------

def test_build_refnet_from_conv_candidate():
    shape8 = LayerShape(kernel=3, in_spatial=(8, 8))
    shape4 = LayerShape(kernel=3, in_spatial=(4, 4))
    fc = LayerShape.fc()
    layers = (
        (shape8, LayerChoice(cd_out=4, cs=4, at=ADCType.SAR, ap=6, ip=8)),
        (shape4, LayerChoice(cd_out=8, cs=4, at=ADCType.SAR, ap=6, ip=8)),
        (fc, LayerChoice(cd_out=3, cs=4, at=ADCType.SAR, ap=6, ip=8)),
    )
    model = CandidateModel(layers=layers, input_channels=1)
    net = build_refnet(model, class_count=3, seed=0)
    x = make_patterns(6, channels=1, height=8, width=8, n_classes=3, seed=0)
    logits = net.forward(x.data)
    assert logits.shape == (6, 3)
    assert sum(isinstance(l, (Conv2D, Dense)) for l in net.layers) == 3


def test_build_refnet_rejects_class_mismatch():
    fc = LayerShape.fc()
    layers = ((fc, LayerChoice(cd_out=5, cs=4, at=ADCType.SAR, ap=6, ip=8)),)
    model = CandidateModel(layers=layers, input_channels=4)
    with pytest.raises(ValueError):
        build_refnet(model, class_count=3, seed=0)


def test_build_refnet_in_float32_is_the_float64_net_cast():
    # each weight rounds once from the same float64 draw
    shapes = [LayerShape(kernel=3, in_spatial=(8, 8)),
              LayerShape(kernel=3, in_spatial=(4, 4)), LayerShape.fc(),
              LayerShape.fc()]
    layers = tuple((shape, LayerChoice(cd_out=w, cs=4, at=ADCType.SAR, ap=6, ip=8))
                   for shape, w in zip(shapes, [4, 8, 6, 3]))
    model = CandidateModel(layers=layers, input_channels=2)
    net = build_refnet(model, class_count=3, seed=7, dtype=np.float32)
    wide = build_refnet(model, class_count=3, seed=7)
    assert ({type(layer) for layer in net.layers}
            == set(network._LAYER_KINDS.values()))
    for (name, got), (_, want) in zip(network._named_arrays(net),
                                      network._named_arrays(wide), strict=True):
        assert got.dtype == np.float32, name
        assert np.array_equal(got, want.astype(np.float32)), name
    held = {v.dtype for layer in net.layers for v in vars(layer).values()
            if isinstance(v, np.ndarray)}
    assert held == {np.dtype(np.float32)}


# ---------------------------------------------------------------------------
# code-collecting forward in value-bounded blocks per pooling stage
# ---------------------------------------------------------------------------

#: The draw of the code-collecting forwards below, and of ``_code_net``.
CODE_SEED = 3


def _code_net(kind, dtype=float):
    """(net, inputs) of one kind: "conv", a conv net through conv,
    batchnorm, ReLU, both poolings (two pooling stages, 8x8 then 4x4) and
    a dense classifier; "fc", an all-FC net (one stage of one row per
    sample); "vgg", the quarter-width VGG16 candidate at 32x32, whose
    patch rows widen from 27 to 1152 values as its stages narrow."""
    if kind == "conv":
        return (candidate_net([LayerShape(kernel=3, in_spatial=(8, 8)),
                               LayerShape(kernel=3, in_spatial=(4, 4)),
                               LayerShape.fc()], [4, 8, 2], input_channels=1,
                              seed=CODE_SEED, dtype=dtype),
                make_patterns(16, seed=1).data)
    if kind == "fc":
        return (fc_net([2, 8, 6, 2], seed=CODE_SEED, dtype=dtype),
                make_blobs(16, seed=1).data)
    space = vgg16_space()
    model = homogeneous_model(space, space.cs_options[0], space.at_options[0],
                              ap=6, ip=8, cd_index=0)
    return (build_refnet(model, space.class_count, seed=CODE_SEED, dtype=dtype),
            make_patterns(4, channels=3, height=32, width=32,
                          n_classes=space.class_count, seed=1).data)


def _forward_with_codes(net, x):
    """``forward_with_codes`` at ``CODE_SEED``'s draw: the logits and every
    stage's codes side by side."""
    stages = []
    logits = net.forward_with_codes(x, np.random.default_rng(CODE_SEED),
                                    stages.append)
    return logits, np.concatenate(stages, axis=1)


@pytest.mark.parametrize("n, kind", [(n, kind) for kind in ("conv", "fc")
                                     for n in (1, 7, 9, 16)] + [(4, "vgg")])
def test_forward_with_codes_in_blocks_matches_one_block(monkeypatch, kind, n):
    net, data = _code_net(kind)
    x = data[:n]
    # the streamed score, whatever the blocks, is the whole-matrix score
    # of the float32 net build_refnet draws from the same seed
    net32, _ = _code_net(kind, np.float32)
    want = whole_matrix_score(net32, x.astype(np.float32))
    # the whole batch in one block per stage: 2**24 values hold 16 samples
    # of the small nets and 4 of the VGG16 net's widest stage (32 x 32
    # patch rows of 16 x 3 x 3 values), and keep each Gram chunk exact
    monkeypatch.setattr(network, "CODE_VALUES", 1 << 24)
    one_logits, one_codes = _forward_with_codes(net, x)
    assert one_codes.dtype == bool and one_codes.shape[0] == n
    assert hd_score(net, x, CODE_SEED) == want
    # one sample per block throughout; then the default budget, which
    # runs the VGG16 net's 32x32 stage in blocks of 3 samples, the last
    # one partial, and its later stages whole
    for budget in (1, CODE_VALUES):
        monkeypatch.setattr(network, "CODE_VALUES", budget)
        logits, codes = _forward_with_codes(net, x)
        assert np.array_equal(codes, one_codes)
        # a product over fewer rows may round differently: ulps, not signs
        np.testing.assert_allclose(logits, one_logits, rtol=1e-12, atol=1e-15)
        assert hd_score(net, x, CODE_SEED) == want


@pytest.mark.parametrize("budget", [100, 2000, CODE_VALUES])
def test_forward_with_codes_patch_matrices_stay_within_code_values(monkeypatch,
                                                                   budget):
    net, x = _code_net("conv")
    x = np.concatenate([x] * 4)  # 64 samples
    seen = []  # (input size, samples, patch values) per patch matrix
    gather = network.im2col

    def spy(x, kernel, stride, pad):
        cols, out_hw = gather(x, kernel, stride, pad)
        seen.append((x.shape[2:], x.shape[0], cols.size))
        return cols, out_hw

    monkeypatch.setattr(network, "im2col", spy)
    monkeypatch.setattr(network, "CODE_VALUES", budget)
    _forward_with_codes(net, x)
    assert all(size <= budget for _, samples, size in seen if samples > 1)
    # each stage fills its blocks: as many samples as fit at its widest
    # layer input (1 x 3 x 3 values per pixel at 8x8, 4 x 3 x 3 at 4x4),
    # at least one, at most the batch
    for hw, per_sample in (((8, 8), 64 * 9), ((4, 4), 16 * 36)):
        assert (max(samples for s, samples, _ in seen if s == hw)
                == max(1, min(64, budget // per_sample)))


@pytest.mark.parametrize("slab", [5, 2 * 27 + 5, network.DRAW_SLAB])
def test_he_normal_in_slabs_draws_the_whole_tensor(monkeypatch, slab):
    # 7 rows of 27 values: one row per slab, 2 rows per slab (the last
    # slab partial), all in one slab
    monkeypatch.setattr(network, "DRAW_SLAB", slab)
    rng = np.random.default_rng(9)
    got = network._he_normal(rng, (7, 3, 3, 3), 27, np.float32)
    whole_rng = np.random.default_rng(9)
    whole = whole_rng.standard_normal((7, 3, 3, 3)) * np.sqrt(2.0 / 27)
    assert got.dtype == np.float32
    assert np.array_equal(got, whole.astype(np.float32))
    # and the stream goes on where one whole draw leaves it
    assert rng.standard_normal() == whole_rng.standard_normal()
