import math
import tracemalloc

import numpy as np
import pytest

from imcsearch.designspace import LayerShape, homogeneous_model, vgg16_space
from imcsearch.nnsim import (
    TensorBatch,
    hd_score,
    make_blobs,
    make_patterns,
    refnet_layers,
)
from imcsearch.nnsim.network import (
    CODE_VALUES,
    BatchNorm,
    Conv2D,
    Dense,
    RefNet,
    ReLU,
)
from imcsearch.nnsim.score import LAMBDA_RATIO, hamming_kernel

from conftest import candidate_net, fc_net


def test_hamming_kernel_against_hand_counts():
    codes = np.array([
        [1, 0, 1, 1],
        [1, 1, 0, 1],
        [0, 0, 0, 0],
    ])
    # pairwise Hamming distances by hand: d(0,1)=2, d(0,2)=3, d(1,2)=3
    want = np.array([
        [4, 2, 1],
        [2, 4, 1],
        [1, 1, 4],
    ], dtype=float)
    assert np.array_equal(hamming_kernel(codes), want)


def test_hamming_kernel_equals_agreeing_ones_plus_agreeing_zeros():
    # wider than two Gram chunks of CODE_VALUES // 7 columns, the last
    # one partial
    rng = np.random.default_rng(2)
    codes = rng.random((7, 2 * (CODE_VALUES // 7) + 37)) < 0.3
    c = codes.astype(float)
    want = c @ c.T + (1.0 - c) @ (1.0 - c).T
    for given in (codes, codes.astype(np.int64)):
        k = hamming_kernel(given)
        assert k.dtype == np.float64
        assert np.array_equal(k, want)


def test_hand_set_weights_reproduce_hand_determinant(monkeypatch):
    # Dense(2 -> 4) with hand-set weights; thresholds chosen so the three
    # inputs produce known ReLU sign patterns.  The code forward draws each
    # stage through its layers' own init_weights, so a Dense that draws
    # nothing keeps the weights set here
    monkeypatch.setattr(Dense, "init_weights", lambda self, rng, dtype=float: None)
    net = RefNet(layers=[Dense(2, 4), ReLU(), Dense(4, 2)], class_count=2)
    d = net.layers[0]
    d.weight = np.array([[1.0, -1.0, 2.0, 0.5],
                         [-1.0, 1.0, 1.0, -2.0]])
    d.bias = np.array([0.0, 0.0, -3.0, 0.0])
    x = np.array([[1.0, 0.0],
                  [0.0, 1.0],
                  [2.0, 2.0]])
    # pre-ReLU: x @ W + b ->
    #   [ 1, -1, -1,  0.5]  -> code 1001
    #   [-1,  1, -2, -2  ]  -> code 0100
    #   [ 0,  0,  3, -3  ]  -> code 0010
    stages = []
    net.forward_with_codes(x, np.random.default_rng(0), stages.append)
    (codes,) = stages
    assert np.array_equal(codes, np.array([[1, 0, 0, 1],
                                           [0, 1, 0, 0],
                                           [0, 0, 1, 0]]))
    k = hamming_kernel(codes)
    hand_k = np.array([[4.0, 1.0, 1.0],
                       [1.0, 4.0, 2.0],
                       [1.0, 2.0, 4.0]])
    assert np.array_equal(k, hand_k)
    lam = LAMBDA_RATIO * 4
    want = math.log(np.linalg.det(hand_k + lam * np.eye(3)))
    sign, logdet = np.linalg.slogdet(hand_k + lam * np.eye(3))
    assert sign > 0 and logdet == pytest.approx(want)


def test_single_sample_score_closed_form():
    net = fc_net([2, 6, 2], seed=4)
    batch = TensorBatch(np.array([[1.0, 2.0]]))
    score = hd_score(net, batch, seed=4)
    assert score == pytest.approx(math.log(6 + LAMBDA_RATIO * 6))


def test_duplicate_inputs_hit_regularization_floor():
    net = fc_net([2, 8, 2], seed=4)
    dup = TensorBatch(np.array([[1.0, 2.0], [1.0, 2.0]]))
    distinct = TensorBatch(np.array([[1.0, 2.0], [3.0, 0.5]]))
    floor = hd_score(net, dup, seed=4)
    spread = hd_score(net, distinct, seed=4)
    assert np.isfinite(floor)
    assert floor < spread
    # rank-deficient kernel: the floor sits near log(2*N_A) + log(lambda)
    n_a = 8
    lam = LAMBDA_RATIO * n_a
    assert floor == pytest.approx(math.log(2 * n_a + lam) + math.log(lam),
                                  rel=0.05)


def test_hd_score_deterministic_and_seed_sensitive():
    batch = make_blobs(16, seed=3)
    a = hd_score(fc_net([2, 8, 2], seed=7), batch, seed=7)
    b = hd_score(fc_net([2, 8, 2], seed=7), batch, seed=7)
    c = hd_score(fc_net([2, 8, 2], seed=8), batch, seed=8)
    assert a == b
    assert a != c


def test_hd_score_permutation_invariant():
    net = fc_net([2, 8, 2], seed=1)
    batch = make_blobs(12, seed=5)
    base = hd_score(net, batch, seed=1)
    perm = np.random.default_rng(0).permutation(12)
    shuffled = TensorBatch(batch.data[perm], batch.labels[perm])
    assert hd_score(net, shuffled, seed=1) == pytest.approx(base, rel=1e-12)


def test_hd_score_does_not_mutate_input_net():
    net = fc_net([2, 8, 2], seed=2)
    before = [p.copy() for l in net.layers for p in l.params()]
    hd_score(net, make_blobs(8, seed=1), seed=2)
    after = [p for l in net.layers for p in l.params()]
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    # the float32 weights are drawn into copies; the net keeps its float64
    # arrays
    for layer in net.layers:
        for name in layer.arrays:
            assert getattr(layer, name).dtype == np.float64


def test_hd_score_collects_codes_in_float32(monkeypatch):
    # one code forward of a float32 batch, whose every layer holds float32
    # arrays and gets a float32 input
    batches, seen = [], set()
    collect = RefNet.forward_with_codes

    def spy(self, x, rng, on_codes):
        batches.append(x.dtype)
        return collect(self, x, rng, on_codes)

    monkeypatch.setattr(RefNet, "forward_with_codes", spy)
    for cls in (Conv2D, BatchNorm, Dense):
        def forward(self, x, train=False, _forward=cls.forward):
            seen.add(x.dtype)
            seen.update(getattr(self, name).dtype for name in self.arrays)
            return _forward(self, x, train)

        monkeypatch.setattr(cls, "forward", forward)
    shape = LayerShape(kernel=3, in_spatial=(8, 8))
    net = candidate_net([shape, LayerShape.fc()], [4, 2], input_channels=1,
                        seed=0)
    hd_score(net, make_patterns(4, channels=1, height=8, width=8, seed=0), seed=0)
    f32 = np.dtype(np.float32)
    assert batches == [f32] and seen == {f32}


def test_hd_score_memory_stays_at_a_few_blocks_of_patches():
    # the whole batch at once builds 64 x 16 x 16 patch rows of 144 float32
    # columns per 16-channel conv input, 9 MiB, and peaks at 13 MiB (25 MiB
    # in float64); blocks of samples peak at 5 MiB, most of it one float32
    # chunk of the Gram product
    shape = LayerShape(kernel=3, in_spatial=(16, 16))
    net = candidate_net([shape] * 3 + [LayerShape.fc()], [16, 16, 32, 2],
                        input_channels=3, seed=0)
    batch = make_patterns(64, channels=3, height=16, width=16, seed=0)
    tracemalloc.start()
    try:
        score = hd_score(net, batch, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(score)
    assert peak < 8 * 2 ** 20


def test_hd_score_never_holds_a_whole_full_width_vgg16():
    # the widest VGG16 candidate's float32 weights take 56 MiB; drawn and
    # freed stage by stage, scoring it traces its widest stage's weights
    # (28 MiB at 2 x 2) plus that stage's patches and codes
    space = vgg16_space()
    model = homogeneous_model(space, space.cs_options[0], space.at_options[0],
                              ap=6, ip=8)
    net = RefNet(refnet_layers(model, space.class_count), space.class_count)
    whole = sum(4 * math.prod(getattr(layer, name).shape)
                for layer in net.layers for name in layer.arrays)
    batch = make_patterns(8, channels=3, height=32, width=32,
                          n_classes=space.class_count, seed=0)
    tracemalloc.start()
    try:
        score = hd_score(net, batch, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(score)
    assert peak < whole
