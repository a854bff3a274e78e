import tracemalloc

import numpy as np
import pytest

from imcsearch.nnsim import crossbar
from imcsearch.nnsim.crossbar import (
    CellArrays,
    NoiseSpec,
    chunk_rows,
    prepare_cells,
)
from imcsearch.nnsim.inference import _noisy_matmul

from conftest import NO_VARIATION, loop_matmul, split_cells


def test_chunk_rows_partitions_exactly():
    chunks = chunk_rows(100, 32)
    assert [c.stop - c.start for c in chunks] == [32, 32, 32, 4]
    assert chunk_rows(8, 8) == [slice(0, 8)]


def test_noiseless_matvec_is_exact_integer_dot():
    # |codes| <= 127 with a 127 present: the weight scale is exactly 1
    rng = np.random.default_rng(1)
    codes = rng.integers(-127, 128, size=(40, 6))
    codes[0, 0] = 127
    cells = prepare_cells(codes.astype(float), NO_VARIATION, weight_bits=8,
                          slice_bits=4)
    assert cells.scale == 1.0
    for ip in range(1, 9):
        # every ip-bit code appears in every input column, so the bit planes
        # must recompose each code exactly
        offsets = rng.integers(0, 2 ** ip, size=40)
        inputs = (np.arange(2 ** ip)[:, None] + offsets) % 2 ** ip
        # 16-row chunks of 4-bit cells sum to at most 240 < 2^8 - 1, and
        # with full_range = 2^8 the ADC step is 1, so every sum converts to
        # itself
        [out] = _noisy_matmul(cells, aps=(8,), ip=ip, in_codes=inputs,
                              xbar_size=16, full_range=256.0)
        assert out.shape == (2 ** ip, 6)
        assert np.array_equal(out, inputs @ codes)


def test_kernel_matches_per_slice_loop_bit_for_bit():
    # a full range that is not a power of two makes the sums round, so a
    # change of accumulation order shows in the last bits
    rng = np.random.default_rng(2)
    cells = prepare_cells(rng.standard_normal((40, 6)),
                          NoiseSpec(sigma_over_mu=0.2, rng_seed=5), 8, 4)
    codes = rng.integers(0, 64, size=(30, 40))
    for ap in (4, 8):
        want = loop_matmul(cells, ap, 6, codes, 16, 37.3)
        [got] = _noisy_matmul(cells, (ap,), 6, codes, 16, 37.3)
        assert np.array_equal(got, want)


def test_kernel_shares_matmuls_across_aps_bit_for_bit():
    # one call for both APs returns, per AP, exactly the reference kernel
    rng = np.random.default_rng(3)
    cells = prepare_cells(rng.standard_normal((40, 6)),
                          NoiseSpec(sigma_over_mu=0.2, rng_seed=6), 8, 4)
    codes = rng.integers(0, 64, size=(30, 40))
    got = _noisy_matmul(cells, (4, 8), 6, codes, 16, 37.3)
    assert len(got) == 2
    for ap, out in zip((4, 8), got):
        assert np.array_equal(out, loop_matmul(cells, ap, 6, codes, 16, 37.3))
    # the APs differ through their ADC passes
    assert not np.array_equal(*got)


def test_zero_input_plane_is_zero_regardless_of_noise():
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=0)
    cells = prepare_cells(np.full((64, 3), 0.5), noise, 8, 4)
    [out] = _noisy_matmul(cells, aps=(6,), ip=4,
                          in_codes=np.zeros((2, 64), dtype=np.int64),
                          xbar_size=64, full_range=64 * 15.0)
    assert np.all(out == 0.0)


def test_variation_monte_carlo_mean():
    # all-ones weights quantize to code 127 = 7 * 16 + 15; with an all-ones
    # input plane each column sums 64 noisy cells per slice, mean 64 * 127;
    # the ADC's full range 2048 holds the top slice's sums, 64 * 15 = 960
    # at mean, in steps of 8
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=1234)
    plane = np.ones((1, 64), dtype=np.int64)
    sums = [_noisy_matmul(prepare_cells(np.ones((64, 100)), noise, 8, 4,
                                        key=(t,)),
                          aps=(8,), ip=1, in_codes=plane,
                          xbar_size=64, full_range=2048.0)[0]
            for t in range(100)]
    mean = float(np.mean(sums))
    assert abs(mean - 64.0 * 127) / (64.0 * 127) < 0.01


def test_seeded_variation_is_frozen_per_key():
    w = np.ones((16, 4))
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=7)
    a = prepare_cells(w, noise, 8, 4, key=(3,))
    b = prepare_cells(w, noise, 8, 4, key=(3,))
    c = prepare_cells(w, noise, 8, 4, key=(4,))
    assert np.array_equal(a.columns, b.columns)
    assert not np.array_equal(a.columns, c.columns)
    plane = np.ones((1, 16), dtype=np.int64)
    outs = [_noisy_matmul(cells, aps=(6,), ip=1, in_codes=plane,
                          xbar_size=16, full_range=16 * 15.0)[0]
            for cells in (a, b)]
    assert np.array_equal(*outs)


def test_prepare_cells_signed_split():
    w = np.array([[0.5, -0.5], [1.0, -1.0]])
    cells = prepare_cells(w, NO_VARIATION, weight_bits=8, slice_bits=4)
    assert cells.n_slices == 2
    # positive entries live only in pos arrays, negatives only in neg
    for pos, neg in split_cells(cells):
        assert np.all(pos[:, 1] == 0)
        assert np.all(neg[:, 0] == 0)
    # recompose: pos - neg over slices rebuilds the quantized magnitude
    rebuilt = sum((pos - neg) * 16 ** s
                  for s, (pos, neg) in enumerate(split_cells(cells)))
    assert rebuilt[1, 0] == 127
    assert rebuilt[1, 1] == -127
    assert rebuilt[0, 0] == 64  # 0.5 -> round(63.5) = 64


def test_prepare_cells_rounds_each_noisy_cell_once_to_float32():
    w = np.random.default_rng(4).standard_normal((20, 3))
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=8)
    cells = prepare_cells(w, noise, 8, 4, key=(2,))
    assert cells.columns.dtype == np.float32
    ideal = prepare_cells(w, NO_VARIATION, 8, 4)
    for s, ((pos, neg), (ideal_pos, ideal_neg)) in enumerate(
            zip(split_cells(cells), split_cells(ideal))):
        for polarity, (got, level) in enumerate(((pos, ideal_pos),
                                                 (neg, ideal_neg))):
            draw = noise.generator((2, s, polarity)).standard_normal(level.shape)
            mult = 1.0 + noise.sigma_over_mu * draw
            assert np.array_equal(got, (level.astype(float) * mult)
                                  .astype(np.float32))


def test_int32_accumulator_is_exact_at_the_widest_vgg16_conv():
    # the VGG16 preset's widest conv has 3 * 3 * 512 = 4608 rows, 72 chunks
    # of 64; every input code is 255 at IP 8 and every cell of a column's
    # sign holds the top slice value 15, so each chunk sum, 960, converts to
    # the top code 255 at AP 8, and each column's codes add up to
    # 72 * 255 * 255 per slice
    rows, ip, ap, full_range = 4608, 8, 8, 960.0
    columns = np.zeros((rows, 2, 2, 2), dtype=np.float32)
    columns[:, :, 0, 0] = 15  # column 0 positive, column 1 negative
    columns[:, :, 1, 1] = 15
    cells = CellArrays(columns=columns.reshape(rows, -1), n_slices=2)
    codes = np.full((3, rows), 255, dtype=np.uint8)
    [got] = _noisy_matmul(cells, (ap,), ip, codes, 64, full_range)
    top = np.int64(72 * 255 * 255 * (1 + 16))
    step = full_range / 2 ** ap
    assert np.array_equal(got, np.tile([top, -top], (3, 1)) * step)
    assert np.array_equal(got, loop_matmul(cells, ap, ip, codes, 64,
                                           full_range))


def test_kernel_refuses_code_sums_that_could_overflow_int32():
    # 33,026 one-row chunks of (2^8 - 1)^2 can pass 2^31 - 1; 33,025 cannot
    cells = CellArrays(columns=np.zeros((33026, 4), dtype=np.float32),
                       n_slices=1)
    codes = np.zeros((1, 33026), dtype=np.uint8)
    with pytest.raises(ValueError, match="int32"):
        _noisy_matmul(cells, (5, 8), 8, codes, 1, 255.0)


def _slab_weights():
    # the largest magnitude is negative, so the scale reads -w.min()
    w = np.random.default_rng(9).standard_normal((40, 6))
    w[17, 2] = -4.0
    return w


@pytest.mark.parametrize("slab", [1, 6, 7 * 6, 40 * 6],
                         ids=["one_value", "one_row", "partial_last", "whole"])
def test_prepare_cells_in_slabs_equals_one_slab(monkeypatch, slab):
    # 1 and 6 values give one-row slabs; 42 gives slabs of 7 rows, the last
    # of 5; 240 gives one slab of all 40 rows
    w = _slab_weights()
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=11)
    want = prepare_cells(w, noise, 8, 4, key=(1,))
    monkeypatch.setattr(crossbar, "CELL_SLAB", slab)
    got = prepare_cells(w, noise, 8, 4, key=(1,))
    assert got.scale == want.scale
    assert np.array_equal(got.columns, want.columns)


def test_prepare_cells_of_float32_weights_equals_their_float64_cast(monkeypatch):
    # a loaded net's weights are float32; every cell must be the same
    monkeypatch.setattr(crossbar, "CELL_SLAB", 7 * 6)
    w = _slab_weights().astype(np.float32)
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=11)
    got, want = (prepare_cells(v, noise, 8, 4, key=(1,))
                 for v in (w, w.astype(float)))
    assert got.scale == want.scale
    assert np.array_equal(got.columns, want.columns)


def test_programming_a_multi_slab_layer_holds_its_cells_and_a_few_slabs():
    # a 1152 x 256 layer is 4.5 slabs of weights; its float32 cells are
    # 4.5 MiB and one slab of float64 is 512 KiB
    w = np.random.default_rng(10).standard_normal((1152, 256)).astype(np.float32)
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=12)
    prepare_cells(w[:4], noise, 8, 4)  # imports and first-call set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cells = prepare_cells(w, noise, 8, 4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert cells.columns.nbytes == 1152 * 256 * 4 * 4
    assert peak <= cells.columns.nbytes + 6 * crossbar.CELL_SLAB * 8
