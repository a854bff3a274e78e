import numpy as np

from imcsearch.nnsim.crossbar import (
    IDEAL_NOISE,
    NoiseSpec,
    chunk_rows,
    prepare_cells,
)
from imcsearch.nnsim.inference import _noisy_matmul
from imcsearch.nnsim.quantize import adc_dequantize, adc_quantize

#: Cells exact, ADC on: with full_range = 2^ap the ADC step is 1, so every
#: integer chunk sum below 2^ap - 1 converts to itself.
EXACT_ADC = NoiseSpec(sigma_over_mu=0.0, rng_seed=0, variation=False)


def test_chunk_rows_partitions_exactly():
    chunks = chunk_rows(100, 32)
    assert [c.stop - c.start for c in chunks] == [32, 32, 32, 4]
    assert chunk_rows(8, 8) == [slice(0, 8)]


def test_noiseless_matvec_is_exact_integer_dot():
    # |codes| <= 127 with a 127 present: the weight scale is exactly 1
    rng = np.random.default_rng(1)
    codes = rng.integers(-127, 128, size=(40, 6))
    codes[0, 0] = 127
    cells = prepare_cells(codes.astype(float), IDEAL_NOISE, weight_bits=8,
                          slice_bits=4)
    assert cells.scale == 1.0
    for ip in range(1, 9):
        # every ip-bit code appears in every input column, so the bit planes
        # must recompose each code exactly
        offsets = rng.integers(0, 2 ** ip, size=40)
        inputs = (np.arange(2 ** ip)[:, None] + offsets) % 2 ** ip
        for noise in (IDEAL_NOISE, EXACT_ADC):
            # 16-row chunks of 4-bit cells sum to at most 240 < 2^8 - 1
            [out] = _noisy_matmul(cells, aps=(8,), ip=ip, in_codes=inputs,
                                  noise=noise, xbar_size=16, full_range=256.0)
            assert out.shape == (2 ** ip, 6)
            assert np.array_equal(out, inputs @ codes)


def loop_matmul(cells, ap, ip, in_codes, noise, xbar_size, full_range):
    """Reference kernel: one matmul and ADC pass per plane, slice, sign, chunk."""
    acc = np.zeros((in_codes.shape[0], cells.n_cols))
    for b in range(ip):
        plane = ((in_codes >> b) & 1).astype(float)
        for s in range(cells.n_slices):
            for sl in chunk_rows(in_codes.shape[1], xbar_size):
                pos = plane[:, sl] @ cells.pos_effective[s][sl]
                neg = plane[:, sl] @ cells.neg_effective[s][sl]
                if noise.quantization:
                    pos = adc_dequantize(adc_quantize(pos, ap, full_range),
                                         ap, full_range)
                    neg = adc_dequantize(adc_quantize(neg, ap, full_range),
                                         ap, full_range)
                acc += (pos - neg) * (2 ** (cells.slice_bits * s)) * (2 ** b)
    return acc


def test_kernel_matches_per_slice_loop_bit_for_bit():
    # a full range that is not a power of two makes the sums round, so a
    # change of accumulation order shows in the last bits
    rng = np.random.default_rng(2)
    cells = prepare_cells(rng.standard_normal((40, 6)),
                          NoiseSpec(sigma_over_mu=0.2, rng_seed=5), 8, 4)
    codes = rng.integers(0, 64, size=(30, 40))
    for quantization in (True, False):
        noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=5,
                          quantization=quantization)
        for ap in (4, 8):
            want = loop_matmul(cells, ap, 6, codes, noise, 16, 37.3)
            [got] = _noisy_matmul(cells, (ap,), 6, codes, noise, 16, 37.3)
            assert np.array_equal(got, want)


def test_kernel_shares_matmuls_across_aps_bit_for_bit():
    # one call for both APs returns, per AP, exactly the reference kernel
    rng = np.random.default_rng(3)
    cells = prepare_cells(rng.standard_normal((40, 6)),
                          NoiseSpec(sigma_over_mu=0.2, rng_seed=6), 8, 4)
    codes = rng.integers(0, 64, size=(30, 40))
    for quantization in (True, False):
        noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=6,
                          quantization=quantization)
        got = _noisy_matmul(cells, (4, 8), 6, codes, noise, 16, 37.3)
        assert len(got) == 2
        for ap, out in zip((4, 8), got):
            assert np.array_equal(out, loop_matmul(cells, ap, 6, codes, noise,
                                                   16, 37.3))
        # the APs differ only through the ADC
        assert np.array_equal(*got) == (not quantization)


def test_zero_input_plane_is_zero_regardless_of_noise():
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=0)
    cells = prepare_cells(np.full((64, 3), 0.5), noise, 8, 4)
    [out] = _noisy_matmul(cells, aps=(6,), ip=4,
                          in_codes=np.zeros((2, 64), dtype=np.int64),
                          noise=noise, xbar_size=64, full_range=64 * 15.0)
    assert np.all(out == 0.0)


def test_variation_monte_carlo_mean():
    # all-ones weights quantize to code 127 = 7 * 16 + 15; with an all-ones
    # input plane each column sums 64 noisy cells per slice, mean 64 * 127
    noise = NoiseSpec(sigma_over_mu=0.2, rng_seed=1234,
                      quantization=False)
    plane = np.ones((1, 64), dtype=np.int64)
    sums = [_noisy_matmul(prepare_cells(np.ones((64, 100)), noise, 8, 4,
                                        key=(t,)),
                          aps=(8,), ip=1, in_codes=plane, noise=noise,
                          xbar_size=64, full_range=1.0)[0]
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
    outs = [_noisy_matmul(cells, aps=(6,), ip=1, in_codes=plane, noise=noise,
                          xbar_size=16, full_range=16 * 15.0)[0]
            for cells in (a, b)]
    assert np.array_equal(*outs)


def test_prepare_cells_signed_split():
    w = np.array([[0.5, -0.5], [1.0, -1.0]])
    cells = prepare_cells(w, IDEAL_NOISE, weight_bits=8, slice_bits=4)
    assert cells.n_slices == 2
    # positive entries live only in pos arrays, negatives only in neg
    for s in range(2):
        assert np.all(cells.pos_effective[s][:, 1] == 0)
        assert np.all(cells.neg_effective[s][:, 0] == 0)
    # recompose: pos - neg over slices rebuilds the quantized magnitude
    rebuilt = sum((cells.pos_effective[s] - cells.neg_effective[s]) * 16 ** s
                  for s in range(2))
    assert rebuilt[1, 0] == 127
    assert rebuilt[1, 1] == -127
    assert rebuilt[0, 0] == 64  # 0.5 -> round(63.5) = 64
