import numpy as np
import pytest

from imcsearch.nnsim.quantize import (
    adc_dequantize,
    adc_quantize,
    quantize_inputs,
    quantize_slice_weights,
    slice_codes,
)


def test_zero_weights_all_slices_zero_scale_one():
    sliced = quantize_slice_weights(np.zeros((3, 3)))
    assert sliced.scale == 1.0
    for sl in sliced.slices:
        assert np.all(sl == 0)
    assert np.all(sliced.recompose_codes() == 0)


def test_max_magnitude_weight_slices():
    # max magnitude maps to code 127 = 7*16 + 15 -> slices (15, 7) LSB-first
    w = np.array([1.0, -0.25, 0.0])
    sliced = quantize_slice_weights(w, weight_bits=8, slice_bits=4)
    codes = sliced.recompose_codes()
    assert codes[0] == 127
    assert sliced.slices[0][0] == 15  # low nibble
    assert sliced.slices[1][0] == 7   # high nibble
    assert codes[2] == 0


def test_slice_recompose_exhaustive_all_8bit_codes():
    codes = np.arange(-128, 128, dtype=np.int64)
    sliced = slice_codes(codes, weight_bits=8, slice_bits=4)
    assert np.array_equal(sliced.recompose_codes(), codes)
    for sl in sliced.slices:
        assert sl.min() >= 0 and sl.max() <= 15


@pytest.mark.parametrize("slice_bits", [1, 2, 4, 8])
def test_slice_recompose_other_slicings(slice_bits):
    codes = np.arange(-127, 128, dtype=np.int64)
    sliced = slice_codes(codes, weight_bits=8, slice_bits=slice_bits)
    assert len(sliced.slices) == 8 // slice_bits
    assert np.array_equal(sliced.recompose_codes(), codes)


def test_quantize_rejects_nonfinite():
    with pytest.raises(ValueError):
        quantize_slice_weights(np.array([1.0, np.nan]))


def test_bit_serialize_binary_expansion():
    # max activation 15 at ip=4 -> scale 1 -> codes (9, 0, 15); the kernel
    # reads code 9 as the bit planes (1, 0, 0, 1), LSB first
    codes, scale = quantize_inputs(np.array([9.0, 0.0, 15.0]), ip=4)
    assert scale == pytest.approx(1.0)
    assert codes.tolist() == [9, 0, 15]
    assert [int(codes[0] >> b) & 1 for b in range(4)] == [1, 0, 0, 1]


def test_bit_serialize_single_plane():
    codes, _ = quantize_inputs(np.array([0.0, 0.2, 0.9, 1.0]), ip=1)
    assert np.array_equal(codes, np.array([0, 0, 1, 1]))


@pytest.mark.parametrize("ip", range(1, 9))
def test_bit_serialize_recomposition_exhaustive(ip):
    # input quantization maps its own code grid onto itself
    grid = np.arange(2 ** ip, dtype=float)
    codes, scale = quantize_inputs(grid, ip=ip)
    assert scale == pytest.approx(1.0)
    assert np.array_equal(codes, grid.astype(np.int64))


# ---------------------------------------------------------------------------
# ADC quantizer
# ---------------------------------------------------------------------------

def scalar_bruteforce_adc(value, ap, full_range):
    """Pick the code whose reconstruction is nearest (ties -> larger code)."""
    step = full_range / (2 ** ap)
    best_code, best_err = 0, abs(value - 0.0)
    for code in range(2 ** ap):
        err = abs(value - code * step)
        if err < best_err or (err == best_err and code > best_code):
            best_code, best_err = code, err
    return best_code


def test_adc_quantize_zero_and_full_scale():
    assert adc_quantize(0.0, ap=6, full_range=64.0) == 0
    assert adc_quantize(64.0, ap=6, full_range=64.0) == 63  # clipped
    assert adc_quantize(1e9, ap=4, full_range=64.0) == 15
    assert adc_quantize(-5.0, ap=4, full_range=64.0) == 0


def test_adc_quantize_integer_step_example():
    # full_range 64 at ap=6 -> step exactly 1 -> sum 33 -> code 33
    assert adc_quantize(33.0, ap=6, full_range=64.0) == 33


def test_adc_quantize_matches_scalar_bruteforce():
    rng = np.random.default_rng(9)
    values = rng.uniform(-10.0, 1100.0, size=2000)
    for ap, full_range in ((3, 960.0), (6, 64.0), (8, 960.0), (5, 37.5)):
        got = adc_quantize(values, ap=ap, full_range=full_range)
        want = np.array([scalar_bruteforce_adc(v, ap, full_range)
                         for v in values])
        assert np.array_equal(got, want)


def test_adc_dequantize_roundtrip_when_step_divides():
    # step 0.25: integer sums in range reconstruct exactly
    sums = np.arange(0, 60, dtype=float)
    codes = adc_quantize(sums, ap=8, full_range=64.0)
    assert np.allclose(adc_dequantize(codes, 8, 64.0), sums)


def int64_adc_codes(sums, ap, full_range):
    """The ADC codes as int64, the way the quantizer once returned them."""
    step = full_range / (2 ** ap)
    levels = np.clip(np.asarray(sums, dtype=float) / step + 0.5, 0, 2 ** ap - 1)
    return levels.astype(np.int64)


@pytest.mark.parametrize("ap", range(1, 9))
def test_adc_in_place_round_trip_matches_int64_codes(ap):
    rng = np.random.default_rng(ap)
    for full_range in (37.3, 64.0, 960.0):
        step = full_range / (2 ** ap)
        half_steps = (np.arange(2 ** ap + 2) + 0.5) * step
        sums = np.concatenate([
            [-1e9, -full_range, -0.5 * step, -0.0, 0.0],
            half_steps, np.nextafter(half_steps, 0), np.nextafter(half_steps, 2e9),
            [full_range, 2 * full_range, 1e9],
            rng.uniform(-0.1 * full_range, 1.1 * full_range, size=500)])
        codes = adc_quantize(sums, ap, full_range)
        assert codes.dtype == np.float64
        old = int64_adc_codes(sums, ap, full_range)
        assert np.array_equal(codes, old)
        codes *= step  # the kernel's in-place dequantization
        assert np.array_equal(codes, adc_dequantize(old, ap, full_range))
        assert not np.signbit(codes).any()


def test_adc_quantize_validates_inputs():
    with pytest.raises(ValueError):
        adc_quantize(1.0, ap=0, full_range=64.0)
    with pytest.raises(ValueError):
        adc_quantize(1.0, ap=4, full_range=0.0)
