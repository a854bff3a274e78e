import numpy as np
import pytest

from imcsearch.nnsim.crossbar import prepare_cells
from imcsearch.nnsim.quantize import (
    adc_dequantize,
    adc_quantize,
    quantize_inputs,
    quantize_weights,
)

from conftest import NO_VARIATION, split_cells


def cell_codes(cells) -> np.ndarray:
    """The signed integer codes that noiseless cells hold: positive minus
    negative cells, each slice at its weight."""
    return sum((pos - neg).astype(np.int64) << (cells.slice_bits * s)
               for s, (pos, neg) in enumerate(split_cells(cells)))


def test_zero_weights_all_slices_zero_scale_one():
    codes, scale = quantize_weights(np.zeros((3, 3)), 8)
    assert scale == 1.0 and np.all(codes == 0)
    cells = prepare_cells(np.zeros((3, 3)), NO_VARIATION, 8, 4)
    assert cells.scale == 1.0
    assert np.all(cells.columns == 0)


def test_max_magnitude_weight_slices():
    # max magnitude maps to code 127 = 7*16 + 15 -> slices (15, 7) LSB-first
    w = np.array([[1.0], [-0.25], [0.0]])
    cells = prepare_cells(w, NO_VARIATION, weight_bits=8, slice_bits=4)
    codes = cell_codes(cells)
    assert codes[0, 0] == 127
    (low, _), (high, _) = split_cells(cells)
    assert low[0, 0] == 15  # low nibble
    assert high[0, 0] == 7  # high nibble
    assert codes[1, 0] == -32  # -0.25 -> round(-31.75)
    assert codes[2, 0] == 0


def test_slice_recompose_exhaustive_all_8bit_codes():
    # all 256 two's-complement 8-bit values as weights: -128 sets the scale
    # to 128/127, so it lands on the bottom code -127 and each weight on its
    # nearest code; the nibble cells hold exactly the codes quantize_weights
    # gives
    w = np.arange(-128, 128, dtype=float)[:, None]
    codes, scale = quantize_weights(w, 8)
    assert scale == pytest.approx(128 / 127)
    assert codes.min() == -127 and codes.max() == 126
    assert np.all(np.abs(codes - w / scale) <= 0.5)
    cells = prepare_cells(w, NO_VARIATION, weight_bits=8, slice_bits=4)
    assert cells.scale == scale
    assert np.array_equal(cell_codes(cells), codes)
    for pos, neg in split_cells(cells):
        assert pos.min() >= 0 and pos.max() <= 15
        assert neg.min() >= 0 and neg.max() <= 15


@pytest.mark.parametrize("slice_bits", [1, 2, 4, 8])
def test_slice_recompose_other_slicings(slice_bits):
    # every code quantize_weights can give at 8 bits; the 127 makes the
    # scale exactly 1, so each weight is its own code
    codes = np.arange(-127, 128, dtype=np.int64)[:, None]
    cells = prepare_cells(codes.astype(float), NO_VARIATION, weight_bits=8,
                          slice_bits=slice_bits)
    assert cells.scale == 1.0
    assert cells.n_slices == 8 // slice_bits
    assert np.array_equal(cell_codes(cells), codes)
    assert cells.columns.min() >= 0
    assert cells.columns.max() <= 2 ** slice_bits - 1
    for pos, neg in split_cells(cells):
        # each code sits in the cells of its own sign only
        assert np.all(pos[codes < 0] == 0) and np.all(neg[codes > 0] == 0)


def test_quantize_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        quantize_weights(np.array([1.0, np.nan]), 8)
    with pytest.raises(ValueError, match="finite"):
        prepare_cells(np.array([[1.0, np.inf]]), NO_VARIATION, 8, 4)


def test_prepare_cells_rejects_slices_that_do_not_divide_the_weight_bits():
    with pytest.raises(ValueError, match="divisible"):
        prepare_cells(np.ones((2, 2)), NO_VARIATION, 8, 3)


def test_bit_serialize_binary_expansion():
    # max activation 15 at ip=4 -> scale 1 -> codes (9, 0, 15); the kernel
    # reads code 9 as the bit planes (1, 0, 0, 1), LSB first
    codes, scale = quantize_inputs(np.array([9.0, 0.0, 15.0]), ip=4, amax=15.0)
    assert scale == pytest.approx(1.0)
    assert codes.tolist() == [9, 0, 15]
    assert [int(codes[0] >> b) & 1 for b in range(4)] == [1, 0, 0, 1]


def test_bit_serialize_single_plane():
    codes, _ = quantize_inputs(np.array([0.0, 0.2, 0.9, 1.0]), ip=1, amax=1.0)
    assert np.array_equal(codes, np.array([0, 0, 1, 1]))


@pytest.mark.parametrize("ip", range(1, 9))
def test_bit_serialize_recomposition_exhaustive(ip):
    # input quantization maps its own code grid onto itself
    grid = np.arange(2 ** ip, dtype=float)
    codes, scale = quantize_inputs(grid, ip=ip, amax=2 ** ip - 1)
    assert scale == pytest.approx(1.0)
    assert np.array_equal(codes, grid.astype(np.int64))


def test_inputs_above_the_calibrated_max_clip_to_the_top_code():
    codes, scale = quantize_inputs(np.array([0.0, 5.0, 10.0, 30.0]), 3, 10.0)
    assert scale == pytest.approx(10.0 / 7)
    assert codes.tolist() == [0, 4, 7, 7]
    # 8-bit codes clip before they become uint8, so none wraps around
    codes, _ = quantize_inputs(np.array([255.0, 300.0, 1e6]), 8, 255.0)
    assert codes.tolist() == [255, 255, 255]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True], ids=["C", "im2col"])
def test_quantize_inputs_into_buffers_matches_fresh_codes(dtype, transposed):
    # levels written over the activations themselves and codes into a
    # buffer of the activations' layout give the fresh codes and scale
    rng = np.random.default_rng(5)
    x = (rng.standard_normal((72, 40)) * 3).astype(dtype)
    if transposed:  # im2col's patch layout: the transpose is C-contiguous
        x = np.ascontiguousarray(x.T).T
    for ip, amax in ((3, 4.0), (8, 2.5), (8, float(x.max()))):
        want, want_scale = quantize_inputs(x, ip, amax)
        levels = x.copy(order="K")
        out = np.full_like(x, 99, dtype=np.uint8)  # in x's layout
        got, scale = quantize_inputs(levels, ip, amax, out=out, levels=levels)
        assert got is out and scale == want_scale
        assert got.strides == want.strides
        assert np.array_equal(got, want)


def test_float_inputs_quantize_in_their_own_dtype():
    # a value next to a half level, where the two dtypes round apart
    x = np.array([2.122549], np.float32)
    assert quantize_inputs(x, 8, 2.5)[0].tolist() == [216]
    assert quantize_inputs(x.astype(float), 8, 2.5)[0].tolist() == [217]


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
    sums = np.array([0.0, 64.0])
    assert adc_quantize(sums, ap=6, full_range=64.0).tolist() == [0, 63]  # clipped
    sums = np.array([1e9, -5.0])
    assert adc_quantize(sums, ap=4, full_range=64.0).tolist() == [15, 0]


def test_adc_quantize_integer_step_example():
    # full_range 64 at ap=6 -> step exactly 1 -> sum 33 -> code 33
    assert adc_quantize(np.array([33.0]), ap=6, full_range=64.0).tolist() == [33]


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
    """The ADC codes as int64, computed in the sums' float dtype."""
    sums = np.asarray(sums)
    real = sums.dtype.type
    levels = np.clip(sums / real(full_range / 2 ** ap) + real(0.5), 0, 2 ** ap - 1)
    return levels.astype(np.int64)


@pytest.mark.parametrize("ap", range(1, 9))
def test_adc_in_place_round_trip_matches_int64_codes(ap):
    # the kernel's float32 sums and float64 sums each convert in their own
    # dtype, to uint8 codes
    rng = np.random.default_rng(ap)
    for dtype in (np.float32, np.float64):
        for full_range in (37.3, 64.0, 960.0):
            step = full_range / (2 ** ap)
            half_steps = ((np.arange(2 ** ap + 2) + 0.5) * step).astype(dtype)
            sums = np.concatenate([
                np.array([-1e9, -full_range, -0.5 * step, -0.0, 0.0], dtype),
                half_steps, np.nextafter(half_steps, dtype(0)),
                np.nextafter(half_steps, dtype(2e9)),
                np.array([full_range, 2 * full_range, 1e9], dtype),
                rng.uniform(-0.1 * full_range, 1.1 * full_range,
                            size=500).astype(dtype)])
            assert sums.dtype == dtype
            codes = adc_quantize(sums, ap, full_range)
            assert codes.dtype == np.uint8 and codes.shape == sums.shape
            assert np.array_equal(codes, int64_adc_codes(sums, ap, full_range))
            # into buffers holding stale values: the same codes, in ``out``
            out = np.full(sums.shape, 99, np.uint8)
            got = adc_quantize(sums, ap, full_range, out=out,
                               levels=np.full_like(sums, np.nan))
            assert got is out and np.array_equal(got, codes)


def test_adc_quantize_validates_inputs():
    with pytest.raises(ValueError):
        adc_quantize(np.ones(1), ap=0, full_range=64.0)
    with pytest.raises(ValueError):
        adc_quantize(np.ones(1), ap=4, full_range=0.0)
