"""Weight slicing, input quantization and ADC partial-sum quantization.

All decompositions round-trip exactly on their integer code spaces; the
test suite verifies this exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SlicedWeights:
    """Signed weights decomposed for crossbar cells.

    ``slices[s]`` holds the s-th least-significant slice of the magnitude
    (unsigned, < 2^slice_bits); ``sign`` is -1/0/+1 per weight.  The
    quantized integer is ``sign * sum_s slices[s] * 2^(slice_bits*s)``
    and the real value is that integer times ``scale``.
    """

    slices: tuple[np.ndarray, ...]
    sign: np.ndarray
    scale: float
    weight_bits: int
    slice_bits: int

    def recompose_codes(self) -> np.ndarray:
        mag = np.zeros_like(self.sign, dtype=np.int64)
        for s, sl in enumerate(self.slices):
            mag += sl.astype(np.int64) << (self.slice_bits * s)
        return self.sign * mag


def quantize_slice_weights(weights: np.ndarray, weight_bits: int = 8,
                           slice_bits: int = 4) -> SlicedWeights:
    """Symmetric uniform quantization followed by unsigned slice decomposition.

    The scale maps the max-magnitude weight to code 2^(weight_bits-1) - 1.
    An all-zero tensor gets scale 1 so the mapping stays invertible.
    """
    weights = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if weight_bits % slice_bits != 0:
        raise ValueError(f"weight_bits ({weight_bits}) must be divisible by "
                         f"slice_bits ({slice_bits})")
    qmax = 2 ** (weight_bits - 1) - 1
    wmax = float(np.max(np.abs(weights))) if weights.size else 0.0
    scale = wmax / qmax if wmax > 0 else 1.0
    codes = np.clip(np.round(weights / scale), -qmax, qmax).astype(np.int64)
    return slice_codes(codes, weight_bits, slice_bits, scale)


def slice_codes(codes: np.ndarray, weight_bits: int, slice_bits: int,
                scale: float = 1.0) -> SlicedWeights:
    """Decompose signed integer codes into unsigned magnitude slices."""
    codes = np.asarray(codes, dtype=np.int64)
    if np.any(np.abs(codes) >= 2 ** weight_bits):
        raise ValueError(f"codes exceed {weight_bits}-bit magnitude range")
    sign = np.sign(codes).astype(np.int64)
    mag = np.abs(codes)
    n_slices = weight_bits // slice_bits
    mask = (1 << slice_bits) - 1
    slices = tuple(((mag >> (slice_bits * s)) & mask).astype(np.int64)
                   for s in range(n_slices))
    return SlicedWeights(slices=slices, sign=sign, scale=scale,
                         weight_bits=weight_bits, slice_bits=slice_bits)


def quantize_inputs(activations: np.ndarray, ip: int) -> tuple[np.ndarray, float]:
    """Non-negative activations -> integer codes in [0, 2^ip - 1] plus scale."""
    qmax = 2 ** ip - 1
    amax = float(activations.max()) if activations.size else 0.0
    scale = amax / qmax if amax > 0 else 1.0
    levels = np.divide(activations, scale, out=np.empty(np.shape(activations)))
    np.round(levels, out=levels)
    np.clip(levels, 0, qmax, out=levels)
    return levels.astype(np.int64), scale


def adc_quantize(column_sum: np.ndarray | float, ap: int,
                 full_range: float) -> np.ndarray | int:
    """Uniform quantization of a partial sum to a 2^ap-level integer code.

    The step is full_range / 2^ap; values round to the nearest code
    (ties up) and clip to [0, 2^ap - 1].  An array comes back as a fresh
    float64 array of integer-valued codes, which a caller may scale by
    the step in place to dequantize; a scalar comes back as an ``int``.
    """
    if not 1 <= ap <= 8:
        raise ValueError(f"ap must be in [1, 8], got {ap}")
    if full_range <= 0:
        raise ValueError(f"full_range must be positive, got {full_range}")
    step = full_range / (2 ** ap)
    scalar = np.isscalar(column_sum)
    x = np.asarray(column_sum, dtype=float)
    # one float array, shifted, clipped and truncated in place; truncating
    # the clipped, non-negative levels is the floor of round-half-up
    levels = np.divide(x, step, out=np.empty(x.shape))
    levels += 0.5
    np.clip(levels, 0, 2 ** ap - 1, out=levels)
    np.trunc(levels, out=levels)
    return int(levels) if scalar else levels


def adc_dequantize(codes: np.ndarray, ap: int, full_range: float) -> np.ndarray:
    return np.multiply(codes, full_range / (2 ** ap), dtype=float)
