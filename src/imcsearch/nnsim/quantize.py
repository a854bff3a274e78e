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


def quantize_inputs(activations: np.ndarray, ip: int,
                    amax: float) -> tuple[np.ndarray, float]:
    """Activations -> uint8 codes in [0, 2^ip - 1] plus scale; the
    calibrated max ``amax`` maps to 2^ip - 1, larger values clip to it and
    negative values to code 0.  The levels are computed in the
    activations' float dtype (float32 in phase 2's walks), other input in
    float64.  The codes keep the activations' memory layout, so the
    transposed patch matrix of ``im2col`` gives codes whose columns are
    contiguous."""
    qmax = 2 ** ip - 1
    scale = amax / qmax if amax > 0 else 1.0
    dtype = activations.dtype if activations.dtype.kind == "f" else float
    levels = np.divide(activations, scale,
                       out=np.empty_like(activations, dtype=dtype))
    np.round(levels, out=levels)
    np.clip(levels, 0, qmax, out=levels)
    return levels.astype(np.uint8), scale


def adc_quantize(column_sum: np.ndarray | float, ap: int,
                 full_range: float) -> np.ndarray | int:
    """Uniform quantization of partial sums to 2^ap-level integer codes.

    The step is full_range / 2^ap; values round to the nearest code
    (ties up) and clip to [0, 2^ap - 1].  Float sums are converted in
    their own dtype (float32 for the kernel's analog sums), other sums in
    float64.  An array comes back as a fresh ``uint8`` code array of its
    shape, a scalar as an ``int``.
    """
    if not 1 <= ap <= 8:
        raise ValueError(f"ap must be in [1, 8], got {ap}")
    if full_range <= 0:
        raise ValueError(f"full_range must be positive, got {full_range}")
    step = full_range / (2 ** ap)
    x = np.asarray(column_sum)
    # one array in the sums' float dtype, shifted and clipped in place; the
    # cast to uint8 truncates the clipped, non-negative levels, which is the
    # floor of round-half-up
    levels = np.divide(x, step, out=np.empty(
        x.shape, x.dtype if x.dtype.kind == "f" else float))
    levels += 0.5
    np.clip(levels, 0, 2 ** ap - 1, out=levels)
    codes = levels.astype(np.uint8)
    return codes if codes.ndim else int(codes)


def adc_dequantize(codes: np.ndarray, ap: int, full_range: float) -> np.ndarray:
    return np.multiply(codes, full_range / (2 ** ap), dtype=float)
