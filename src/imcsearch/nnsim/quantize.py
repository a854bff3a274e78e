"""Weight, input and ADC partial-sum quantization of the crossbar path.

Weights become signed integer codes (``crossbar.prepare_cells`` slices
their magnitudes into cells), activations unsigned input codes, and the
analog column sums ADC codes; the test suite checks each against its
integer code space exhaustively.
"""

from __future__ import annotations

import numpy as np


def quantize_weights(weights: np.ndarray, weight_bits: int,
                     scale: float | None = None) -> tuple[np.ndarray, float]:
    """Symmetric uniform quantization: int64 codes in [-q, q], q =
    2^(weight_bits-1) - 1, and the scale that maps the max-magnitude weight
    to q, so a weight is its code times the scale (``weight_scale``).

    ``scale``, when given, is the ``weight_scale`` of a whole matrix of
    which ``weights`` is a slab of rows: ``crossbar.prepare_cells``
    quantizes slab by slab, so no float64 copy or int64 code matrix of a
    whole layer exists.  The codes are those of the whole matrix's rows."""
    weights = np.asarray(weights, dtype=float)
    if scale is None:
        scale = weight_scale(weights, weight_bits)
    elif not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    qmax = 2 ** (weight_bits - 1) - 1
    levels = weights / scale
    np.round(levels, out=levels)
    levels.clip(-qmax, qmax, out=levels)
    return levels.astype(np.int64), scale


def weight_scale(weights: np.ndarray, weight_bits: int) -> float:
    """The weight scale: the largest magnitude over 2^(weight_bits-1) - 1,
    or 1 for an all-zero tensor, so the mapping stays invertible.  Read in
    the weights' own float dtype as max(w.max(), -w.min()), which equals
    max|w| exactly and makes no array.  A non-finite weight raises."""
    weights = np.asarray(weights)
    wmax = float(np.maximum(weights.max(), -weights.min())) if weights.size else 0.0
    if not np.isfinite(wmax):
        raise ValueError("weights must be finite")
    qmax = 2 ** (weight_bits - 1) - 1
    return wmax / qmax if wmax > 0 else 1.0


def quantize_inputs(activations: np.ndarray, ip: int, amax: float,
                    out: np.ndarray | None = None,
                    levels: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Float activations -> uint8 codes in [0, 2^ip - 1] plus scale; the
    calibrated max ``amax`` maps to 2^ip - 1, larger values clip to it and
    negative values to code 0.  The levels are computed in the
    activations' dtype (float32 in phase 2's walks).  The codes keep the
    activations' memory layout, so the transposed patch matrix of
    ``im2col`` gives codes whose columns are contiguous.

    ``levels`` (an array of the activations' shape and dtype, which may be
    ``activations`` itself) and ``out`` (the uint8 codes) are written
    into when given, and allocated otherwise; the codes are ``out``.
    """
    qmax = 2 ** ip - 1
    scale = amax / qmax if amax > 0 else 1.0
    levels = np.divide(activations, scale,
                       out=np.empty_like(activations) if levels is None else levels)
    np.round(levels, out=levels)
    levels.clip(0, qmax, out=levels)
    return _as_codes(levels, out), scale


def adc_quantize(column_sum: np.ndarray, ap: int, full_range: float,
                 out: np.ndarray | None = None,
                 levels: np.ndarray | None = None) -> np.ndarray:
    """Uniform quantization of float partial sums to 2^ap-level codes.

    The step is full_range / 2^ap; values round to the nearest code
    (ties up) and clip to [0, 2^ap - 1].  The sums are converted in their
    own dtype (float32 for the kernel's analog sums) into an integer code
    array of their shape.  ``levels`` (in the sums' shape and dtype) and
    ``out`` (the codes, an array of any integer dtype that holds 2^ap - 1)
    are written into when given, and allocated otherwise, the codes as
    ``uint8``; the codes are ``out``.  The kernel passes an int32 ``out``,
    the dtype of its accumulators.
    """
    if not 1 <= ap <= 8:
        raise ValueError(f"ap must be in [1, 8], got {ap}")
    if full_range <= 0:
        raise ValueError(f"full_range must be positive, got {full_range}")
    # one array in the sums' dtype, shifted and clipped in place; the cast
    # to uint8 truncates the clipped, non-negative levels, which is the
    # floor of round-half-up
    levels = np.divide(column_sum, full_range / (2 ** ap),
                       out=np.empty_like(column_sum) if levels is None else levels)
    levels += 0.5
    # the method skips np.clip's Python dispatch, ~2 us of each of the
    # kernel's many small conversions
    levels.clip(0, 2 ** ap - 1, out=levels)
    return _as_codes(levels, out)


def _as_codes(levels: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Clipped, non-negative float levels truncated to integer codes, in
    ``out`` or in a fresh uint8 array of the levels' memory layout."""
    if out is None:
        return levels.astype(np.uint8)
    np.copyto(out, levels, casting="unsafe")
    return out


def adc_dequantize(codes: np.ndarray, ap: int, full_range: float) -> np.ndarray:
    return np.multiply(codes, full_range / (2 ** ap), dtype=float)
