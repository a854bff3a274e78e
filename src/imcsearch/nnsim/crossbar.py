"""Crossbar cell programming with device-variation noise.

Cells hold unsigned slices of a signed integer weight code's magnitude;
the sign picks a positive or a negative column set, converted separately
and subtracted after the ADC.  Device variation multiplies every cell by
N(1, sigma/mu); the draw is seeded and frozen per (seed, key), which models one programmed
chip instance reused across forward passes.  Phase 2 therefore programs
each layer's cells once per run and reuses them for every probe.
Programmed cells are analog conductances, stored as float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantize import quantize_weights, weight_scale


@dataclass(frozen=True)
class NoiseSpec:
    """Device variation of crossbar cells; sigma_over_mu = 0 is none."""

    sigma_over_mu: float = 0.20
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma_over_mu < 0:
            raise ValueError("sigma_over_mu must be >= 0")

    def generator(self, key: tuple[int, ...] = (0,)) -> np.random.Generator | None:
        """The stream of one key's N(0, 1) variation draws, or None without
        variation; a cell's conductance multiplier is 1 + sigma_over_mu
        times its draw.  The same (seed, key) always yields the same stream.
        """
        if self.sigma_over_mu == 0:
            return None
        return np.random.default_rng(
            np.random.SeedSequence(self.rng_seed, spawn_key=tuple(key)))


def chunk_rows(n_rows: int, xbar_size: int) -> list[slice]:
    if xbar_size < 1:
        raise ValueError("xbar_size must be >= 1")
    return [slice(r, min(r + xbar_size, n_rows))
            for r in range(0, n_rows, xbar_size)]


@dataclass(frozen=True)
class CellArrays:
    """Signed weight matrix programmed onto crossbar cells.

    ``columns`` is the float32 (rows, slices * 2 * cols) conductance
    matrix: for each weight slice, least significant first, its positive
    cell columns followed by its negative ones.  One matmul of an input
    bit plane against it thus yields every slice and sign polarity at once.
    """

    columns: np.ndarray
    n_slices: int
    scale: float = 1.0
    slice_bits: int = 4

    @property
    def n_cols(self) -> int:
        return self.columns.shape[1] // (2 * self.n_slices)


#: Weight values per slab of ``prepare_cells``: the weights are quantized
#: and the cells made in slabs of whole weight rows of at most this many
#: values (at least one row), so the float64 weights, int64 codes, cells and
#: variation draws of a whole layer (18 MiB each for VGG16's 4608 x 512
#: convolutions) never exist at once.
CELL_SLAB = 1 << 16


def prepare_cells(weight_matrix: np.ndarray, noise: NoiseSpec,
                  weight_bits: int, slice_bits: int,
                  key: tuple[int, ...] = (0,)) -> CellArrays:
    """Quantize, slice and (optionally) perturb a (rows, cols) weight matrix.

    Slice s (least significant first) holds bits ``slice_bits * s`` up of
    a code's magnitude, in the cells of the code's sign.  The variation
    multiplier is drawn once per slice and sign polarity and reused for
    every bit plane and row chunk, matching cells that are programmed once
    per inference run.  Each cell, its slice value times its float64
    multiplier, is rounded once to the float32 ``columns``.

    The weight scale is read from the whole matrix in its own dtype
    (``quantize.weight_scale``); the codes and cells are then made in row
    slabs (``CELL_SLAB``) with that scale, each slice and polarity reading
    its own variation stream on, so they equal those of one whole matrix
    and one whole draw, and only the float32 ``columns`` are layer-sized.
    """
    if weight_bits % slice_bits != 0:
        raise ValueError(f"weight_bits ({weight_bits}) must be divisible by "
                         f"slice_bits ({slice_bits})")
    scale = weight_scale(weight_matrix, weight_bits)
    rows, cols = weight_matrix.shape
    n_slices = weight_bits // slice_bits
    columns = np.empty((rows, n_slices, 2, cols), dtype=np.float32)
    streams = [[noise.generator(key + (s, polarity)) for polarity in (0, 1)]
               for s in range(n_slices)]
    step = max(1, CELL_SLAB // max(1, cols))
    for start in range(0, rows, step):
        _program_slab(columns[start:start + step], weight_matrix[start:start + step],
                      weight_bits, scale, slice_bits, noise.sigma_over_mu, streams)
    return CellArrays(columns=columns.reshape(rows, -1), n_slices=n_slices,
                      scale=scale, slice_bits=slice_bits)


def _program_slab(out: np.ndarray, weights: np.ndarray, weight_bits: int,
                  scale: float, slice_bits: int, sigma_over_mu: float,
                  streams: list[list[np.random.Generator | None]]) -> None:
    """``prepare_cells`` on one slab of weight rows: writes each slice and
    polarity's cells into ``out``, the slab's (rows, slices, 2, cols)
    float32 columns.  The codes, slice levels, float64 cells and
    variation draws are a few slab-sized arrays, freed on return."""
    codes, _ = quantize_weights(weights, weight_bits, scale)
    polarities = codes > 0, codes < 0
    magnitude = np.abs(codes, out=codes)
    level = np.empty_like(magnitude)
    cells, draw = np.empty(codes.shape), np.empty(codes.shape)
    for s, slice_streams in enumerate(streams):
        np.right_shift(magnitude, slice_bits * s, out=level)
        level &= (1 << slice_bits) - 1
        for polarity, (mask, rng) in enumerate(zip(polarities, slice_streams)):
            np.multiply(level, mask, out=cells)
            if rng is not None:
                # 1 + sigma * draw, each step in place
                rng.standard_normal(out=draw)
                draw *= sigma_over_mu
                draw += 1.0
                cells *= draw
            out[:, s, polarity] = cells
