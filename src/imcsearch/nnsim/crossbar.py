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


#: Weight values per slab of ``prepare_cells``: the cells are made from
#: slabs of whole weight rows of at most this many values (at least one
#: row), so the float64 cells and variation draws of a whole layer (18 MiB
#: each for VGG16's 4608 x 512 convolutions) never exist at once.
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
    multiplier, is rounded once to the float32 ``columns``.  The cells are
    made in row slabs (``CELL_SLAB``), each slice and polarity reading its
    own variation stream on, so they equal those of one whole draw.
    """
    from .quantize import quantize_weights

    codes, scale = quantize_weights(weight_matrix, weight_bits)
    if weight_bits % slice_bits != 0:
        raise ValueError(f"weight_bits ({weight_bits}) must be divisible by "
                         f"slice_bits ({slice_bits})")
    rows, cols = codes.shape
    n_slices = weight_bits // slice_bits
    columns = np.empty((rows, n_slices, 2, cols), dtype=np.float32)
    streams = [[noise.generator(key + (s, polarity)) for polarity in (0, 1)]
               for s in range(n_slices)]
    step = max(1, CELL_SLAB // max(1, cols))
    for start in range(0, rows, step):
        slab = codes[start:start + step]
        magnitude, polarities = np.abs(slab), (slab > 0, slab < 0)
        for s in range(n_slices):
            level = (magnitude >> (slice_bits * s)) & ((1 << slice_bits) - 1)
            for polarity, mask in enumerate(polarities):
                cells = np.where(mask, level, 0).astype(float)
                rng = streams[s][polarity]
                if rng is not None:
                    cells *= 1.0 + noise.sigma_over_mu * rng.standard_normal(cells.shape)
                columns[start:start + step, s, polarity] = cells
    return CellArrays(columns=columns.reshape(rows, -1), n_slices=n_slices,
                      scale=scale, slice_bits=slice_bits)
