"""Crossbar cell programming with device-variation noise.

Cells hold unsigned slice values; signed weights map onto a positive and
a negative column set that are converted separately and subtracted after
the ADC.  Device variation multiplies every cell by N(1, sigma/mu); with
a pinned seed the draw is frozen per (seed, key), which models one
programmed chip instance reused across forward passes.  Phase 2 therefore
programs each layer's cells once per run and reuses them for every probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseSpec:
    """Noise-source switches for crossbar inference."""

    sigma_over_mu: float = 0.20
    rng_seed: int | None = None
    quantization: bool = True
    variation: bool = True

    def __post_init__(self) -> None:
        if self.sigma_over_mu < 0:
            raise ValueError("sigma_over_mu must be >= 0")

    def multipliers(self, shape: tuple[int, ...],
                    key: tuple[int, ...] = (0,)) -> np.ndarray | None:
        """Per-cell conductance multipliers, or None when variation is off.

        With a seed set, the same (seed, key) always yields the same
        draw; without one, every call resamples.
        """
        if not self.variation or self.sigma_over_mu == 0:
            return None
        if self.rng_seed is None:
            rng = np.random.default_rng()
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(self.rng_seed, spawn_key=tuple(key)))
        return 1.0 + self.sigma_over_mu * rng.standard_normal(shape)


#: Noiseless, quantization-free spec for ideal-path checks.
IDEAL_NOISE = NoiseSpec(sigma_over_mu=0.0, rng_seed=0,
                        quantization=False, variation=False)


def chunk_rows(n_rows: int, xbar_size: int) -> list[slice]:
    if xbar_size < 1:
        raise ValueError("xbar_size must be >= 1")
    return [slice(r, min(r + xbar_size, n_rows))
            for r in range(0, n_rows, xbar_size)]


@dataclass(frozen=True)
class CellArrays:
    """Signed weight matrix programmed onto crossbar cells.

    ``columns`` is (rows, slices * 2 * cols): for each weight slice, least
    significant first, its positive cell columns followed by its negative
    ones.  One matmul of an input bit plane against it thus yields every
    slice and sign polarity at once.
    """

    columns: np.ndarray
    n_slices: int
    scale: float = 1.0
    slice_bits: int = 4

    @property
    def n_cols(self) -> int:
        return self.columns.shape[1] // (2 * self.n_slices)

    def _split(self) -> np.ndarray:
        return self.columns.reshape(-1, self.n_slices, 2, self.n_cols)

    @property
    def pos_effective(self) -> list[np.ndarray]:
        return [self._split()[:, s, 0] for s in range(self.n_slices)]

    @property
    def neg_effective(self) -> list[np.ndarray]:
        return [self._split()[:, s, 1] for s in range(self.n_slices)]


def prepare_cells(weight_matrix: np.ndarray, noise: NoiseSpec,
                  weight_bits: int, slice_bits: int,
                  key: tuple[int, ...] = (0,)) -> CellArrays:
    """Quantize, slice and (optionally) perturb a (rows, cols) weight matrix.

    The variation multiplier is drawn once per slice and sign polarity and
    reused for every bit plane and row chunk, matching cells that are
    programmed once per inference run.
    """
    from .quantize import quantize_slice_weights

    sliced = quantize_slice_weights(weight_matrix, weight_bits, slice_bits)
    pos_mask = (sliced.sign > 0)
    neg_mask = (sliced.sign < 0)
    rows, cols = sliced.sign.shape
    n_slices = len(sliced.slices)
    columns = np.empty((rows, n_slices, 2, cols))
    for s, sl in enumerate(sliced.slices):
        for polarity, mask in enumerate((pos_mask, neg_mask)):
            cells = np.where(mask, sl, 0).astype(float)
            mult = noise.multipliers(cells.shape, key + (s, polarity))
            columns[:, s, polarity] = cells if mult is None else cells * mult
    return CellArrays(columns=columns.reshape(rows, -1), n_slices=n_slices,
                      scale=sliced.scale, slice_bits=slice_bits)
