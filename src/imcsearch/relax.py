"""Differentiable relaxation of the discrete design space.

Each layer's options carry a row of logits; softmax turns them into a
categorical distribution and the search optimizes the expected cost of
the induced product distribution.  Because the tile count of a layer
depends on the previous layer's channel depth, the expectation couples
adjacent layers bilinearly; under independent per-layer categoricals it
is still exact, and its gradients are available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import layer_cost_arrays
from .designspace import DesignSpace, LayerChoice, PlatformParams, enumerate_options


def softmax_probs(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Max-shifted softmax of one logit row; sums to 1 within 1e-12."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(logits, dtype=float) / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def argmax_select(logits: np.ndarray) -> int:
    """Index of the maximal logit; ties break to the lowest index."""
    return int(np.argmax(logits))


@dataclass
class LogitMatrix:
    """Per-layer logit rows (possibly ragged when option counts differ)."""

    rows: list[np.ndarray]
    temperature: float = 1.0

    def __post_init__(self) -> None:
        self.rows = [np.asarray(r, dtype=float).copy() for r in self.rows]
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        for r in self.rows:
            if r.ndim != 1 or not np.all(np.isfinite(r)):
                raise ValueError("logit rows must be finite 1-D arrays")

    @classmethod
    def _of_fresh_rows(cls, rows: list[np.ndarray],
                       temperature: float) -> "LogitMatrix":
        """Wrap rows the caller has just computed and checked, uncopied."""
        logits = cls.__new__(cls)
        logits.rows, logits.temperature = rows, temperature
        return logits

    @staticmethod
    def uniform(option_counts: list[int], temperature: float = 1.0) -> "LogitMatrix":
        return LogitMatrix([np.zeros(n) for n in option_counts], temperature)

    def probs(self) -> list[np.ndarray]:
        return [softmax_probs(r, self.temperature) for r in self.rows]

    def argmax(self) -> list[int]:
        return [argmax_select(r) for r in self.rows]

    def copy(self) -> "LogitMatrix":
        return LogitMatrix([r.copy() for r in self.rows], self.temperature)


def sgd_step(logits: LogitMatrix, grads: list[np.ndarray],
             learning_rate: float) -> LogitMatrix:
    """One SGD update: logits - learning_rate * grad.

    The updated rows are fresh arrays, so they are checked for finiteness
    in one pass and kept as they are, without the copy that building a
    ``LogitMatrix`` from outside rows makes.
    """
    if len(grads) != len(logits.rows):
        raise ValueError(f"gradient rows {len(grads)} != logit rows "
                         f"{len(logits.rows)}")
    new_rows = []
    for row, g in zip(logits.rows, grads):
        g = np.asarray(g, dtype=float)
        if g.shape != row.shape:
            raise ValueError(f"gradient shape {g.shape} != logits shape {row.shape}")
        new_rows.append(row - learning_rate * g)
    # a non-finite gradient makes its updated row non-finite
    if new_rows and not np.isfinite(np.concatenate(new_rows)).all():
        raise ValueError("logit rows must be finite 1-D arrays")
    return LogitMatrix._of_fresh_rows(new_rows, logits.temperature)


@dataclass
class CostTables:
    """Per-layer (prev-option x option) area and delay lookup tables.

    Layer 0 has a single virtual previous option (the fixed input channel
    count), so its tables have one row.
    """

    areas: list[np.ndarray]
    delays: list[np.ndarray]


def build_cost_tables(space: DesignSpace, platform: PlatformParams,
                      ap: int, ip: int) -> CostTables:
    """Precompute every (cd_in option, layer option) cost at fixed (ap, ip).

    Each layer's tables come from one broadcast call of the cost formula
    (``layer_cost_arrays``) over the previous layer's CD options and this
    layer's options; every entry equals the scalar ``layer_cost`` bit for
    bit.
    """
    areas: list[np.ndarray] = []
    delays: list[np.ndarray] = []
    prev_cds = np.array([space.input_channels])
    for layer in range(space.num_layers):
        options = enumerate_options(space, layer, phase=1)
        choices = [LayerChoice(cd_out=cd, cs=cs, at=at, ap=ap, ip=ip)
                   for cd, cs, at in options]
        a, d, _ = layer_cost_arrays(prev_cds[:, None], space.layer_shapes[layer],
                                    choices, platform)
        areas.append(a)
        delays.append(d)
        prev_cds = np.array([opt[0] for opt in options])
    return CostTables(areas=areas, delays=delays)


def _expectation_with_grad(tables: list[np.ndarray],
                           probs: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """E = sum_l p_{l-1}^T C_l p_l and its exact gradient w.r.t. each p."""
    num_layers = len(tables)
    value = 0.0
    grads = [np.zeros_like(p) for p in probs]
    for l in range(num_layers):
        c = tables[l]
        p_prev = np.ones(1) if l == 0 else probs[l - 1]
        value += float(p_prev @ c @ probs[l])
        grads[l] += c.T @ p_prev
        if l > 0:
            grads[l - 1] += c @ probs[l]
    return value, grads


def _chain_softmax(probs: list[np.ndarray], dprobs: list[np.ndarray],
                   temperature: float) -> list[np.ndarray]:
    """Pull gradients w.r.t. probabilities back through the softmax."""
    out = []
    for p, g in zip(probs, dprobs):
        out.append(p * (g - float(p @ g)) / temperature)
    return out


def expected_model_cost(logits: LogitMatrix, tables: CostTables):
    """Expected area and delay of the relaxed model, with logit gradients.

    ``tables`` come from ``build_cost_tables`` at the search's (ap, ip).
    Returns (expected_area, expected_delay, d_area/d_logits,
    d_delay/d_logits).  With one-hot probabilities the expectation equals
    the discrete candidate's cost exactly.
    """
    probs = logits.probs()
    for l, p in enumerate(probs):
        if p.shape[0] != tables.areas[l].shape[1]:
            raise ValueError(f"layer {l}: {p.shape[0]} logits for "
                             f"{tables.areas[l].shape[1]} options")
    e_area, darea_dp = _expectation_with_grad(tables.areas, probs)
    e_delay, ddelay_dp = _expectation_with_grad(tables.delays, probs)
    darea = _chain_softmax(probs, darea_dp, logits.temperature)
    ddelay = _chain_softmax(probs, ddelay_dp, logits.temperature)
    return e_area, e_delay, darea, ddelay


def phase1_loss(expected_delay: float, expected_area: float,
                area_constraint: float, lambda1: float,
                delay_ref: float) -> tuple[float, float, float]:
    """Delay-plus-area-MSE loss for phase 1.

    L1 = delay/delay_ref + lambda1 * ((area - A_C) / A_C)^2.  Both terms
    are dimensionless: delay is self-normalized by the reference and the
    area error is relative to the constraint.  Returns the loss and its
    partial derivatives w.r.t. expected delay and expected area.
    """
    if area_constraint <= 0:
        raise ValueError("area_constraint must be positive")
    if delay_ref <= 0:
        raise ValueError("delay_ref must be positive")
    rel = (expected_area - area_constraint) / area_constraint
    loss = expected_delay / delay_ref + lambda1 * rel * rel
    dloss_ddelay = 1.0 / delay_ref
    dloss_darea = 2.0 * lambda1 * rel / area_constraint
    return loss, dloss_ddelay, dloss_darea


def phase1_loss_grad(logits: LogitMatrix, tables: CostTables,
                     area_constraint: float, lambda1: float, delay_ref: float):
    """Loss value plus its full gradient w.r.t. the logits."""
    e_area, e_delay, darea, ddelay = expected_model_cost(logits, tables)
    loss, dl_ddelay, dl_darea = phase1_loss(
        e_delay, e_area, area_constraint, lambda1, delay_ref)
    grads = [dl_ddelay * gd + dl_darea * ga for gd, ga in zip(ddelay, darea)]
    return loss, e_area, e_delay, grads
