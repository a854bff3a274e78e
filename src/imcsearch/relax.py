"""Differentiable relaxation of the discrete design space.

Each layer's options carry logits; softmax turns them into a categorical
distribution and the search optimizes the expected cost of the induced
product distribution.  Because the tile count of a layer depends on the
previous layer's channel depth, the expectation couples adjacent layers
bilinearly; under independent per-layer categoricals it is still exact,
and its gradients are available in closed form.

The state is stacked over layers, so a step is a fixed number of array
operations: the same stacked products whatever the layer count, with
each stage's arithmetic done in place on one fresh array of its own.
Inputs are never written.  With K the largest option count, the logits
are one ``(L, K)`` array and the cost tables one ``(2, L, K, K)`` array.  A
layer with fewer options is padded: its padded logits are -inf, so their
probability and gradient are exactly 0 and ``argmax`` never picks them,
and its padded table entries are 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costmodel import layer_cost_arrays
from .designspace import DesignSpace, LayerChoice, PlatformParams, enumerate_options


@dataclass
class LogitMatrix:
    """Every layer's option logits, as one padded ``(L, K)`` array.

    Row ``l`` of ``values`` holds layer ``l``'s ``counts[l]`` logits,
    then -inf up to K, the largest count.  ``from_rows`` and ``uniform``
    check and pad their rows; the constructor wraps a stack as it is.
    """

    values: np.ndarray
    counts: tuple[int, ...]
    temperature: float = 1.0

    @classmethod
    def from_rows(cls, rows: list[np.ndarray],
                  temperature: float = 1.0) -> "LogitMatrix":
        if not (math.isfinite(temperature) and temperature > 0):
            raise ValueError(f"temperature must be positive and finite, got "
                             f"{temperature}")
        rows = [np.asarray(r, dtype=float) for r in rows]
        if not rows or any(r.ndim != 1 or not r.size or not np.isfinite(r).all()
                           for r in rows):
            raise ValueError("logit rows must be finite, non-empty 1-D arrays")
        counts = tuple(r.size for r in rows)
        values = np.full((len(rows), max(counts)), -np.inf)
        for l, r in enumerate(rows):
            values[l, :r.size] = r
        return cls(values, counts, temperature)

    @classmethod
    def uniform(cls, option_counts: tuple[int, ...] | list[int],
                temperature: float = 1.0) -> "LogitMatrix":
        return cls.from_rows([np.zeros(n) for n in option_counts], temperature)

    def probs(self) -> np.ndarray:
        """Max-shifted softmax of each row, ``(L, K)``; each row sums to 1.

        One fresh array is shifted, exponentiated and normalized in place.
        """
        p = self.values / self.temperature
        p -= np.maximum.reduce(p, axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=1, keepdims=True)
        return p

    def argmax(self) -> np.ndarray:
        """Each layer's maximal-logit option; ties break to the lowest index."""
        return self.values.argmax(axis=1)


def sgd_step(logits: LogitMatrix, grads: np.ndarray,
             learning_rate: float) -> LogitMatrix:
    """One SGD update of the whole stack: logits - learning_rate * grads.

    ``grads`` has the logits' ``(L, K)`` shape.  The update owns a fresh
    stack; neither input is changed.  A non-finite updated logit raises
    FloatingPointError.
    """
    grads = np.asarray(grads, dtype=float)
    if grads.shape != logits.values.shape:
        raise ValueError(f"gradient shape {grads.shape} != logits shape "
                         f"{logits.values.shape}")
    values = grads * learning_rate
    np.subtract(logits.values, values, out=values)
    # padding stays non-finite, so a short finite count means a bad real logit
    if np.count_nonzero(np.isfinite(values)) != sum(logits.counts):
        raise FloatingPointError("SGD step made a logit non-finite")
    return LogitMatrix(values, logits.counts, logits.temperature)


@dataclass
class CostTables:
    """Every layer's (previous option x option) area and delay, stacked.

    ``costs`` is ``(2, L, K, K)``: ``costs[0, l, i, j]`` is layer ``l``'s
    area at option ``j`` after previous-layer option ``i``; ``costs[1]``
    holds delays.  Layer 0's one previous option is the fixed input channel
    count, so only its row 0 is real, and that row is layer 0's whole term
    of the expectation.  Entries past the counts are 0.
    """

    costs: np.ndarray
    counts: tuple[int, ...]


def build_cost_tables(space: DesignSpace, platform: PlatformParams,
                      ap: int, ip: int) -> CostTables:
    """Precompute every (cd_in option, layer option) cost at fixed (ap, ip).

    Each layer's tables come from one broadcast call of the cost formula
    (``layer_cost_arrays``) over the previous layer's CD options and this
    layer's options; every entry equals the scalar ``layer_cost`` bit for
    bit.
    """
    options = [enumerate_options(space, l, phase=1)
               for l in range(space.num_layers)]
    counts = tuple(len(o) for o in options)
    costs = np.zeros((2, len(counts), max(counts), max(counts)))
    prev_cds = np.array([space.input_channels])
    for l, layer_options in enumerate(options):
        choices = [LayerChoice(cd_out=cd, cs=cs, at=at, ap=ap, ip=ip)
                   for cd, cs, at in layer_options]
        a, d, _ = layer_cost_arrays(prev_cds[:, None], space.layer_shapes[l],
                                    choices, platform)
        costs[:, l, :len(prev_cds), :len(choices)] = a, d
        prev_cds = np.array([cd for cd, _, _ in layer_options])
    return CostTables(costs=costs, counts=counts)


def _expectation_with_grad(costs: np.ndarray,
                           probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E = sum_l p_{l-1}^T C_l p_l per table, and its exact gradient.

    ``costs`` is ``(M, L, K, K)`` and ``probs`` ``(L, K)``; layer 0's
    previous probabilities are the one-hot e_0.  Returns the ``(M,)``
    expectations and their ``(M, L, K)`` gradients w.r.t. the
    probabilities, p_{l-1}^T C_l + C_{l+1} p_{l+1} for layer l.

    Layer 0's row e_0^T C_0 is the table's row 0 itself, bit for bit: the
    product's other terms are exact zeros times finite, non-negative costs.
    Its column product C_0 p_0 has no previous layer to feed, so it is
    not formed.
    """
    row = np.empty(costs.shape[:2] + (1, costs.shape[3]))  # p_{l-1}^T C_l
    row[:, 0, 0] = costs[:, 0, 0]
    np.matmul(probs[:-1, None, :], costs[:, 1:], out=row[:, 1:])
    col = costs[:, 1:] @ probs[1:, :, None]  # (M, L-1, K, 1): C_l p_l, l >= 1
    value = np.add.reduce(row @ probs[:, :, None], axis=(1, 2, 3))
    grads = row[:, :, 0]
    grads[:, :-1] += col[..., 0]
    return value, grads


def _chain_softmax(probs: np.ndarray, dprobs: np.ndarray,
                   temperature: float) -> np.ndarray:
    """Pull ``(..., L, K)`` probability gradients back through each softmax.

    Returns a fresh array; ``probs`` and ``dprobs`` are left as they are.
    """
    inner = probs[:, None, :] @ dprobs[..., None]  # (..., L, 1, 1): p_l . g_l
    grads = dprobs - inner[..., 0]
    grads *= probs
    grads /= temperature
    return grads


def expected_model_cost(logits: LogitMatrix, tables: CostTables):
    """Expected area and delay of the relaxed model, with logit gradients.

    ``tables`` come from ``build_cost_tables`` at the search's (ap, ip),
    and ``logits`` have their option counts.  Returns (expected_area,
    expected_delay, d_area/d_logits, d_delay/d_logits); each gradient is
    ``(L, K)`` like ``logits.values`` and 0 at the padding.  With one-hot
    probabilities the expectation equals the discrete candidate's cost.
    """
    if logits.counts != tables.counts:
        raise ValueError(f"logit option counts {logits.counts} != cost "
                         f"table option counts {tables.counts}")
    probs = logits.probs()
    (e_area, e_delay), dprobs = _expectation_with_grad(tables.costs, probs)
    darea, ddelay = _chain_softmax(probs, dprobs, logits.temperature)
    return float(e_area), float(e_delay), darea, ddelay


def phase1_loss(expected_delay: float, expected_area: float,
                area_constraint: float, lambda1: float,
                delay_ref: float) -> tuple[float, float, float]:
    """Delay-plus-area-MSE loss for phase 1.

    L1 = delay/delay_ref + lambda1 * ((area - A_C) / A_C)^2.  Both terms
    are dimensionless: delay is self-normalized by the reference and the
    area error is relative to the constraint.  Returns the loss and its
    partial derivatives w.r.t. expected delay and expected area; raises
    FloatingPointError when the loss or its area derivative overflows.
    """
    if area_constraint <= 0:
        raise ValueError("area_constraint must be positive")
    if delay_ref <= 0:
        raise ValueError("delay_ref must be positive")
    rel = (expected_area - area_constraint) / area_constraint
    loss = expected_delay / delay_ref + lambda1 * rel * rel
    dloss_ddelay = 1.0 / delay_ref
    dloss_darea = 2.0 * lambda1 * rel / area_constraint
    if not (math.isfinite(loss) and math.isfinite(dloss_darea)):
        raise FloatingPointError(f"phase-1 loss or its area derivative is not "
                                 f"finite at area_constraint {area_constraint}")
    return loss, dloss_ddelay, dloss_darea


def phase1_loss_grad(logits: LogitMatrix, tables: CostTables,
                     area_constraint: float, lambda1: float, delay_ref: float):
    """Loss value plus its full ``(L, K)`` gradient w.r.t. the logits."""
    e_area, e_delay, darea, ddelay = expected_model_cost(logits, tables)
    loss, dl_ddelay, dl_darea = phase1_loss(
        e_delay, e_area, area_constraint, lambda1, delay_ref)
    # both are this call's own arrays: combine them in place
    ddelay *= dl_ddelay
    darea *= dl_darea
    ddelay += darea
    return loss, e_area, e_delay, ddelay
