"""Crossbar-aware noisy inference and batchnorm adaptation.

Every conv/dense layer runs through the full hardware path: input
bit-serialization, positive/negative cell arrays per weight slice,
row-chunked analog column sums with device variation, ADC partial-sum
quantization, and shift-and-add recombination across slices, bit planes
and row chunks.  Everything else (batchnorm, ReLU, pooling) stays ideal.

``walk_layers`` is the one noisy layer walk: it carries the adaptation
activations, the adapted batchnorm statistics and the evaluation
activation from one quantizable layer to the next, so a walk can stop at
any quantizable layer and later walks can resume from there.  The
programmed cells of each layer can be kept across walks; phase 2
programs them once per run.

``probe_layer`` runs the quantizable layer at a cut under several
(ADC precision AP, input precision IP) options at once, and a walk
resumes from each of its per-option states.  The options of one IP share
that layer's patches, input quantization, ADC full scale and bit-plane
matmuls; only the ADC pass and the accumulation run once per AP.  Phase 2
thus walks a step's shared prefix once and runs the probed layer once per
IP for all of that IP's APs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .crossbar import CellArrays, NoiseSpec, chunk_rows, prepare_cells
from .network import BatchNorm, Conv2D, Dense, RefNet, TensorBatch, im2col
from .quantize import adc_quantize, quantize_inputs


@dataclass(frozen=True)
class AdcRange:
    """Full-scale policy for the partial-sum ADC.

    ``worst_case`` spans xbar_size * (2^slice_bits - 1), the largest sum a
    fully-on column can produce; ``calibrated`` uses the largest partial
    sum of the programmed cells, device variation included, with every
    input of a nonzero code on, observed on the evaluated batch (per
    layer), which keeps quantization steps useful on small fixtures.
    """

    mode: str = "worst_case"  # worst_case | calibrated

    def __post_init__(self) -> None:
        if self.mode not in ("worst_case", "calibrated"):
            raise ValueError(f"unknown ADC range mode {self.mode!r}")


def _noisy_matmul(cells: CellArrays, aps: tuple[int, ...], ip: int,
                  in_codes: np.ndarray, noise: NoiseSpec,
                  xbar_size: int, full_range: float) -> list[np.ndarray]:
    """Bit-serial sliced matmul of integer input codes against cell arrays.

    ``in_codes`` is the (batch, rows) integer code matrix.  Returns, for
    each ADC precision in ``aps``, the integer-valued accumulator sums
    (before weight/input scales).  Each (bit plane, row chunk) converts
    all slice and sign columns with one matmul, shared by every AP, and
    one ADC pass per AP; each AP's sums still accumulate bit plane by bit
    plane, then slice by slice, then chunk by chunk.  The work runs on
    (column, batch) arrays so that every elementwise step sweeps the
    batch in one contiguous run.
    """
    n, rows = in_codes.shape
    n_slices, cols = cells.n_slices, cells.n_cols
    chunks = chunk_rows(rows, xbar_size)
    # without ADC quantization every AP accumulates the same sums
    converts = aps if noise.quantization else (None,)
    # the low 8 bits are all that planes b < 8 read
    codes = np.ascontiguousarray(in_codes.T, dtype=np.uint8 if ip <= 8 else None)
    bits, plane = np.empty_like(codes), np.empty(codes.shape)
    accs = [np.zeros((cols, n)) for _ in converts]
    for b in range(ip):
        np.right_shift(codes, b, out=bits)
        bits &= 1
        plane[...] = bits
        # slice s of bit plane b weighs 2^(slice_bits*s + b), an exact scaling
        weight = np.array([2.0 ** (cells.slice_bits * s + b)
                           for s in range(n_slices)])[:, None, None]
        diffs = [[] for _ in converts]
        for sl in chunks:
            sums = cells.columns[sl].T @ plane[sl]
            for ap, ap_diffs in zip(converts, diffs):
                if ap is None:
                    levels, step = sums, 1.0
                else:
                    levels = adc_quantize(sums, ap, full_range)
                    step = full_range / (2 ** ap)
                # adc_dequantize and the slice weight in one in-place pass:
                # the weight is a power of two, so scaling by it before or
                # after the sign subtraction rounds the same
                levels = levels.reshape(n_slices, 2 * cols, n)
                levels *= step * weight
                ap_diffs.append(levels[:, :cols] - levels[:, cols:])
                del levels  # free these codes before the next AP's are made
        for acc, ap_diffs in zip(accs, diffs):
            for s in range(n_slices):
                for diff in ap_diffs:
                    acc += diff[s]
    outs = [np.ascontiguousarray(acc.T) for acc in accs]
    return outs if noise.quantization else outs * len(aps)


def _layer_full_range(cells: CellArrays, codes: np.ndarray, xbar_size: int,
                      slice_bits: int, adc_range: AdcRange) -> float:
    """ADC full scale of one layer evaluation (see ``AdcRange``)."""
    if adc_range.mode == "worst_case":
        return float(xbar_size * (2 ** slice_bits - 1))
    # calibrated: largest chunk partial sum of the programmed (noisy) cells
    # with every input of a nonzero code on, on this batch
    peak = 0.0
    ones = (codes > 0).astype(float)
    for sl in chunk_rows(codes.shape[1], xbar_size):
        peak = max(peak, float((ones[:, sl] @ cells.columns[sl]).max(initial=0.0)))
    return max(peak, 1.0)


def _quantized_layer_outputs(layer: Conv2D | Dense, x: np.ndarray,
                             options: list[tuple[int, int]], noise: NoiseSpec,
                             platform, adc_range: AdcRange, key: tuple[int, ...],
                             cells: dict[tuple[int, ...], CellArrays] | None = None
                             ) -> list[np.ndarray]:
    """Run one conv/dense layer through the crossbar path per (ap, ip) option.

    The patches are built once, the inputs are quantized (and the ADC full
    scale found) once per IP, and each IP's bit-plane matmuls are shared
    by all of its APs; every output equals a run of that option alone.
    ``cells`` memoizes programmed cells per key; the device variation is
    frozen per key, so a memoized entry equals a fresh one.
    """
    if isinstance(layer, Conv2D):
        cols, (oh, ow) = im2col(x, layer.kernel, layer.stride, layer.pad)
    else:
        cols, (oh, ow) = x, (1, 1)
    programmed = None if cells is None else cells.get(key)
    if programmed is None:
        w = layer.weight_matrix() if isinstance(layer, Conv2D) else layer.weight
        programmed = prepare_cells(w, noise, platform.weight_bits,
                                   platform.weight_slice_bits, key)
        if cells is not None:
            cells[key] = programmed
    # the path reads only the non-negative part of its inputs; the patches
    # themselves need not stay live through the kernel
    active = np.maximum(cols, 0.0)
    del cols
    outs = {}
    for ip in dict.fromkeys(ip for _, ip in options):
        aps = tuple(dict.fromkeys(ap for ap, i in options if i == ip))
        codes, in_scale = quantize_inputs(active, ip)
        full_range = _layer_full_range(programmed, codes, platform.xbar_size,
                                       platform.weight_slice_bits, adc_range)
        accs = _noisy_matmul(programmed, aps, ip, codes, noise,
                             platform.xbar_size, full_range)
        for ap, acc in zip(aps, accs):
            out = acc * programmed.scale * in_scale
            if isinstance(layer, Dense):
                outs[ap, ip] = out + layer.bias
            else:
                outs[ap, ip] = out.reshape(x.shape[0], oh, ow,
                                           layer.c_out).transpose(0, 3, 1, 2)
    return [outs[option] for option in options]


def _quantized_layer_output(layer: Conv2D | Dense, x: np.ndarray, ap: int,
                            ip: int, noise: NoiseSpec, platform,
                            adc_range: AdcRange, key: tuple[int, ...],
                            cells: dict[tuple[int, ...], CellArrays] | None = None):
    """``_quantized_layer_outputs`` of the one option (ap, ip)."""
    return _quantized_layer_outputs(layer, x, [(ap, ip)], noise, platform,
                                    adc_range, key, cells)[0]


def _as_array(batch: TensorBatch | np.ndarray) -> np.ndarray:
    return batch.data if isinstance(batch, TensorBatch) else np.asarray(batch, float)


@dataclass(frozen=True)
class WalkState:
    """A noisy layer walk stopped before quantizable layer ``cut``.

    ``adapt`` holds one activation per batchnorm-adaptation batch and
    ``eval`` the evaluation activation (None when only adapting).
    ``bn_stats`` maps the ``net.layers`` index of every batchnorm passed
    to its adapted (running_mean, running_var).  With ``past_cut`` set,
    the activations are already the outputs of quantizable layer ``cut``
    (see ``probe_layer``), and a walk resumes just after that layer.  A
    walk never modifies the state it starts from, so one prefix can seed
    many walks.
    """

    cut: int = 0
    adapt: tuple[np.ndarray, ...] = ()
    eval: np.ndarray | None = None
    bn_stats: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    past_cut: bool = False

    @classmethod
    def begin(cls, adapt_batches=(), eval_batch=None) -> "WalkState":
        """The state at the network input."""
        return cls(adapt=tuple(_as_array(b) for b in adapt_batches),
                   eval=None if eval_batch is None else _as_array(eval_batch))


def _quantizable_index(net: RefNet) -> list[int]:
    """``net.layers`` index of each conv/dense layer, in network order."""
    return [i for i, layer in enumerate(net.layers)
            if isinstance(layer, (Conv2D, Dense))]


def walk_layers(net: RefNet, state: WalkState, plan: list[tuple[int, int]],
                noise: NoiseSpec, platform, stop: int | None = None,
                momentum: float = 0.1, adc_range: AdcRange = AdcRange(),
                cells: dict[tuple[int, ...], CellArrays] | None = None) -> WalkState:
    """Walk quantizable layers [state.cut, stop) and the layers after each.

    ``plan`` holds one (ap, ip) pair per conv/dense layer, in network
    order; ``stop`` defaults to the end of the network.  From a state
    past its cut the walk starts just after the cut's layer, whose plan
    entry it does not read.  Conv/dense layers run every activation
    through the crossbar path.  A batchnorm normalizes each adaptation
    activation with its batch statistics while blending them into the
    running statistics with ``momentum``, then normalizes the evaluation
    activation with the blended statistics.  A walk over every layer, in
    one piece or split at any cut, thus gives exactly ``bn_adapt``
    followed by ``noisy_forward``.  ``cells`` keeps programmed cells
    across walks (see ``_quantized_layer_outputs``); without it they are
    kept for this walk only.
    """
    q_index = _quantizable_index(net)
    n = len(q_index)
    if len(plan) != n:
        raise ValueError(f"plan has {len(plan)} entries for {n} "
                         "quantizable layers")
    stop = n if stop is None else stop
    # the first quantizable layer this walk runs
    qi = state.cut + state.past_cut
    if not 0 <= qi <= stop <= n:
        raise ValueError(f"cannot walk from layer {qi} to {stop} of {n}")
    # net.layers index where a cut begins; cut 0 takes any layers before
    # the first quantizable one, a walk past a cut resumes just after its
    # layer, and a walk to cut n runs to the end
    if state.past_cut:
        lo = q_index[state.cut] + 1
    else:
        lo = 0 if state.cut == 0 else (q_index + [len(net.layers)])[state.cut]
    hi = len(net.layers) if stop == n else q_index[stop]
    cells = {} if cells is None else cells
    adapt, x_eval = list(state.adapt), state.eval
    bn_stats = dict(state.bn_stats)
    for i in range(lo, hi):
        layer = net.layers[i]
        if isinstance(layer, BatchNorm):
            mean_r, var_r = bn_stats.get(i, (layer.running_mean,
                                             layer.running_var))
            for k, x in enumerate(adapt):
                mean, var = layer.batch_stats(x)
                # BatchNorm.update_running, applied to the walk's copy
                mean_r = (1 - momentum) * mean_r + momentum * mean
                var_r = (1 - momentum) * var_r + momentum * var
                adapt[k] = layer.normalize(x, mean, var)
            bn_stats[i] = (mean_r, var_r)
            if x_eval is not None:
                x_eval = layer.normalize(x_eval, mean_r, var_r)
            continue
        if isinstance(layer, (Conv2D, Dense)):
            ap, ip = plan[qi]
            run = partial(_quantized_layer_output, layer, ap=ap, ip=ip,
                          noise=noise, platform=platform, adc_range=adc_range,
                          key=(qi,), cells=cells)
            qi += 1
        else:
            run = partial(layer.forward, train=False)
        adapt = [run(x) for x in adapt]
        if x_eval is not None:
            x_eval = run(x_eval)
    return WalkState(cut=stop, adapt=tuple(adapt), eval=x_eval,
                     bn_stats=bn_stats)


def probe_layer(net: RefNet, state: WalkState, options: list[tuple[int, int]],
                noise: NoiseSpec, platform, adc_range: AdcRange = AdcRange(),
                cells: dict[tuple[int, ...], CellArrays] | None = None
                ) -> list[WalkState]:
    """Run quantizable layer ``state.cut`` once for several (ap, ip) options.

    Returns one state per option, past that layer, from which
    ``walk_layers`` resumes with the option in the cut's plan entry; each
    walk equals one that ran the layer itself.  Every activation goes
    through ``_quantized_layer_outputs``, so the layer's patches are built
    once and its input quantization and matmuls run once per IP.
    """
    q_index = _quantizable_index(net)
    if state.past_cut or not 0 <= state.cut < len(q_index):
        raise ValueError(f"no quantizable layer to probe at cut {state.cut}")
    run = partial(_quantized_layer_outputs, net.layers[q_index[state.cut]],
                  options=options, noise=noise, platform=platform,
                  adc_range=adc_range, key=(state.cut,), cells=cells)
    adapt = [run(x) for x in state.adapt]
    x_eval = None if state.eval is None else run(state.eval)
    return [replace(state, past_cut=True, adapt=tuple(outs[k] for outs in adapt),
                    eval=None if x_eval is None else x_eval[k])
            for k in range(len(options))]


def noisy_forward(net: RefNet, batch: TensorBatch | np.ndarray,
                  plan: list[tuple[int, int]], noise: NoiseSpec,
                  platform, adc_range: AdcRange = AdcRange()) -> np.ndarray:
    """Forward pass with per-layer (ap, ip) quantization and device noise.

    ``plan`` holds one (ap, ip) pair per conv/dense layer, in network
    order.  The raw input is clipped at zero before bit-serialization
    (fixture data is non-negative by construction).
    """
    return walk_layers(net, WalkState.begin(eval_batch=batch), plan, noise,
                       platform, adc_range=adc_range).eval


def bn_adapt(net: RefNet, batches: list[TensorBatch], plan: list[tuple[int, int]],
             noise: NoiseSpec, platform, momentum: float = 0.1,
             adc_range: AdcRange = AdcRange()) -> RefNet:
    """Recompute batchnorm running statistics under the noisy forward path.

    Returns an adapted copy; weights and every non-batchnorm parameter are
    untouched.  During adaptation each batchnorm normalizes with its batch
    statistics (the usual training behavior) while the running mean and
    variance blend in with ``momentum``.
    """
    if not batches:
        raise ValueError("bn_adapt needs at least one batch")
    adapted = net.clone()
    state = walk_layers(adapted, WalkState.begin(adapt_batches=batches), plan,
                        noise, platform, momentum=momentum, adc_range=adc_range)
    for i, (mean, var) in state.bn_stats.items():
        adapted.layers[i].running_mean = mean
        adapted.layers[i].running_var = var
    return adapted
