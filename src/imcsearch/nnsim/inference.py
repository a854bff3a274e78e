"""Crossbar-aware noisy inference and batchnorm adaptation.

Every conv/dense layer runs through the full hardware path: input
bit-serialization, positive/negative cell arrays per weight slice,
row-chunked analog column sums with device variation, ADC partial-sum
quantization, and shift-and-add recombination across slices, bit planes
and row chunks.  Everything else (batchnorm, ReLU, pooling) stays ideal.
As on the chip, cells and column sums are analog (float32) and the ADC
always converts; its codes shift and add exactly, so only their one
scaling per AP rounds.  The one kernel is ``_noisy_matmul``.

A walk keeps its activations' float dtype end to end: phase 2 walks in
float32, ``noisy_forward`` and ``bn_adapt`` in float64.  Batchnorm, ReLU,
pooling, the ``im2col`` patches and the input-quantization levels run in
that dtype.  Cells, weight codes, calibration and the kernel do not depend
on it: a layer's uint8 input codes go through the same float32 analog
sums and exact integer shift-and-add, its output is scaled in float64 and
then cast to the activation's dtype.

``walk_layers`` is the one noisy layer walk: it carries the adaptation
activations, the adapted batchnorm statistics and the evaluation
activation from ``net.layers`` index ``WalkState.at`` on, so a walk can
stop before any quantizable layer and later walks can resume from there.
The programmed cells of each layer can be kept across walks; phase 2
programs them once per run.

A walk calibrates each conv/dense layer once, on its adaptation
activations (on its evaluation activation only when it has none): the
input scale maps their largest value to the top input code, and the ADC
full range is the largest partial sum the cells give on their codes.
Every activation is quantized with both, so a sample's output does not
depend on its batch-mates.

A layer runs under one input precision IP and a tuple of ADC precisions
APs at once: its patches, input codes, calibration and bit-plane matmuls
are shared, and only the ADC pass and the accumulation run once per AP.
``probe_layer`` runs the layer a state stopped at this way, and a walk
resumes from each of its per-AP states; phase 2 thus walks a step's
shared prefix once and runs the probed layer once per IP.

A layer's working arrays (padded input, patches and input levels, input
codes, bit planes, analog sums, accumulators, ADC levels and codes) are
views of a ``work`` dict of role-keyed byte buffers (``_scratch``), which
the same ufuncs and BLAS calls write into with ``out=``, so outputs do
not depend on them.  A role's buffer grows to its largest request.
Phase 2 keeps one dict for a run, so its walks allocate each role's
buffer once, in the first step that asks for its largest size, and
reuse it after that; nothing keeps the buffers across runs.  Without a
dict, each layer call allocates its own.  Each view has the memory
layout of the array it is computed from (a conv layer's codes are in
``im2col``'s transposed layout): a ufunc that writes across layouts
transposes as it goes and was several times slower.  Roles whose
lifetimes do not overlap share a buffer: the levels are written over the
patches, the calibration's on-matrix and the kernel's float32 bit plane
take the patch buffer once the codes exist, and the calibration's
products take the analog sums' buffer.  Layer outputs are always fresh,
since the ``WalkState``s keep them.

The kernel and the calibration run over blocks of ``PATCH_BLOCK`` patch
columns, so the bit planes, float32 plane, analog sums, ADC levels and
codes, accumulators and the calibration's on-matrix and products hold
one block, whatever the batch.  The padded input, the patches and input
levels, each activation's codes and the layer outputs still grow with
the batch.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np

from .crossbar import CellArrays, NoiseSpec, chunk_rows, prepare_cells
from .network import (BatchNorm, Conv2D, Dense, RefNet, TensorBatch,
                      conv_out_size, im2col)
from .quantize import adc_quantize, quantize_inputs


@dataclass(frozen=True)
class AdcRange:
    """The partial-sum ADC's full scale: calibrated on a walk's adaptation
    codes, the one policy.  The class stays only while
    ``perfbench/workloads.py`` passes ``AdcRange("calibrated")`` to
    ``search.phase2_run``."""

    mode: str = "calibrated"

    def __post_init__(self) -> None:
        if self.mode != "calibrated":
            raise ValueError(f"unknown ADC range mode {self.mode!r}")


def _scratch(work: dict, role, shape: tuple[int, ...], dtype,
             transposed: bool = False) -> np.ndarray:
    """A view of ``work[role]`` as an array of ``shape`` and ``dtype``.

    The view is C-ordered, or with ``transposed`` the transpose of a
    C-ordered array, which is ``im2col``'s patch layout.  A role's buffer
    is flat bytes that grow to the largest request and are otherwise
    reused, so one buffer serves every shape and dtype of its role.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = work.get(role)
    if buf is None or buf.size < nbytes:
        buf = work[role] = np.empty(nbytes, np.uint8)
    if transposed:
        return np.ndarray(shape[::-1], dtype, buf).T
    return np.ndarray(shape, dtype, buf)


#: Patch columns per block of the crossbar kernel and of its calibration.
#: The bit planes, float32 plane, analog sums, ADC levels and codes,
#: accumulators and the calibration's on-matrix and products hold one
#: block, whatever the batch.  On a VGG-like layer (576 rows, 256 cell
#: columns, 8192 patch columns, IP 8, APs 5 and 6; one BLAS thread) a call
#: took 0.66, 0.73, 0.88 and 1.38 s with blocks of 512, 1024, 2048 and 4096
#: columns; on ``phase2_toy`` (up to 4096 columns a call) 512-column blocks
#: ran about 10% slower than 1024 or 2048.
PATCH_BLOCK = 1024


def _column_blocks(n: int) -> list[slice]:
    """Consecutive ``PATCH_BLOCK``-column slices that cover ``n`` patch
    columns.  A 1-column remainder joins the block before it: a one-column
    product takes BLAS's matrix-vector path, which rounds differently."""
    starts = list(range(0, n, PATCH_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _noisy_matmul(cells: CellArrays, aps: tuple[int, ...], ip: int,
                  in_codes: np.ndarray, xbar_size: int, full_range: float,
                  work: dict | None = None, scales: tuple[float, ...] = (),
                  bias: np.ndarray | None = None,
                  dtype=np.float64) -> list[np.ndarray]:
    """Bit-serial sliced matmul of integer input codes against cell arrays.

    ``in_codes`` is the (batch, rows) uint8 code matrix, whatever dtype
    the activations it codes were in.  Returns, for each ADC precision in
    ``aps``, the (batch, cols) sums in ``dtype``: the float64 sums are
    multiplied by each of ``scales`` in turn, ``bias`` is added, and the
    result is cast.  With the defaults they are the float64 sums before
    the weight and input scales.  The analog half runs in float32: each
    (bit plane, row chunk) is one float32 matmul of a 0/1 plane against
    all slice and sign columns, shared by every AP, and one ADC pass per
    AP gives its integer codes.  The digital half is an exact
    shift-and-add: each AP's codes accumulate in one int32 array, most
    significant plane first, doubling between planes; slices and signs
    then combine exactly in float64, and the result scales by the ADC step
    once.  The work runs on (column, batch) arrays so that every
    elementwise step sweeps the batch in one contiguous run.

    The batch runs in blocks of ``PATCH_BLOCK`` columns (``_column_blocks``),
    each through the whole plane, chunk and AP loop and its output scaling,
    so the working set is one block's whatever the batch.  Blocking keeps
    every output bit for bit only while the BLAS sgemm gives a column the
    same sums whatever the column count; the kernels tried do for two
    columns or more, and a 1-column remainder joins the block before it,
    since one column takes the matrix-vector path.

    The bit planes, accumulators, analog sums and ADC levels and codes
    are ``work`` buffers (see ``_scratch``); the ADC codes are int32, so
    that adding them into the accumulators is a same-type add.  The float32
    plane takes the ``"patches"`` buffer, which the caller no longer needs
    once the codes exist.  Without ``work`` they are allocated for this
    call.  The outputs are fresh.
    """
    work = {} if work is None else work
    n, rows = in_codes.shape
    n_slices, cols = cells.n_slices, cells.n_cols
    chunks = chunk_rows(rows, xbar_size)
    # the largest sum of one column's codes over every plane and chunk
    top = len(chunks) * (2 ** max(aps) - 1) * (2 ** ip - 1)
    if top > np.iinfo(np.int32).max:
        raise ValueError(f"{len(chunks)} row chunks at AP {max(aps)} and "
                         f"IP {ip} can overflow the int32 accumulator")
    # a conv layer's codes keep im2col's transposed layout, so this copies
    # only a dense layer's
    codes = np.ascontiguousarray(in_codes.T)
    # slice s weighs 2^(slice_bits*s); on integer codes every sum is exact
    weight = 2.0 ** (cells.slice_bits * np.arange(n_slices))[:, None, None]
    outs = [np.empty((n, cols), dtype) for _ in aps]
    for blk in _column_blocks(n):
        width = blk.stop - blk.start
        bits = _scratch(work, "bits", (rows, width), codes.dtype)
        plane = _scratch(work, "patches", (rows, width), np.float32)
        sums_shape = (n_slices * 2 * cols, width)
        sums = _scratch(work, "sums", sums_shape, np.float32)
        adc = {"levels": _scratch(work, "adc_levels", sums_shape, np.float32),
               "out": _scratch(work, "adc_codes", sums_shape, np.int32)}
        accs = _scratch(work, "accs", (len(aps),) + sums_shape, np.int32)
        accs.fill(0)
        for b in reversed(range(ip)):
            np.right_shift(codes[:, blk], b, out=bits)
            bits &= 1
            plane[...] = bits
            accs += accs  # Horner: each plane weighs twice the next one
            for sl in chunks:
                np.matmul(cells.columns[sl].T, plane[sl], out=sums)
                for ap, acc in zip(aps, accs):
                    acc += adc_quantize(sums, ap, full_range, **adc)
        for ap, acc, out in zip(aps, accs, outs):
            signed = acc.reshape(n_slices, 2, cols, width)
            total = ((signed[:, 0] - signed[:, 1]) * weight).sum(axis=0)
            total *= full_range / 2 ** ap
            for scale in scales:
                total *= scale
            if bias is not None:
                total += bias[:, None]
            out[blk] = total.T
    return outs


def _quantized_layer_outputs(layer: Conv2D | Dense, adapt: list[np.ndarray],
                             x_eval: np.ndarray | None, ip: int,
                             aps: tuple[int, ...], noise: NoiseSpec, platform,
                             key: tuple[int, ...],
                             cells: dict[tuple[int, ...], CellArrays],
                             work: dict | None = None
                             ) -> tuple[list[list[np.ndarray]], list | None]:
    """Run one conv/dense layer on a walk's activations, one output per AP.

    Returns the per-AP outputs of each of ``adapt`` and of ``x_eval``
    (None without it); an activation whose max is NaN or infinite raises
    a ``FloatingPointError`` instead of being coded.  The calibration set
    is ``adapt``, or ``x_eval`` when that is empty: its largest input
    maps to code 2^ip - 1, and the ADC full range is the largest chunk
    partial sum of the programmed (noisy) cells with every input of a
    nonzero code on.  Each activation's patches and codes are made once
    and its matmuls shared by all of ``aps``; every output equals a run of
    that AP alone.  Patches and input levels are in each activation's
    dtype, negative inputs take code 0, and each output is cast to its
    activation's dtype after the float64 scaling (and a dense layer's
    bias), which ``_noisy_matmul`` runs block by block into the output.
    ``cells`` memoizes programmed cells per key; the device variation is
    frozen per key, so a memoized entry equals a fresh one.

    The padded input, the patches (with the input levels written over
    them), each activation's codes and the calibration's on-matrix and
    products are ``work`` buffers (see ``_scratch``), as are the kernel's;
    only the outputs are fresh.  The calibration takes its maximum over
    the kernel's blocks of patch columns, so its on-matrix and products
    hold one block.  Without ``work`` the buffers are allocated for this
    call.
    """
    work = {} if work is None else work
    programmed = cells.get(key)
    if programmed is None:
        w = layer.weight_matrix() if isinstance(layer, Conv2D) else layer.weight
        programmed = cells[key] = prepare_cells(
            w, noise, platform.weight_bits, platform.weight_slice_bits, key)
    xs = list(adapt) + ([] if x_eval is None else [x_eval])
    maxima = [float(x.max(initial=0.0)) for x in xs]
    if not all(map(math.isfinite, maxima)):
        raise FloatingPointError(f"quantizable layer {key[0]}: input "
                                 f"activation maxima {maxima}")
    calibration = slice(len(adapt) or len(xs))
    amax = max(maxima[calibration], default=0.0)
    conv = isinstance(layer, Conv2D)
    coded = []  # (codes, batch, out height, out width, dtype) per activation
    for j, x in enumerate(xs):
        n = x.shape[0]
        if conv:
            _, c_in, h, w = x.shape
            k, s, p = layer.kernel, layer.stride, layer.pad
            oh, ow = (conv_out_size(d, k, s, p) for d in (h, w))
            cols, _ = im2col(
                x, k, s, p,
                out=_scratch(work, "patches", (n * oh * ow, c_in * k * k),
                             x.dtype, transposed=True),
                padded=_scratch(work, "padded", (c_in, n, h + 2 * p, w + 2 * p),
                                x.dtype) if p else None)
            levels = cols
        else:
            cols, oh, ow = x, 1, 1
            levels = _scratch(work, "patches", x.shape, x.dtype)
        # negative inputs take code 0: the path reads only their
        # non-negative part
        c, in_scale = quantize_inputs(
            cols, ip, amax, levels=levels,
            out=_scratch(work, ("codes", j), cols.shape, np.uint8, transposed=conv))
        coded.append((c, n, oh, ow, x.dtype))
    full_range = 1.0
    for c, *_ in coded[calibration]:
        rows = c.shape[1]
        for blk in _column_blocks(len(c)):
            # in the codes' layout: a transposing comparison is several
            # times slower
            on = _scratch(work, "patches", (blk.stop - blk.start, rows),
                          np.float32, transposed=conv)
            np.greater(c[blk], 0, out=on)
            products = _scratch(work, "sums", (len(on), programmed.columns.shape[1]),
                                np.float32)
            for sl in chunk_rows(rows, platform.xbar_size):
                np.matmul(on[:, sl], programmed.columns[sl], out=products)
                full_range = max(full_range, float(products.max(initial=0.0)))
    outs = []
    for c, n, oh, ow, dtype in coded:
        layer_outs = _noisy_matmul(
            programmed, aps, ip, c, platform.xbar_size, full_range, work,
            scales=(programmed.scale, in_scale),
            bias=None if conv else layer.bias, dtype=dtype)
        if conv:
            layer_outs = [out.reshape(n, oh, ow, layer.c_out).transpose(0, 3, 1, 2)
                          for out in layer_outs]
        outs.append(layer_outs)
    return outs[:len(adapt)], (None if x_eval is None else outs[-1])


def _as_array(batch: TensorBatch | np.ndarray) -> np.ndarray:
    """A batch's values in their own float dtype; other values in float64."""
    x = batch.data if isinstance(batch, TensorBatch) else np.asarray(batch)
    return x if x.dtype.kind == "f" else x.astype(float)


@dataclass(frozen=True)
class WalkState:
    """A noisy layer walk stopped before ``net.layers`` index ``at``.

    ``adapt`` holds one activation per batchnorm-adaptation batch and
    ``eval`` the evaluation activation (None when only adapting); both are
    the inputs of layer ``at``.  ``bn_stats`` maps the ``net.layers``
    index of every batchnorm passed to its adapted (running_mean,
    running_var).  A walk never modifies the state it starts from, so one
    prefix can seed many walks.
    """

    at: int = 0
    adapt: tuple[np.ndarray, ...] = ()
    eval: np.ndarray | None = None
    bn_stats: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def begin(cls, adapt_batches=(), eval_batch=None) -> "WalkState":
        """The state at the network input.  Float batches keep their
        dtype, which the walk then keeps; other values become float64."""
        return cls(adapt=tuple(_as_array(b) for b in adapt_batches),
                   eval=None if eval_batch is None else _as_array(eval_batch))


def _quantizable_index(net: RefNet) -> list[int]:
    """``net.layers`` index of each conv/dense layer, in network order."""
    return [i for i, layer in enumerate(net.layers)
            if isinstance(layer, (Conv2D, Dense))]


def walk_layers(net: RefNet, state: WalkState, plan: list[tuple[int, int]],
                noise: NoiseSpec, platform, stop: int | None = None,
                momentum: float = 0.1,
                cells: dict[tuple[int, ...], CellArrays] | None = None,
                work: dict | None = None) -> WalkState:
    """Walk ``net.layers`` from ``state.at`` to quantizable layer ``stop``.

    ``plan`` holds one (ap, ip) pair per conv/dense layer, in network
    order; ``stop`` counts those layers and defaults to their number n, the
    end of the network.  The walk returns a state at ``stop``'s
    ``net.layers`` index.  Conv/dense layers run every activation through
    the crossbar path, ``_quantized_layer_outputs`` with the layer's one
    plan option, calibrated on the walk's adaptation activations.  A
    batchnorm normalizes each adaptation activation with its batch
    statistics while blending them into the running statistics with
    ``momentum``, then normalizes the evaluation activation with the
    blended statistics.  A walk thus gives the same result in one piece
    or split at any layer.  ``cells`` keeps programmed cells across walks
    (see ``_quantized_layer_outputs``); without it, for this walk only.
    ``work`` keeps the layers' working arrays across walks (see the module
    docstring); without it, each layer call allocates its own.
    """
    q_index = _quantizable_index(net)
    n = len(q_index)
    if len(plan) != n:
        raise ValueError(f"plan has {len(plan)} entries for {n} "
                         "quantizable layers")
    stop = n if stop is None else stop
    # net.layers index where each quantizable layer's walk stops, then the end
    ends = q_index + [len(net.layers)]
    if not (0 <= stop <= n and 0 <= state.at <= ends[stop]):
        raise ValueError(f"cannot walk from layer {state.at} to quantizable "
                         f"layer {stop} of {n}")
    hi = ends[stop]
    # plan index of the first quantizable layer this walk runs
    qi = bisect_left(q_index, state.at)
    cells = {} if cells is None else cells
    adapt, x_eval = list(state.adapt), state.eval
    bn_stats = dict(state.bn_stats)
    for i in range(state.at, hi):
        layer = net.layers[i]
        if isinstance(layer, BatchNorm):
            mean_r, var_r = bn_stats.get(i, (layer.running_mean,
                                             layer.running_var))
            for k, x in enumerate(adapt):
                mean, var = layer.batch_stats(x)
                mean_r = layer.blend(mean_r, mean, momentum)
                var_r = layer.blend(var_r, var, momentum)
                adapt[k] = layer.normalize(x, mean, var)
            bn_stats[i] = (mean_r, var_r)
            if x_eval is not None:
                x_eval = layer.normalize(x_eval, mean_r, var_r)
            continue
        if isinstance(layer, (Conv2D, Dense)):
            ap, ip = plan[qi]
            outs, eval_outs = _quantized_layer_outputs(
                layer, adapt, x_eval, ip, (ap,), noise, platform, (qi,), cells,
                work)
            qi += 1
            adapt = [out for out, in outs]
            x_eval = None if eval_outs is None else eval_outs[0]
        else:
            adapt = [layer.forward(x) for x in adapt]
            x_eval = None if x_eval is None else layer.forward(x_eval)
    return WalkState(at=hi, adapt=tuple(adapt), eval=x_eval, bn_stats=bn_stats)


def probe_layer(net: RefNet, state: WalkState, ip: int, aps: tuple[int, ...],
                noise: NoiseSpec, platform,
                cells: dict[tuple[int, ...], CellArrays] | None = None,
                work: dict | None = None) -> list[WalkState]:
    """Run the quantizable layer at ``state.at`` once for one IP and its APs.

    Returns one state per AP, at ``state.at + 1``, from which
    ``walk_layers`` resumes with (ap, ``ip``) in that layer's plan entry;
    each walk equals one that ran the layer itself.  The layer runs
    through ``_quantized_layer_outputs`` once, so its calibration,
    patches, input codes and matmuls are shared by all of ``aps``.
    ``cells`` and ``work`` are as in ``walk_layers``.
    """
    q_index = _quantizable_index(net)
    if state.at not in q_index:
        raise ValueError(f"no quantizable layer to probe at layer {state.at}")
    adapt, x_eval = _quantized_layer_outputs(
        net.layers[state.at], state.adapt, state.eval, ip, aps, noise, platform,
        (q_index.index(state.at),), {} if cells is None else cells, work)
    return [replace(state, at=state.at + 1, adapt=tuple(outs[k] for outs in adapt),
                    eval=None if x_eval is None else x_eval[k])
            for k in range(len(aps))]


def noisy_forward(net: RefNet, batch: TensorBatch | np.ndarray,
                  plan: list[tuple[int, int]], noise: NoiseSpec,
                  platform) -> np.ndarray:
    """Forward pass with per-layer (ap, ip) quantization and device noise.

    ``plan`` holds one (ap, ip) pair per conv/dense layer, in network
    order; each layer is calibrated on ``batch``.  The raw input is clipped
    at zero before bit-serialization (fixture data is non-negative).
    """
    return walk_layers(net, WalkState.begin(eval_batch=batch), plan, noise,
                       platform).eval


def bn_adapt(net: RefNet, batches: list[TensorBatch], plan: list[tuple[int, int]],
             noise: NoiseSpec, platform, momentum: float = 0.1) -> RefNet:
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
                        noise, platform, momentum=momentum)
    for i, (mean, var) in state.bn_stats.items():
        adapted.layers[i].running_mean = mean
        adapted.layers[i].running_var = var
    return adapted
