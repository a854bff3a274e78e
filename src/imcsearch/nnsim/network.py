"""Minimal reference networks: layers, ideal forward/backward, training.

Supports what the desk-scale fixtures need and nothing more: 3x3 (or 1x1)
convolutions, dense layers, batchnorm, ReLU and 2x2 average pooling.
Weights serialize to a small binary container (JSON shape header followed
by little-endian float32 data).

Each layer class declares itself once, in four class attributes: ``kind``,
the name a network file gives it; ``args``, its constructor's arguments,
which it keeps as attributes of the same names; ``param_names``, the
arrays training updates, whose gradient ``backward`` assigns to
``d<name>``; and ``arrays``, the arrays a network file stores, in file
order.  A layer's spec, its loading, its parameters and gradients and its
stored arrays all derive from that declaration.  No gradient array exists
before the first ``backward``, and no weight array before the layer draws
(``init_weights``) or loads its weights: until then its weights read as
zeros and cannot be written in place.

What a net holds between uses is its declared ``arrays`` and nothing
else.  Training keeps per-batch state on the layers (each forward's
cached values, each backward's gradients); ``train_tiny`` drops it when
it returns or raises.  A built or trained net holds its arrays in the
dtype it was drawn in (float64 unless asked otherwise); a loaded one
holds its conv and dense arrays in the container's float32 and its
batchnorm arrays in float64 (``load_net``).
"""

from __future__ import annotations

import copy
import json
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class TensorBatch:
    """A data batch: N x C x H x W (or N x F) values with optional labels."""

    data: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if not np.all(np.isfinite(self.data)):
            raise ValueError("batch data must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.data.shape[0]:
                raise ValueError("labels must match batch size")

    def __len__(self) -> int:
        return self.data.shape[0]


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output rows (or columns) of a convolution over ``size`` input ones."""
    return (size + 2 * pad - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int,
           out: np.ndarray | None = None,
           padded: np.ndarray | None = None) -> tuple[np.ndarray, tuple[int, int]]:
    """(N, C, H, W) -> (N * outH * outW, C * k * k) patch matrix.

    Rows run over (n, out_y, out_x) and columns over (c, ky, kx).  The
    matrix is the transpose view of a C-contiguous (C * k * k, N * outH *
    outW) array, so each patch column is one contiguous run.  The input is
    zero-padded into a channels-first (C, N, H + 2p, W + 2p) buffer, which
    one of two gathers reads:

    - output rows of 8 pixels or more: its strided window view,
      transposed to (c, ky, kx, n, out_y, out_x) order, is copied once, so
      every copied run is an output row of ``outW`` values, where a
      row-major patch matrix would copy runs of ``k``;
    - shorter rows: one ``np.take`` over a flat window index into each
      channel's (N, H + 2p, W + 2p) block, which copies value by value and
      so pays nothing per run.  On VGG16's 4x4 and 2x2 convs (runs of 4
      and 2 values) it took an ``hd_rank_vgg16`` candidate's gathers from
      16.1 to 8.0 ms (best of 3 passes in-process, one BLAS thread, shared
      2-vCPU host).  At 8-pixel rows the window copy was still the faster
      (0.73 against 0.77 ms per 2**19-value block of 8 x 8 x 128 inputs).

    The matrix keeps the input's dtype; in a float32 forward a row-major
    gather cost about twice the product with the weights.  ``out`` (the
    matrix, in the layout returned) and ``padded`` (the padded input, a
    C-contiguous array of the input's dtype) are written into when given,
    and allocated otherwise; the matrix returned is then a view of ``out``.
    """
    n, c, h, w = x.shape
    xt = x.transpose(1, 0, 2, 3)
    if pad:
        # np.pad gives the same array but costs ~30 us more per call, ~10%
        # of im2col at the phase-2 toy shapes (64 x 8 x 8 x 8)
        if padded is None:
            padded = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        else:
            padded.fill(0)
        padded[:, :, pad:pad + h, pad:pad + w] = xt
        xt = padded
    hp, wp = xt.shape[2:]
    out_h, out_w = (conv_out_size(d, kernel, stride, pad) for d in (h, w))
    # the C-contiguous (c, ky, kx, n, out_y, out_x) array under ``out``
    cols = None if out is None else out.T.reshape(c, kernel, kernel, n, out_h, out_w)
    if out_w < 8:
        ky, kx = np.divmod(np.arange(kernel * kernel), kernel)
        starts = (np.arange(n)[:, None, None] * (hp * wp)
                  + np.arange(out_h)[:, None] * (stride * wp)
                  + np.arange(out_w) * stride)
        index = (ky * wp + kx)[:, None] + starts.ravel()
        # every index is in range, so all modes agree; "wrap" checks least
        # (4.4 against 7.4 ms for "raise" on a 64-sample 4x4x512 input,
        # in-process, one BLAS thread, shared 2-vCPU host), and "raise"
        # would copy through a temporary array when given ``out``
        cols = np.take(xt.reshape(c, -1), index, axis=1, mode="wrap",
                       out=None if cols is None else cols.reshape(c, *index.shape))
    else:
        windows = sliding_window_view(xt, (kernel, kernel),
                                      axis=(2, 3))[:, :, ::stride, ::stride]
        windows = windows.transpose(0, 4, 5, 1, 2, 3)
        if cols is None:
            cols = np.ascontiguousarray(windows)
        else:
            np.copyto(cols, windows)
    return cols.reshape(c * kernel * kernel, -1).T, (out_h, out_w)


def col2im(cols: np.ndarray, x_shape: tuple[int, ...], kernel: int,
           stride: int, pad: int) -> np.ndarray:
    """Adjoint of im2col (scatter-add of patch gradients)."""
    n, c, h, w = x_shape
    out_h, out_w = (conv_out_size(d, kernel, stride, pad) for d in (h, w))
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    x = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] \
                += cols[:, :, i, j]
    return x[:, :, pad:pad + h, pad:pad + w] if pad else x


#: Float64 normals per draw of ``_he_normal``: a weight tensor is drawn in
#: slabs of whole leading-axis rows of at most this many values (at least
#: one row), so a float32 weight never sits next to a float64 draw of its
#: whole tensor (18 MiB for a 512 x 512 x 3 x 3 convolution), only of one
#: slab (512 KiB).
DRAW_SLAB = 1 << 16


def _he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
               dtype) -> np.ndarray:
    """He-scaled normal weights: float64 draws times sqrt(2 / fan_in),
    rounded once into a ``dtype`` array.

    The draws come in slabs of rows (see ``DRAW_SLAB``), each written
    straight into its rows of the result.  ``Generator.standard_normal``
    yields the same stream whether a tensor is drawn whole or in slabs,
    so the weights equal those of one whole draw."""
    out = np.empty(shape, dtype)
    rows = out.reshape(shape[0], -1)
    step = max(1, DRAW_SLAB // rows.shape[1])
    scale = np.sqrt(2.0 / fan_in)
    for start in range(0, len(rows), step):
        slab = rows[start:start + step]
        np.multiply(rng.standard_normal(slab.shape), scale, out=slab)
    return out


def _undrawn(shape: tuple[int, ...]) -> np.ndarray:
    """A layer's weights before it draws or loads any: a read-only view of
    ``shape`` zeros that holds one value.  A layer stack whose weights are
    never set (HD ranking's, the weights check's) so allocates none."""
    return np.broadcast_to(np.zeros(()), shape)


class Layer:
    kind: str
    args: tuple[str, ...] = ()
    param_names: tuple[str, ...] = ()
    arrays: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def init_weights(self, rng: np.random.Generator, dtype=float) -> None:
        """Draw fresh weights into ``dtype`` arrays; a layer without
        weights draws nothing.  Each weight is a float64 normal draw times
        its He scale, rounded once to ``dtype``, so a float32 net equals
        the float64 net of the same draw cast to float32."""

    def params(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.param_names]

    def grads(self) -> list[np.ndarray]:
        """The gradients the last ``backward`` assigned, one per parameter."""
        return [getattr(self, "d" + name) for name in self.param_names]

    def spec(self) -> dict:
        return {"kind": self.kind, **{a: getattr(self, a) for a in self.args}}

    def drop_training_state(self) -> None:
        """Free what the last training batch left: the forward values kept
        for ``backward`` (``_cache``, ``ReLU._mask``) and the gradients."""
        state = vars(self)
        for name in ("_cache", "_mask"):
            if name in state:
                state[name] = None
        for name in self.param_names:
            state.pop("d" + name, None)


class Conv2D(Layer):
    """Same-padded convolution; bias-free (a batchnorm usually follows)."""

    kind = "conv"
    args = ("c_in", "c_out", "kernel", "stride")
    param_names = arrays = ("weight",)

    def __init__(self, c_in: int, c_out: int, kernel: int = 3, stride: int = 1):
        self.c_in, self.c_out, self.kernel, self.stride = c_in, c_out, kernel, stride
        self.weight = _undrawn((c_out, c_in, kernel, kernel))
        self._cache = None

    @property
    def pad(self) -> int:
        return self.kernel // 2

    def init_weights(self, rng: np.random.Generator, dtype=float) -> None:
        self.weight = _he_normal(rng, self.weight.shape,
                                 self.c_in * self.kernel ** 2, dtype)

    def weight_matrix(self) -> np.ndarray:
        """(C_in * k * k, C_out) layout used by the crossbar path."""
        return self.weight.reshape(self.c_out, -1).T

    def forward(self, x, train=False):
        cols, (oh, ow) = im2col(x, self.kernel, self.stride, self.pad)
        out = cols @ self.weight_matrix()
        n = x.shape[0]
        if train:
            self._cache = (cols, x.shape)
        return out.reshape(n, oh, ow, self.c_out).transpose(0, 3, 1, 2)

    def backward(self, dout):
        cols, x_shape = self._cache
        n, _, oh, ow = dout.shape
        dmat = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, self.c_out)
        dw = (cols.T @ dmat).T.reshape(self.weight.shape)
        self.dweight = dw
        dcols = dmat @ self.weight_matrix().T
        return col2im(dcols, x_shape, self.kernel, self.stride, self.pad)


class Dense(Layer):
    kind = "dense"
    args = ("n_in", "n_out")
    param_names = arrays = ("weight", "bias")

    def __init__(self, n_in: int, n_out: int):
        self.n_in, self.n_out = n_in, n_out
        self.weight = _undrawn((n_in, n_out))
        self.bias = np.zeros(n_out)
        self._cache = None

    def init_weights(self, rng: np.random.Generator, dtype=float) -> None:
        self.weight = _he_normal(rng, self.weight.shape, self.n_in, dtype)
        self.bias = np.zeros(self.n_out, dtype)

    def forward(self, x, train=False):
        if train:
            self._cache = x
        return x @ self.weight + self.bias

    def backward(self, dout):
        x = self._cache
        self.dweight = x.T @ dout
        self.dbias = dout.sum(axis=0)
        return dout @ self.weight.T


class BatchNorm(Layer):
    """Per-channel (4-D input) or per-feature (2-D input) normalization."""

    kind = "bn"
    args = ("num_features", "momentum", "eps")
    param_names = ("gamma", "beta")
    arrays = param_names + ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.init_weights(None)
        self._cache = None

    def init_weights(self, rng: np.random.Generator | None, dtype=float) -> None:
        """Reset to the identity transform and unit statistics; draws nothing."""
        self.gamma = np.ones(self.num_features, dtype)
        self.beta = np.zeros(self.num_features, dtype)
        self.running_mean = np.zeros(self.num_features, dtype)
        self.running_var = np.ones(self.num_features, dtype)

    @staticmethod
    def _axes(x: np.ndarray) -> tuple[int, ...]:
        return (0, 2, 3) if x.ndim == 4 else (0,)

    def _shape(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return v.reshape(1, -1, 1, 1) if x.ndim == 4 else v

    def batch_stats(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        axes = self._axes(x)
        return x.mean(axis=axes), x.var(axis=axes)

    @staticmethod
    def blend(running: np.ndarray, batch: np.ndarray, momentum: float) -> np.ndarray:
        """A running statistic after one batch (training and adaptation)."""
        return (1 - momentum) * running + momentum * batch

    def normalize(self, x: np.ndarray, mean: np.ndarray,
                  var: np.ndarray) -> np.ndarray:
        # gamma * (x - mean) / sqrt(var + eps) + beta on one fresh array,
        # each operation in the expression's order, so the bits match it;
        # the statistics and parameters are cast to x's dtype (a no-op when
        # they share it), so a float32 activation stays float32
        def v(a: np.ndarray) -> np.ndarray:
            return self._shape(x, a.astype(x.dtype, copy=False))

        # A zero mean, a unit gamma or a zero beta is left out, so a fresh
        # layer costs one division: x - 0 and x * 1 are exact, and x + 0
        # only turns -0.0 into +0.0.  The division holds -0.0 only where x
        # does (it cannot underflow for var <= 1, as a fresh layer's is),
        # and conv and dense outputs hold none: their sums start from +0.
        std = np.sqrt(v(var) + self.eps)
        if mean.any():
            out = x - v(mean)
            out /= std
        else:
            out = x / std
        if (self.gamma != 1).any():
            out *= v(self.gamma)
        if self.beta.any():
            out += v(self.beta)
        return out

    def forward(self, x, train=False):
        if train:
            mean, var = self.batch_stats(x)
            self.running_mean = self.blend(self.running_mean, mean, self.momentum)
            self.running_var = self.blend(self.running_var, var, self.momentum)
            xhat = (x - self._shape(x, mean)) / np.sqrt(self._shape(x, var) + self.eps)
            self._cache = (xhat, var, x.shape)
            return self._shape(x, self.gamma) * xhat + self._shape(x, self.beta)
        return self.normalize(x, self.running_mean, self.running_var)

    def backward(self, dout):
        xhat, var, x_shape = self._cache
        axes = self._axes(dout)
        m = dout.size / self.num_features
        self.dgamma = (dout * xhat).sum(axis=axes)
        self.dbeta = dout.sum(axis=axes)
        g = self._shape(dout, self.gamma)
        inv_std = self._shape(dout, 1.0 / np.sqrt(var + self.eps))
        dxhat = dout * g
        dx = (dxhat - self._shape(dout, dxhat.sum(axis=axes)) / m
              - xhat * self._shape(dout, (dxhat * xhat).sum(axes)) / m) * inv_std
        return dx


class ReLU(Layer):
    kind = "relu"

    def __init__(self):
        self._mask = None

    def forward(self, x, train=False):
        mask = x > 0
        if train:
            self._mask = mask
        return x * mask

    def backward(self, dout):
        return dout * self._mask


class AvgPool2D(Layer):
    kind = "avgpool"
    args = ("size",)

    def __init__(self, size: int = 2):
        self.size = size
        self._in_shape = None

    def forward(self, x, train=False):
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"spatial dims {(h, w)} not divisible by pool {s}")
        self._in_shape = x.shape
        return x.reshape(n, c, h // s, s, w // s, s).mean(axis=(3, 5))

    def backward(self, dout):
        n, c, h, w = self._in_shape
        s = self.size
        up = np.repeat(np.repeat(dout, s, axis=2), s, axis=3)
        return up / (s * s)


class GlobalAvgPool(Layer):
    """Collapse remaining spatial extent to 1x1 before the classifier."""

    kind = "gap"

    def __init__(self):
        self._in_shape = None

    def forward(self, x, train=False):
        self._in_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, dout):
        n, c, h, w = self._in_shape
        return np.broadcast_to(dout[:, :, None, None] / (h * w),
                               self._in_shape).copy()


_LAYER_KINDS = {cls.kind: cls for cls in (Conv2D, Dense, BatchNorm, ReLU,
                                          AvgPool2D, GlobalAvgPool)}


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

#: Values per working array of HD ranking: each pooling stage of
#: ``RefNet.forward_with_codes`` runs in blocks of as many samples as fit
#: this many values at the stage's widest layer input (a conv's patch row
#: or a dense layer's input), and ``score.hamming_kernel`` takes this many
#: values per float32 Gram chunk.  A bound of 2048 patch rows let the
#: patch matrices widen as the stages narrow, to 9 MiB at VGG16's 8x8 and
#: 4x4 stages.  Medians of 10 alternated ``hd_rank_vgg16`` harness pairs
#: against that row bound (30 s, one BLAS thread, shared 2-vCPU host):
#: 2**19 (2 MiB of float32) read peak RSS 64.3 -> 55.1 MiB at 4.57 -> 4.56
#: candidates/s; 2**18 read 64.8 -> 53.8 MiB but 4.62 -> 4.37 candidates/s,
#: its smaller blocks paying more per-call overhead.
CODE_VALUES = 1 << 19


@dataclass
class RefNet:
    layers: list[Layer]
    class_count: int

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def forward_with_codes(self, x: np.ndarray, rng: np.random.Generator,
                           on_codes) -> np.ndarray:
        """Eval-mode forward pass of fresh weights that hands on the binary
        ReLU codes one pooling stage at a time; returns the logits.

        The layers run in stages, each ending at a pooling layer.  Just
        before a stage runs, copies of its layers draw their weights from
        ``rng`` through their own ``init_weights``, in ``x``'s dtype; the
        stages draw in layer order, so the net is the one ``init_weights``
        on the whole net would give.  The weights ``self`` holds are not
        read, and the drawn ones are freed when their stage ends.  A stage
        with ReLUs then calls ``on_codes`` with its ``(n, stage bits)``
        bool matrix, its ReLUs' codes side by side in layer order, which
        is freed when the call returns.  So no more than one stage's
        weights and codes are held at a time.  Within a ReLU, a sample's
        codes run in its input's memory order: (h, w, c) after a conv,
        whose output is channels-last, so one contiguous comparison writes
        them.  The same ReLU, pixel and channel land in the same column
        for every sample, and a Hamming kernel sums over columns, so the
        order cannot change a score (``score.hamming_kernel``).

        A stage runs the whole batch in blocks of ``CODE_VALUES // (h * w
        * width)`` samples (at least one, at most the batch), where h x w
        is the stage's input size and width its widest layer input per
        pixel: ``c_in * k * k`` for a conv, ``n_in`` for a dense layer.  So
        no patch matrix or layer input of a block of more than one sample
        exceeds ``CODE_VALUES`` values, and the small late stages run in
        few, large products.  Each block's output is written into its rows
        of the stage's whole-batch output, which the next stage reads, and
        each ReLU's codes into their rows and columns of the stage's code
        matrix.

        Every layer keeps its input's dtype, so the pass runs in the dtype
        of ``x``; ``hd_score`` runs it in float32.

        In eval mode every layer treats each sample on its own (batchnorm
        uses its running statistics), so blocking changes no code: a
        product over fewer patch rows may round differently in BLAS, which
        moves a pre-ReLU activation or a logit by ulps.  A code reads
        only the sign, so it could change only for an activation within
        rounding of zero; none did in any batch measured.  Likewise, a
        float32 pass gives the codes of a float64 one except where an
        activation lies within float32 rounding of zero.
        """
        if x.shape[0] == 0:
            raise ValueError("batch has no samples to encode")
        if not any(isinstance(layer, ReLU) for layer in self.layers):
            raise ValueError("network has no ReLU layers to encode")
        cuts = sorted({0, len(self.layers)} | {
            i + 1 for i, layer in enumerate(self.layers)
            if isinstance(layer, (AvgPool2D, GlobalAvgPool))})
        for lo, hi in zip(cuts, cuts[1:]):
            x = _stage_with_codes(self.layers[lo:hi], x, rng, on_codes)
        return x

    def init_weights(self, rng: np.random.Generator, dtype=float) -> None:
        for layer in self.layers:
            layer.init_weights(rng, dtype)

    def clone(self) -> "RefNet":
        return copy.deepcopy(self)


def _stage_with_codes(layers: list[Layer], x: np.ndarray,
                      rng: np.random.Generator, on_codes) -> np.ndarray:
    """One stage of ``RefNet.forward_with_codes``: its layers' fresh
    weights, the blocked pass and its codes, all freed on return."""
    layers = [copy.copy(layer) for layer in layers]
    for layer in layers:
        layer.init_weights(rng, x.dtype)
    # a pass of no samples gives each layer's input shape and dtype
    empty = [x[:0]]
    for layer in layers:
        empty.append(layer.forward(empty[-1]))
    relus = [i for i, layer in enumerate(layers) if isinstance(layer, ReLU)]
    ends = np.cumsum([0] + [math.prod(empty[i].shape[1:]) for i in relus])
    columns = {i: slice(a, b) for i, a, b in zip(relus, ends, ends[1:])}
    n = x.shape[0]
    codes = np.empty((n, ends[-1]), dtype=bool)
    stage_out = np.empty((n,) + empty[-1].shape[1:], empty[-1].dtype)
    # each layer's input values per pixel; a conv gathers k * k of them
    width = max(e.shape[1] * (layer.kernel ** 2 if isinstance(layer, Conv2D)
                              else 1) for layer, e in zip(layers, empty))
    block = max(1, min(n, CODE_VALUES // (math.prod(x.shape[2:]) * width)))
    for start in range(0, n, block):
        out = x[start:start + block]
        rows = slice(start, start + out.shape[0])
        for i, layer in enumerate(layers):
            if i not in columns:
                out = layer.forward(out)
                continue
            # the ReLU's codes in its input's memory order: (h, w, c) per
            # pixel after a conv, whose output is channels-last in memory
            mask = codes[rows, columns[i]]
            if out.ndim == 4:
                b, c, h, w = out.shape
                mask = mask.reshape(b, h, w, c).transpose(0, 3, 1, 2)
            np.greater(out, 0, out=mask)
            # ReLU.forward's x * (x > 0), in place unless out is the input
            out = np.multiply(out, mask, out=out if i else None)
        stage_out[rows] = out
    if relus:
        on_codes(codes)
    return stage_out


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log softmax probability of the true class.

    ``logits`` is (samples, classes); any other shape raises ValueError.
    """
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (samples, classes), got shape "
                         f"{logits.shape}")
    if np.any(labels < 0) or np.any(labels >= logits.shape[1]):
        raise ValueError("labels out of range")
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(labels)), labels] -= 1.0
    return probs / len(labels)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def train_tiny(net: RefNet, dataset: TensorBatch, epochs: int, lr: float,
               batch_size: int = 32, seed: int = 0) -> RefNet:
    """Plain minibatch SGD on cross-entropy over the ideal forward pass.

    Mutates and returns ``net``.
    Raises ``TrainingDiverged`` on a non-finite loss.  On return and on
    a raise alike, every layer drops its training state
    (``Layer.drop_training_state``), so the net holds only its declared
    ``arrays``.
    """
    if dataset.labels is None:
        raise ValueError("train_tiny needs a labeled dataset")
    rng = np.random.default_rng(seed)
    n = len(dataset)
    try:
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                x, y = dataset.data[idx], dataset.labels[idx]
                logits = net.forward(x, train=True)
                loss = cross_entropy(logits, y)
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"loss became non-finite ({loss})")
                if lr == 0:
                    continue
                dout = cross_entropy_grad(logits, y)
                for layer in reversed(net.layers):
                    dout = layer.backward(dout)
                for layer in net.layers:
                    for p, g in zip(layer.params(), layer.grads()):
                        p -= lr * g
    finally:
        for layer in net.layers:
            layer.drop_training_state()
    return net


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_refnet(model, class_count: int, seed: int = 0,
                 dtype=float) -> RefNet:
    """Reference network matching a candidate's layer widths, its weights
    drawn from ``seed`` and held in ``dtype`` (see ``Layer.init_weights``)."""
    net = RefNet(refnet_layers(model, class_count), class_count)
    net.init_weights(np.random.default_rng(seed), dtype)
    return net


def layer_pools(shapes) -> list[Layer | None]:
    """The pool ``refnet_layers`` puts before each layer of ``shapes``: a
    global pool from a conv to a fully-connected layer, an average pool by
    the one integer factor that downscales a conv's output to the next
    conv's input, else none; a ValueError names any other ``layers[i]``."""
    pools = [None]
    for i, (prev, shape) in enumerate(zip(shapes, shapes[1:]), 1):
        (oh, ow), (h, w) = prev.out_spatial(), shape.in_spatial
        if shape.is_fc:
            pools.append(None if prev.is_fc else GlobalAvgPool())
        elif prev.is_fc:
            raise ValueError(f"layers[{i}]: a conv layer cannot follow an FC layer")
        elif oh % h or ow % w or oh // h != ow // w:
            raise ValueError(f"layers[{i}]: its input {h}x{w} is not the previous "
                             f"output {oh}x{ow} downscaled by one integer factor")
        else:
            pools.append(AvgPool2D(oh // h) if oh > h else None)
    return pools


def refnet_layers(model, class_count: int) -> list[Layer]:
    """The layers of ``build_refnet``'s network, no weights drawn: each a
    conv- or dense-BN-ReLU block after its pool (``layer_pools``), but a
    fully-connected last layer is the bare classifier of ``class_count``."""
    layers: list[Layer] = []
    prev_cd = model.input_channels
    last = len(model.layers) - 1
    pools = layer_pools([shape for shape, _ in model.layers])
    for idx, ((shape, choice), pool) in enumerate(zip(model.layers, pools)):
        if pool is not None:
            layers.append(pool)
        layers.append(Dense(prev_cd, choice.cd_out) if shape.is_fc else
                      Conv2D(prev_cd, choice.cd_out, shape.kernel, shape.stride))
        if not shape.is_fc or idx != last:
            layers += [BatchNorm(choice.cd_out), ReLU()]
        prev_cd = choice.cd_out
    if prev_cd != class_count:
        raise ValueError(f"candidate's last layer yields {prev_cd} outputs, "
                         f"expected {class_count} classes")
    return layers


# ---------------------------------------------------------------------------
# serialization: magic, version, JSON spec header, little-endian f32 arrays
# ---------------------------------------------------------------------------

_MAGIC = b"IMCN"
_FORMAT_VERSION = 1


def _named_arrays(net: RefNet) -> list[tuple[str, np.ndarray]]:
    return [(f"layers.{i}.{name}", getattr(layer, name))
            for i, layer in enumerate(net.layers) for name in layer.arrays]


def save_net(net: RefNet, path) -> None:
    arrays = _named_arrays(net)
    header = {
        "format_version": _FORMAT_VERSION,
        "class_count": net.class_count,
        "layers": [layer.spec() for layer in net.layers],
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "dtype": "<f4",
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _FORMAT_VERSION, len(blob)))
        f.write(blob)
        for _, a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f4").tobytes())


def load_net(path) -> RefNet:
    """The network ``save_net`` wrote to ``path``.

    Conv and dense arrays stay in the container's float32, so a loaded
    net holds half the bytes of a float64 one; every reader widens them
    exactly (``quantize_weights`` casts to float64, and a product with a
    float64 operand promotes).  Batchnorm arrays are float64, because a
    walk blends running statistics in their own dtype.

    A malformed container, one cut short or with bytes after its last
    array, a non-finite array or a negative running variance raises a
    ``ValueError`` naming the array (``layers.<i>.<name>``) where there
    is one; the caller, which knows the path, names the file."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a network container (magic {magic!r})")
        version, hlen = struct.unpack("<II", f.read(8))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported container version {version}")
        header = json.loads(f.read(hlen).decode("utf-8"))
        layers = []
        for s in header["layers"]:
            cls = _LAYER_KINDS[s["kind"]]
            layers.append(cls(**{a: s[a] for a in cls.args}))
        net = RefNet(layers=layers, class_count=header["class_count"])
        arrays = _named_arrays(net)
        specs = header["arrays"]
        if [s["name"] for s in specs] != [n for n, _ in arrays]:
            raise ValueError("array manifest does not match layer stack")
        for spec, (name, target) in zip(specs, arrays):
            shape = tuple(spec["shape"])
            if shape != target.shape:
                raise ValueError(f"array {name} has shape {list(shape)}, "
                                 f"its layer expects {list(target.shape)}")
            nbytes = 4 * math.prod(shape)
            raw = f.read(nbytes)
            if len(raw) != nbytes:
                raise ValueError(f"array {name} is cut short: {len(raw)} of "
                                 f"{nbytes} bytes")
            data = np.frombuffer(raw, dtype="<f4").reshape(shape)
            _, index, attr = name.split(".")
            # a NaN or a negative variance would run on as silent NaNs
            if not np.all(np.isfinite(data)):
                raise ValueError(f"array {name} is not finite")
            if attr == "running_var" and np.any(data < 0):
                raise ValueError(f"array {name} has a negative variance")
            layer = net.layers[int(index)]
            setattr(layer, attr, data.astype(
                float if isinstance(layer, BatchNorm) else np.float32))
        trailing = len(f.read())
        if trailing:
            raise ValueError(f"{trailing} trailing bytes after the last array")
    return net
