"""Training-free candidate scoring from binary ReLU activation codes.

An untrained (randomly initialized) network maps each input to the binary
pattern of its ReLU activations; inputs that land in different linear
regions get codes far apart in Hamming distance.  The log-determinant of
the code-similarity kernel rewards architectures that separate the batch
well, without training any weights.  ``hd_score`` scores a network's
layers at the draw ``build_refnet`` makes from a seed: ranking scores
each candidate as ``build_refnet`` would initialize it from the search
seed, drawing and freeing one pooling stage's weights at a time, and holds
no patch matrix (of more than one sample) or Gram chunk of more than
``network.CODE_VALUES`` values.
"""

from __future__ import annotations

import numpy as np

from . import network
from .network import RefNet, TensorBatch

#: Regularizer weight relative to the code length.
LAMBDA_RATIO = 1e-3


def hamming_kernel(codes: np.ndarray) -> np.ndarray:
    """K[i, j] = code_length - hamming(c_i, c_j) for binary code rows.

    K counts the bits on which two codes agree: the shared ones,
    G = c c^T, plus the shared zeros, (1 - c)(1 - c)^T, which expands to
    bits - s_i - s_j + G with s = diag(G).  So K = 2G - s_i - s_j + bits
    from one Gram product.  G is summed in float64, where integer sums
    stay exact, over float32 products of chunks of ``network.CODE_VALUES
    // n`` columns (at least one), so of at most 2**19: a partial sum of
    0/1 products counts at most that many ones, and float32 holds every
    integer up to 2**24 exactly, so each chunk's product is exact in any
    summation order.  Every entry of K is an integer, so K is exact
    too, whatever the chunks.
    """
    codes = np.asarray(codes)
    n, bits = codes.shape
    gram = np.zeros((n, n))
    step = max(1, network.CODE_VALUES // n)
    for start in range(0, bits, step):
        chunk = codes[:, start:start + step].astype(np.float32)
        gram += chunk @ chunk.T
    ones = np.diag(gram)
    return 2.0 * gram - ones[:, None] - ones[None, :] + bits


def hd_score(net: RefNet, batch: TensorBatch | np.ndarray, seed: int) -> float:
    """Log-determinant Hamming-distance score of a network at a fresh draw.

    The batch is forwarded once through ``net``'s layers at the weights
    ``build_refnet`` would draw from ``seed`` (the weights ``net`` holds
    are not read, and ``net`` stays as it is); binary ReLU codes are
    collected and scored as log|K + lambda*I| where K counts agreeing code
    bits.  Duplicate inputs make K rank-deficient; the regularizer keeps
    the score finite (at its floor).

    The score is streamed through the pooling stages of
    ``RefNet.forward_with_codes``: each stage draws its layers' weights
    just before it runs and frees them when it ends, and its codes go to
    ``hamming_kernel`` as soon as it ends.  So the score holds one stage's
    weights, codes and kernel chunk at a time, never the whole network
    or the whole code matrix.  K is the sum of the stages' kernels, which
    equals the kernel of all codes at once exactly: every stage's K is
    integer-valued float64, and so is every partial sum.  The stages draw
    in layer order, each weight one float64 draw times its He scale
    rounded once to float32, so the weights are those of ``build_refnet(
    ..., seed, dtype=np.float32)`` and the score is that net's.

    The code-collecting forward runs in float32, as NASWOT's reference
    does (arXiv:2006.04647), on a float32 copy of the batch; a batch
    already in float32 is used as it is, not copied, so a caller that
    scores many nets on one batch casts it once.  A code reads only the
    sign of a pre-ReLU activation, so it differs from a float64 forward's
    only where that activation lies within float32 rounding of zero: over
    ten VGG16 ranking pools, 7 of 199 million code bits flipped.

    Each stage runs in blocks of samples, so no patch matrix of more than
    one sample exceeds ``network.CODE_VALUES`` values.  The codes, and so
    the score, are those of the whole batch at once: eval mode treats
    every sample on its own, and BLAS row blocking moves an activation by
    ulps, which could flip a code only for an activation within rounding
    of zero (none did in any batch measured; the ranking golden pins it).
    """
    x = batch.data if isinstance(batch, TensorBatch) else batch
    stages = []  # (kernel, code bits) per stage

    def score_stage(codes: np.ndarray) -> None:
        stages.append((hamming_kernel(codes), codes.shape[1]))

    net.forward_with_codes(np.asarray(x, dtype=np.float32),
                           np.random.default_rng(seed), score_stage)
    k = sum(kernel for kernel, _ in stages)
    n_a = sum(bits for _, bits in stages)
    reg = k + LAMBDA_RATIO * n_a * np.eye(k.shape[0])
    sign, logdet = np.linalg.slogdet(reg)
    if sign <= 0:
        raise FloatingPointError("similarity kernel lost positive definiteness")
    return float(logdet)
