"""Crossbar-aware neural-network simulator: quantized noisy inference,
batchnorm adaptation, training-free scoring and a tiny trainer.

The package re-exports the classes in ``__all__`` and the functions other
``imcsearch`` modules import from it; anything else is imported from its
module (``crossbar``, ``quantize``, ``network``, ``inference``, ``score``
or ``data``).  No class leaves ``__all__``: the benchmark tracer in
``perfbench/`` times the public methods of exactly the classes named there.
"""

from .crossbar import NoiseSpec
from .data import make_blobs, make_patterns, split_batches
from .inference import AdcRange, WalkState, probe_layer, walk_layers
from .network import (
    RefNet,
    TensorBatch,
    TrainingDiverged,
    cross_entropy,
    layer_pools,
    load_net,
    refnet_layers,
)
from .score import hd_score

__all__ = [
    "AdcRange",
    "NoiseSpec",
    "RefNet",
    "TensorBatch",
    "TrainingDiverged",
    "WalkState",
    "cross_entropy",
    "hd_score",
    "layer_pools",
    "load_net",
    "make_blobs",
    "make_patterns",
    "probe_layer",
    "refnet_layers",
    "split_batches",
    "walk_layers",
]
