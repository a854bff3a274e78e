"""Crossbar-aware neural-network simulator: quantized noisy inference,
batchnorm adaptation, training-free scoring and a tiny trainer."""

from .crossbar import IDEAL_NOISE, NoiseSpec
from .data import DATA_VERSION, make_blobs, make_patterns, split_batches
from .inference import (
    AdcRange,
    WalkState,
    bn_adapt,
    noisy_forward,
    probe_layer,
    walk_layers,
)
from .network import (
    RefNet,
    TensorBatch,
    TrainingDiverged,
    accuracy,
    build_refnet,
    cross_entropy,
    load_net,
    make_mlp,
    save_net,
    train_tiny,
)
from .quantize import adc_quantize, quantize_slice_weights
from .score import hd_score

__all__ = [
    "AdcRange",
    "DATA_VERSION",
    "IDEAL_NOISE",
    "NoiseSpec",
    "RefNet",
    "TensorBatch",
    "TrainingDiverged",
    "WalkState",
    "accuracy",
    "adc_quantize",
    "bn_adapt",
    "build_refnet",
    "cross_entropy",
    "hd_score",
    "load_net",
    "make_blobs",
    "make_mlp",
    "make_patterns",
    "noisy_forward",
    "probe_layer",
    "quantize_slice_weights",
    "save_net",
    "split_batches",
    "train_tiny",
    "walk_layers",
]
