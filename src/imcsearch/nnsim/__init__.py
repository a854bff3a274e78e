"""Crossbar-aware neural-network simulator: quantized noisy inference,
batchnorm adaptation, training-free scoring and a tiny trainer.

Functions are imported from their modules, as in the package root.  The
package re-exports only the classes in ``__all__``, and none may leave it:
the benchmark tracer in ``perfbench/`` times exactly their public methods.
"""

from .crossbar import NoiseSpec
from .inference import AdcRange, WalkState
from .network import RefNet, TensorBatch, TrainingDiverged

__all__ = [
    "AdcRange",
    "NoiseSpec",
    "RefNet",
    "TensorBatch",
    "TrainingDiverged",
    "WalkState",
]
