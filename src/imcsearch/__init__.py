"""Co-search of DNN layer widths and crossbar peripheral circuits.

Library layout:
  config       YAML run configuration and the unit-cost calibration table
  designspace  option grids, candidate models, platform parameters
  costmodel    analytical area/delay/energy evaluation on the tiled platform
  relax        softmax relaxation, expected costs, analytic gradients
  nnsim        quantized noisy inference, batchnorm adaptation, HD scoring
  search       phase-1/phase-2 orchestration and candidate pooling
  io           deterministic model, report, pool and trace files
  cli          command-line front end (eval, phase1, phase2, sweep)

Functions are imported from the module that defines them, never through
a package.  The package root, like ``nnsim``, re-exports only the classes
named in its ``__all__``, and none may leave it: the benchmark tracer in
``perfbench/`` times the public methods of exactly the classes named there.
"""

__version__ = "0.1.0"

from .costmodel import ADCProfile, CostReport, LayerCost
from .designspace import (
    ADCType,
    CandidateModel,
    DesignSpace,
    LayerChoice,
    LayerShape,
    PlatformParams,
    UnitCost,
    UnitCostTable,
)
from .relax import LogitMatrix
from .search import CandidatePool, SearchConfig

__all__ = [
    "ADCProfile",
    "ADCType",
    "CandidateModel",
    "CandidatePool",
    "CostReport",
    "DesignSpace",
    "LayerChoice",
    "LayerCost",
    "LayerShape",
    "LogitMatrix",
    "PlatformParams",
    "SearchConfig",
    "UnitCost",
    "UnitCostTable",
]
