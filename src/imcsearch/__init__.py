"""Co-search of DNN layer widths and crossbar peripheral circuits.

Library layout:
  designspace  option grids, candidate models, platform parameters
  costmodel    analytical area/delay/energy evaluation on the tiled platform
  relax        softmax relaxation, expected costs, analytic gradients
  nnsim        quantized noisy inference, batchnorm adaptation, HD scoring
  search       phase-1/phase-2 orchestration and candidate pooling
  cli          command-line front end (eval, phase1, phase2, sweep)
"""

__version__ = "0.1.0"

from .costmodel import (
    ADCProfile,
    CostReport,
    LayerCost,
    adc_profile,
    edap_from_totals,
    layer_cost,
    model_cost,
    psi,
    read_cycles,
)
from .designspace import (
    ADCType,
    CandidateModel,
    DesignSpace,
    LayerChoice,
    LayerShape,
    PlatformParams,
    UnitCost,
    UnitCostTable,
    enumerate_options,
    validate_candidate,
    vgg16_space,
)
from .relax import (
    LogitMatrix,
    expected_model_cost,
    phase1_loss,
    sgd_step,
)
from .search import (
    CandidatePool,
    SearchConfig,
    admit,
    phase1_run,
    phase2_loss,
    phase2_run,
    rank_candidates,
)

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
    "adc_profile",
    "admit",
    "edap_from_totals",
    "enumerate_options",
    "expected_model_cost",
    "layer_cost",
    "model_cost",
    "phase1_loss",
    "phase1_run",
    "phase2_loss",
    "phase2_run",
    "psi",
    "rank_candidates",
    "read_cycles",
    "sgd_step",
    "validate_candidate",
    "vgg16_space",
]
