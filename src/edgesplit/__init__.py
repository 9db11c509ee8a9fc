"""Planner and simulator for device-edge co-inference.

Decides how many DNN layers to keep on a wireless device (slow timescale)
and at which layer to split inference online as channel SNRs are observed
(fast timescale), using finite-horizon optimal stopping.
"""

__version__ = "0.1.0"

from .channel import PathLossParams, StageDistribution
from .config import load_config
from .cost_model import SystemParams
from .errors import ConfigError, NumericalError
from .model_graph import build_autoencoder_preset
from .placement import hybrid, optimize_exhaustive, run_strategy
from .simulate import coincidence_rate, oracle_dp, simulate
from .splitting import (
    Problem,
    apply_rule,
    backward_induction,
    forced_offload_policy,
    one_sla_thresholds,
)

# The README quick start, what perfbench/ calls, and the two exception types;
# every other name is imported from the module that defines it.
__all__ = [
    "ConfigError",
    "NumericalError",
    "PathLossParams",
    "Problem",
    "StageDistribution",
    "SystemParams",
    "apply_rule",
    "backward_induction",
    "build_autoencoder_preset",
    "coincidence_rate",
    "forced_offload_policy",
    "hybrid",
    "load_config",
    "one_sla_thresholds",
    "optimize_exhaustive",
    "oracle_dp",
    "run_strategy",
    "simulate",
]
