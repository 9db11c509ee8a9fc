"""Planner and simulator for device-edge co-inference.

Decides how many DNN layers to keep on a wireless device (slow timescale)
and at which layer to split inference online as channel SNRs are observed
(fast timescale), using finite-horizon optimal stopping.
"""

__version__ = "0.1.0"

from .channel import (
    PathLossParams,
    StageDistribution,
    distribution_from_config,
    mean_snr_from_pathloss,
    per_stage,
)
from .config import ExperimentConfig, load_config
from .cost_model import CostBreakdown, SystemParams, uplink_rate
from .errors import ConfigError, NumericalError
from .model_graph import (
    LayerSpec,
    MlpSpec,
    NetworkSpec,
    build_alexnet_preset,
    build_autoencoder_preset,
    build_mlp,
    network_from_json,
)
from .placement import (
    PlacementReport,
    PlacementRow,
    Problem,
    hybrid,
    mlp_closed_form,
    optimize_exhaustive,
    run_strategy,
    theta_one_sla,
)
from .simulate import (
    OracleResult,
    SimResult,
    coincidence_rate,
    oracle_dp,
    simulate,
)
from .splitting import (
    SplitOutcome,
    StageTable,
    ThresholdPolicy,
    apply_rule,
    backward_induction,
    build_policy,
    expected_etc,
    forced_offload_policy,
    forced_stop_cost,
    one_sla_optimality_probability,
    one_sla_thresholds,
    optimal_recursion,
    stage_table,
    stop_conditional_etc,
    stop_probabilities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
