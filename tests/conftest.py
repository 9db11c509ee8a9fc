"""Shared fixtures: the reference experiment configuration used throughout.

Radio and compute constants follow the standard evaluation setup; the
downlink rate is the free-space value at 50 m with a 1 W base station
(frozen constant, regenerate with scripts/golden_oracles.py). It is held
fixed during sweeps: the downlink is a scalar input, not a modeled channel.
"""
import math

import numpy as np
import pytest

from edgesplit import (
    PathLossParams,
    Problem,
    StageDistribution,
    SystemParams,
    apply_rule,
    build_autoencoder_preset,
)
from edgesplit.channel import inv_rate_table, mean_snr_from_pathloss
from edgesplit.model_graph import build_alexnet_preset
from edgesplit.splitting import ThresholdPolicy

# Property tests draw a fixed set of examples, derived from each test's source,
# with no per-example deadline: the verdict does not depend on the run or on
# the load of the host, and no example database is written. Without hypothesis
# (the `test` extra) the modules that hold no property test still run.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None,
                              max_examples=25, database=None)
    settings.load_profile("deterministic")

DOWNLINK_BPS = 26900450.249632121
ANTENNA_GAIN = 4.11
CARRIER_HZ = 915e6
PATHLOSS_EXPONENT = 3.0

# frozen via scripts/golden_oracles.py
MEAN_SNR_D50 = 0.58398635357342641


def make_params(updates_per_model=50.0, beta_t=0.5, beta_e=0.5):
    return SystemParams(
        tx_power_w=0.1,
        noise_w=1e-10,
        bandwidth_hz=2e6,
        local_freq_hz=1e8,
        edge_freq_hz=1e10,
        kappa=1e-26,
        beta_t=beta_t,
        beta_e=beta_e,
        updates_per_model=updates_per_model,
        downlink_rate_bps=DOWNLINK_BPS,
    )


def pathloss_at(distance_m):
    return PathLossParams(
        antenna_gain=ANTENNA_GAIN,
        carrier_hz=CARRIER_HZ,
        distance_m=distance_m,
        exponent=PATHLOSS_EXPONENT,
    )


def channel_at(distance_m, params, floor_ratio=1e-3):
    mean = mean_snr_from_pathloss(pathloss_at(distance_m), params)
    return StageDistribution.truncated_exponential(mean, floor_ratio=floor_ratio)


def expect(law, g):
    """E[g(SNR)] over the whole support of `law`: the tail at its floor."""
    return law.partial_expect(g, law.support_lo)


def atom_pairs(law):
    """The (snr, probability) pairs of a discrete law, read off its two columns."""
    return tuple(zip(law.snrs, law.probs))


def inv_rate_tail(law, t, bandwidth_hz):
    """E[1/R(SNR); SNR >= t], one read of the law's tail table."""
    return float(inv_rate_table(law, bandwidth_hz).tails([t])[0])


def stop_cost(net, params, n, gamma):
    """The cost of stopping at stage n on SNR gamma: `apply_rule` under the
    policy that never stops before stage n."""
    policy = ThresholdPolicy("one_sla", n - 1, (math.inf,) * (n - 1))
    return apply_rule(policy, [gamma] * n, net, params).realized_etc


def forced_stop_cost(cm, stage, law):
    """Expected cost of the forced stop at `stage`: omega plus weight * E[1/R]."""
    return cm.omega(stage) + cm.weight(stage) * inv_rate_tail(law, 0.0, cm.params.bandwidth_hz)


def stop_probabilities(policy, net, params, dists):
    """Probability of stopping at each stage 1..M+1, off the policy's stage table."""
    table = Problem(net, params, dists, policy.horizon_M).stage_table(policy)
    return [*table.stop_prob, table.reach[-1]]


def stop_conditional_etc(policy, net, params, dists):
    """Expected cost given a stop at each stage 1..M+1: the stage table's stop
    costs, then the forced stop at M+1."""
    problem = Problem(net, params, dists, policy.horizon_M)
    return np.append(problem.stage_table(policy).stop_cost, problem.forced[-1])


@pytest.fixture(scope="session")
def params():
    return make_params()


@pytest.fixture(scope="session")
def params_inf_updates():
    return make_params(updates_per_model=math.inf)


@pytest.fixture(scope="session")
def autoencoder():
    return build_autoencoder_preset(DOWNLINK_BPS)


@pytest.fixture(scope="session")
def alexnet():
    return build_alexnet_preset(DOWNLINK_BPS)


@pytest.fixture(scope="session")
def dist_d50(params):
    return channel_at(50.0, params)


def reference_config_dict(**overrides):
    cfg = {
        "network": "autoencoder",
        "params": {
            "tx_power_w": 0.1,
            "noise_w": 1e-10,
            "bandwidth_hz": 2e6,
            "local_freq_hz": 1e8,
            "edge_freq_hz": 1e10,
            "kappa": 1e-26,
            "beta_t": 0.5,
            "beta_e": 0.5,
            "updates_per_model": 50,
            "downlink_rate_bps": DOWNLINK_BPS,
        },
        "channel": {
            "kind": "pathloss_rayleigh",
            "distance_m": 50,
            "antenna_gain": ANTENNA_GAIN,
            "carrier_hz": CARRIER_HZ,
            "exponent": PATHLOSS_EXPONENT,
            "snr_floor_ratio": 1e-3,
        },
        "strategies": ["optimal_exhaustive", "one_sla_exhaustive", "hybrid"],
        "trials": 20000,
        "seed": 42,
    }
    cfg.update(overrides)
    return cfg
