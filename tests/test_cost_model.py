"""Cost primitives: rates, omega, weighted stop cost, download amortization."""
import math

import numpy as np
import pytest

from edgesplit import SystemParams, apply_rule, load_config
from edgesplit.cost_model import LN2, CostModel, cost_model, uplink_rate
from edgesplit.model_graph import MlpSpec, build_mlp
from edgesplit.splitting import ThresholdPolicy

from conftest import DOWNLINK_BPS, make_params, reference_config_dict, stop_cost

# frozen via scripts/golden_oracles.py
OMEGA_1_AUTOENCODER = 0.00110912
OMEGA_2_AUTOENCODER = 0.05128512
OMEGA_9_AUTOENCODER = 0.11202112
ETA_1_AUTOENCODER_SNR1 = 0.01490752
RATE_HALF_SNR = 1169925.0014423124
PSI_3_EQUAL_MLP_128 = 0.0023570638934144648


def test_uplink_rate_values(params):
    assert uplink_rate(1.0, params) == pytest.approx(2e6, abs=0)
    assert uplink_rate(3.0, params) == pytest.approx(4e6, abs=0)
    assert uplink_rate(0.5, params) == pytest.approx(RATE_HALF_SNR, rel=1e-14)


def test_uplink_rate_rejects_zero_snr(params):
    with pytest.raises(ValueError):
        uplink_rate(0.0, params)


def test_omega_boundaries(autoencoder, params):
    # edge-only split: only edge compute time remains
    cm = cost_model(autoencoder, params)
    total_cycles = sum(l.workload_cycles for l in autoencoder.layers)
    assert cm.omega(1) == pytest.approx(
        params.beta_t * total_cycles / params.edge_freq_hz, rel=1e-14)
    # device-only split: local time plus local energy
    expected = (params.beta_t * total_cycles / params.local_freq_hz
                + params.beta_e * params.kappa * params.local_freq_hz**2 * total_cycles)
    assert cm.omega(autoencoder.N + 1) == pytest.approx(expected, rel=1e-14)


def test_omega_golden_values(autoencoder, params):
    cm = cost_model(autoencoder, params)
    assert cm.omega(1) == pytest.approx(OMEGA_1_AUTOENCODER, rel=1e-12)
    assert cm.omega(2) == pytest.approx(OMEGA_2_AUTOENCODER, rel=1e-12)
    assert cm.omega(9) == pytest.approx(OMEGA_9_AUTOENCODER, rel=1e-12)


def test_omega_nondecreasing(autoencoder, alexnet, params):
    for net in (autoencoder, alexnet):
        vals = [cost_model(net, params).omega(n) for n in range(1, net.N + 2)]
        assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))


def test_omega_rejects_out_of_range(autoencoder, params):
    cm = cost_model(autoencoder, params)
    with pytest.raises(ValueError):
        cm.omega(0)
    with pytest.raises(ValueError):
        cm.omega(autoencoder.N + 2)


def test_etc_golden_value(autoencoder, params):
    got = apply_rule(ThresholdPolicy("one_sla", 0, ()), [1.0], autoencoder, params)
    assert got.realized_etc == pytest.approx(ETA_1_AUTOENCODER_SNR1, rel=1e-12)
    assert got.stage == 1


def test_etc_reconstructs_weighted_sum(autoencoder, params):
    cm = cost_model(autoencoder, params)
    for n, gamma in [(1, 0.3), (4, 1.7), (9, 10.0)]:
        uplink_seconds = autoencoder.input_bits(n) / uplink_rate(gamma, params)
        uplink_joules = params.tx_power_w * uplink_seconds
        assert stop_cost(autoencoder, params, n, gamma) == pytest.approx(
            cm.omega(n) + params.beta_t * uplink_seconds + params.beta_e * uplink_joules,
            rel=1e-12)


def test_etc_pure_time_and_pure_energy(autoencoder):
    time_only = make_params(beta_t=1.0, beta_e=0.0)
    energy_only = make_params(beta_t=0.0, beta_e=1.0)
    n, gamma = 3, 0.8
    uplink_seconds = autoencoder.input_bits(n) / uplink_rate(gamma, time_only)
    uplink_joules = energy_only.tx_power_w * uplink_seconds
    t = stop_cost(autoencoder, time_only, n, gamma)
    assert t == pytest.approx(cost_model(autoencoder, time_only).omega(n) + uplink_seconds, rel=1e-14)
    e = stop_cost(autoencoder, energy_only, n, gamma)
    assert e == pytest.approx(cost_model(autoencoder, energy_only).omega(n) + uplink_joules, rel=1e-14)


def test_etc_decreasing_in_snr(autoencoder, params):
    gammas = [0.01, 0.1, 1.0, 10.0, 1e4, 1e12]
    cm = cost_model(autoencoder, params)
    vals = [stop_cost(autoencoder, params, 2, g) for g in gammas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # approaches omega from above as the channel improves
    floor = cm.omega(2)
    assert vals[-1] > floor
    assert vals[-1] - floor < 1e-3 * (vals[0] - floor)


def test_placement_cost_edges(autoencoder, params, params_inf_updates):
    assert cost_model(autoencoder, params).placement_cost(0) == 0.0
    for M in range(autoencoder.N + 1):
        assert cost_model(autoencoder, params_inf_updates).placement_cost(M) == 0.0


def test_placement_cost_equal_mlp_golden():
    mlp = MlpSpec((128,) * 9, 8, 8, 100, DOWNLINK_BPS)
    net = build_mlp(mlp)
    got = cost_model(net, make_params(updates_per_model=50)).placement_cost(3)
    assert got == pytest.approx(PSI_3_EQUAL_MLP_128, rel=1e-12)
    assert got == pytest.approx(3 * 8 * 8 * 129 * 128 / (DOWNLINK_BPS * 50), rel=1e-14)


def test_placement_cost_additive(autoencoder, params):
    cm = cost_model(autoencoder, params)
    for M in range(1, autoencoder.N + 1):
        delta = cm.placement_cost(M) - cm.placement_cost(M - 1)
        assert delta == pytest.approx(
            autoencoder.layers[M - 1].download_seconds / params.updates_per_model, rel=1e-12)
        assert delta >= 0


def test_total_cost_composition(autoencoder, params):
    ee = 0.042
    cm = cost_model(autoencoder, params)
    assert cm.total_cost(0, ee) == ee
    z = cm.total_cost(3, ee)
    assert z == pytest.approx(params.beta_t * cm.placement_cost(3) + ee, rel=1e-14)
    zero_t = make_params(beta_t=0.0, beta_e=1.0)
    assert cost_model(autoencoder, zero_t).total_cost(5, ee) == ee


def test_etc_values_vectorized_matches_scalar(autoencoder, params):
    import numpy as np

    cm = cost_model(autoencoder, params)
    stages = np.array([1, 3, 9, 5])
    gammas = np.array([0.2, 1.1, 4.0, 0.9])
    vec = cm.etc_values(stages, gammas)
    for s, g, v in zip(stages, gammas, vec):
        assert v == pytest.approx(stop_cost(autoencoder, params, int(s), float(g)), rel=1e-14)


def test_system_params_validation():
    with pytest.raises(ValueError, match="edge_freq_hz"):
        SystemParams(0.1, 1e-10, 2e6, 1e10, 1e8, 1e-26, 0.5, 0.5, 50, 1e7)
    with pytest.raises(ValueError):
        SystemParams(0.1, 1e-10, 2e6, 1e8, 1e10, 1e-26, 0.0, 0.0, 50, 1e7)
    with pytest.raises(ValueError):
        SystemParams(0.1, 1e-10, 2e6, 1e8, 1e10, 1e-26, 0.5, 0.5, 2.5, 1e7)
    with pytest.raises(ValueError):
        SystemParams(0.0, 1e-10, 2e6, 1e8, 1e10, 1e-26, 0.5, 0.5, 50, 1e7)


def _load_params(d):
    return load_config(reference_config_dict(params=d)).params


def test_system_params_json_roundtrip(params, params_inf_updates):
    for p in (params, params_inf_updates):
        again = _load_params(p.to_json_dict())
        assert again == p
    assert _load_params(params_inf_updates.to_json_dict()).updates_per_model == math.inf


def test_system_params_json_missing_field(params):
    d = params.to_json_dict()
    del d["noise_w"]
    with pytest.raises(ValueError, match="noise_w"):
        _load_params(d)


@pytest.mark.parametrize("overrides,table", [
    ({"kappa": 1e290}, "omega"),
    ({"kappa": 1e308}, "omega"),
    ({"beta_e": 1e308}, "weight"),
    ({"beta_t": 1e305}, "weight"),
])
def test_an_overflowing_cost_table_is_rejected(autoencoder, overrides, table):
    # every constant is finite on its own; their products are not
    params = SystemParams(**dict(make_params().to_json_dict(), **overrides))
    with pytest.raises(ValueError, match=table):
        CostModel(autoencoder, params)


def test_etc_values_is_the_plain_expression_bit_for_bit(autoencoder, params):
    cm = cost_model(autoencoder, params)
    rng = np.random.default_rng(4)
    stages = rng.integers(1, autoencoder.N + 2, size=5000)
    gammas = np.concatenate([rng.exponential(0.6, 4990), [5e-324, 1e-300, 1e-8, 1.0, 1e300,
                                                          np.inf, 2.0, 3.0, 4.0, 5.0]])
    omega = np.array([cm.omega(n) for n in range(1, autoencoder.N + 2)])
    weight = np.array([cm.weight(n) for n in range(1, autoencoder.N + 2)])
    with np.errstate(divide="ignore", over="ignore"):
        want = omega[stages - 1] + weight[stages - 1] / (params.bandwidth_hz * np.log1p(gammas) / LN2)
        got = cm.etc_values(stages, gammas)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
