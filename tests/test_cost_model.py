"""Cost primitives: rates, omega, weighted stop cost, download amortization."""
import math

import pytest

from edgesplit import MlpSpec, SystemParams, build_mlp, uplink_rate
from edgesplit.cost_model import cost_model

from conftest import DOWNLINK_BPS, make_params

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
    got = cost_model(autoencoder, params).etc(1, 1.0)
    assert got.etc == pytest.approx(ETA_1_AUTOENCODER_SNR1, rel=1e-12)
    assert got.stage == 1


def test_etc_reconstructs_weighted_sum(autoencoder, params):
    cm = cost_model(autoencoder, params)
    for n, gamma in [(1, 0.3), (4, 1.7), (9, 10.0)]:
        b = cm.etc(n, gamma)
        payload = autoencoder.input_bits(n)
        rate = uplink_rate(gamma, params)
        assert b.uplink_seconds == pytest.approx(payload / rate, rel=1e-14)
        assert b.uplink_joules == pytest.approx(params.tx_power_w * payload / rate, rel=1e-14)
        assert b.etc == pytest.approx(
            b.omega + params.beta_t * b.uplink_seconds + params.beta_e * b.uplink_joules,
            rel=1e-12)


def test_etc_pure_time_and_pure_energy(autoencoder):
    time_only = make_params(beta_t=1.0, beta_e=0.0)
    energy_only = make_params(beta_t=0.0, beta_e=1.0)
    n, gamma = 3, 0.8
    t = cost_model(autoencoder, time_only).etc(n, gamma)
    assert t.etc == pytest.approx(t.omega + t.uplink_seconds, rel=1e-14)
    e = cost_model(autoencoder, energy_only).etc(n, gamma)
    assert e.etc == pytest.approx(e.omega + e.uplink_joules, rel=1e-14)


def test_etc_decreasing_in_snr(autoencoder, params):
    gammas = [0.01, 0.1, 1.0, 10.0, 1e4, 1e12]
    cm = cost_model(autoencoder, params)
    vals = [cm.etc(2, g).etc for g in gammas]
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
        assert v == pytest.approx(cm.etc(int(s), float(g)).etc, rel=1e-14)


def test_system_params_validation():
    with pytest.raises(ValueError, match="edge_freq_hz"):
        SystemParams(0.1, 1e-10, 2e6, 1e10, 1e8, 1e-26, 0.5, 0.5, 50, 1e7)
    with pytest.raises(ValueError):
        SystemParams(0.1, 1e-10, 2e6, 1e8, 1e10, 1e-26, 0.0, 0.0, 50, 1e7)
    with pytest.raises(ValueError):
        SystemParams(0.1, 1e-10, 2e6, 1e8, 1e10, 1e-26, 0.5, 0.5, 2.5, 1e7)
    with pytest.raises(ValueError):
        SystemParams(0.0, 1e-10, 2e6, 1e8, 1e10, 1e-26, 0.5, 0.5, 50, 1e7)


def test_system_params_json_roundtrip(params, params_inf_updates):
    for p in (params, params_inf_updates):
        again = SystemParams.from_json_dict(p.to_json_dict())
        assert again == p
    assert SystemParams.from_json_dict(params_inf_updates.to_json_dict()).updates_per_model == math.inf


def test_system_params_json_missing_field(params):
    d = params.to_json_dict()
    del d["noise_w"]
    with pytest.raises(ValueError, match="noise_w"):
        SystemParams.from_json_dict(d)
