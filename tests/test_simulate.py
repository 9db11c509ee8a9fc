"""Monte Carlo harness and the discrete dynamic-programming oracle."""
import math

import numpy as np
import pytest

from edgesplit import (
    StageDistribution,
    backward_induction,
    coincidence_rate,
    expected_etc,
    one_sla_optimality_probability,
    one_sla_thresholds,
    oracle_dp,
    simulate,
    stop_probabilities,
)
from edgesplit.cost_model import cost_model
from edgesplit.simulate import network_hash, sim_report_json


# -- simulate ------------------------------------------------------------------

def test_simulate_deterministic_and_chunk_invariant(autoencoder, params, dist_d50):
    pol = backward_induction(4, autoencoder, params, dist_d50)
    a = simulate(pol, autoencoder, params, dist_d50, 30_000, seed=11)
    b = simulate(pol, autoencoder, params, dist_d50, 30_000, seed=11)
    assert a == b
    # a different chunk schedule consumes the identical random stream: the
    # draws and histogram match bitwise, the mean up to summation order
    c = simulate(pol, autoencoder, params, dist_d50, 30_000, seed=11, chunk=777)
    assert c.stop_histogram == a.stop_histogram
    assert c.mean_etc == pytest.approx(a.mean_etc, rel=1e-13)
    assert c.std_error == pytest.approx(a.std_error, rel=1e-10)
    # coincidence_rate counts agreements on the same chunked stream: exact
    whole = coincidence_rate(4, autoencoder, params, dist_d50, 30_000, seed=11)
    assert coincidence_rate(4, autoencoder, params, dist_d50, 30_000, seed=11, chunk=777) == whole


def test_simulate_single_atom_matches_analytic_exactly(autoencoder, params):
    atom = StageDistribution.discrete([(0.7, 1.0)])
    pol = backward_induction(3, autoencoder, params, atom)
    res = simulate(pol, autoencoder, params, atom, 500, seed=0)
    assert res.std_error == 0.0
    assert res.mean_etc == pytest.approx(
        expected_etc(pol, autoencoder, params, atom), rel=1e-12)
    assert sum(res.stop_histogram) == pytest.approx(1.0, abs=0)


def test_simulate_mean_within_three_sigma(autoencoder, params, dist_d50):
    pol = backward_induction(8, autoencoder, params, dist_d50)
    res = simulate(pol, autoencoder, params, dist_d50, 200_000, seed=5)
    analytic = expected_etc(pol, autoencoder, params, dist_d50)
    assert abs(res.mean_etc - analytic) <= 3 * res.std_error
    assert res.std_error > 0


def test_simulate_histogram_matches_probabilities(autoencoder, params, dist_d50):
    pol = one_sla_thresholds(6, autoencoder, params, dist_d50)
    trials = 200_000
    res = simulate(pol, autoencoder, params, dist_d50, trials, seed=21)
    probs = stop_probabilities(pol, dist_d50)
    assert len(res.stop_histogram) == 7
    assert sum(res.stop_histogram) == pytest.approx(1.0, abs=1e-12)
    for freq, p in zip(res.stop_histogram, probs):
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 3 * sigma + 1.0 / trials


def test_simulate_m0(autoencoder, params, dist_d50):
    from edgesplit import forced_offload_policy

    pol = forced_offload_policy("optimal", autoencoder, params, dist_d50)
    res = simulate(pol, autoencoder, params, dist_d50, 50_000, seed=9)
    assert res.stop_histogram == (1.0,)
    analytic = expected_etc(pol, autoencoder, params, dist_d50)
    assert abs(res.mean_etc - analytic) <= 3 * res.std_error


def test_simulate_validates_trials(autoencoder, params, dist_d50):
    pol = backward_induction(1, autoencoder, params, dist_d50)
    with pytest.raises(ValueError):
        simulate(pol, autoencoder, params, dist_d50, 0, seed=1)


# -- coincidence ----------------------------------------------------------------

def test_coincidence_horizon_one_exact(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        assert coincidence_rate(1, net, params, dist_d50, 100_000, seed=3) == 1.0


def test_coincidence_at_least_sufficient_event_probability(autoencoder, params, dist_d50):
    trials = 100_000
    for M in (3, 6, 8):
        rate = coincidence_rate(M, autoencoder, params, dist_d50, trials, seed=13)
        bound = one_sla_optimality_probability(M, autoencoder, params, dist_d50)
        se = math.sqrt(bound * (1 - bound) / trials)
        assert rate >= bound - 3 * se


def test_coincidence_deterministic_channel(autoencoder, params):
    atom = StageDistribution.discrete([(0.7, 1.0)])
    assert coincidence_rate(1, autoencoder, params, atom, 100, seed=0) == 1.0


# -- oracle ------------------------------------------------------------------------

def test_oracle_single_atom_equals_enumeration(autoencoder, params):
    gamma0 = 0.7
    atom = StageDistribution.discrete([(gamma0, 1.0)])
    cm = cost_model(autoencoder, params)
    for M in (1, 4, 8):
        res = oracle_dp(M, autoencoder, params, atom)
        best = min(cm.etc(n, gamma0).etc for n in range(1, M + 2))
        assert res.expected_cost == pytest.approx(best, rel=1e-12)


def test_oracle_matches_backward_induction(autoencoder, params, dist_d50):
    pol = backward_induction(8, autoencoder, params, dist_d50)
    errors = []
    for grid in (256, 1024, 4096):
        res = oracle_dp(8, autoencoder, params, dist_d50.discretize(grid))
        errors.append(abs(res.expected_cost - pol.value_table[0]) / pol.value_table[0])
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] < 2e-3


def test_oracle_thresholds_bracket_continuous_thresholds(autoencoder, params, dist_d50):
    """The oracle's switch atom pins each continuous threshold to one grid gap.

    The recovered threshold is the first atom where stopping wins, so the
    continuous threshold must lie in (previous atom, switch atom] up to the
    oracle's tiny value error; the leftover gap is the atom spacing, which
    shrinks as the grid grows.
    """
    pol = backward_induction(8, autoencoder, params, dist_d50)
    grid = dist_d50.discretize(4096)
    res = oracle_dp(8, autoencoder, params, grid)
    snrs = [s for s, _ in grid.atoms]
    rel_gaps = []
    for cont_t, atom_t in zip(pol.thresholds, res.thresholds):
        if math.isinf(cont_t) or math.isinf(atom_t):
            assert math.isinf(cont_t) == math.isinf(atom_t)
            continue
        idx = snrs.index(atom_t)
        prev = snrs[idx - 1] if idx else 0.0
        assert atom_t >= cont_t * (1 - 1e-3)
        assert prev <= cont_t * (1 + 1e-3)
        rel_gaps.append(abs(atom_t - cont_t) / cont_t)
    # thresholds large relative to the atom spacing resolve to 0.5%
    big = [g for g, t in zip(rel_gaps, pol.thresholds) if t >= 0.04]
    assert big and max(big) < 5e-3
    # and refining the grid tightens every recovered threshold
    finer = oracle_dp(8, autoencoder, params, dist_d50.discretize(16384))
    for cont_t, coarse_t, fine_t in zip(pol.thresholds, res.thresholds, finer.thresholds):
        assert abs(fine_t - cont_t) <= abs(coarse_t - cont_t) + 1e-12


def test_oracle_beats_one_sla_on_same_atoms(autoencoder, params, dist_d50):
    atoms = dist_d50.discretize(512)
    res = oracle_dp(6, autoencoder, params, atoms)
    sla = one_sla_thresholds(6, autoencoder, params, atoms)
    sla_cost = expected_etc(sla, autoencoder, params, atoms)
    assert res.expected_cost <= sla_cost + 1e-12


def test_oracle_invariant_to_atom_splitting(autoencoder, params):
    base = StageDistribution.discrete([(0.3, 0.5), (1.0, 0.5)])
    split = StageDistribution.discrete([(0.3, 0.25), (0.3, 0.25), (1.0, 0.5)])
    reordered = StageDistribution.discrete([(1.0, 0.5), (0.3, 0.5)])
    a = oracle_dp(3, autoencoder, params, base)
    b = oracle_dp(3, autoencoder, params, split)
    c = oracle_dp(3, autoencoder, params, reordered)
    assert a.expected_cost == b.expected_cost == c.expected_cost


def test_oracle_rejects_continuous_laws(autoencoder, params, dist_d50):
    with pytest.raises(ValueError):
        oracle_dp(3, autoencoder, params, dist_d50)


# -- audit serialization ---------------------------------------------------------------

def test_sim_report_echoes_config(autoencoder, params, dist_d50):
    pol = backward_induction(2, autoencoder, params, dist_d50)
    res = simulate(pol, autoencoder, params, dist_d50, 1000, seed=4)
    doc = sim_report_json(res, pol, autoencoder, params, dist_d50)
    assert doc["seed"] == 4
    assert doc["rng_algorithm"] == "numpy-pcg64"
    assert doc["network_sha256"] == network_hash(autoencoder)
    assert len(doc["stage_distributions"]) == 3
    assert doc["policy"]["horizon_M"] == 2
