"""Monte Carlo harness and the discrete dynamic-programming oracle."""
import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesplit import (
    Problem,
    StageDistribution,
    backward_induction,
    coincidence_rate,
    one_sla_thresholds,
    oracle_dp,
    simulate,
)
from edgesplit.cost_model import cost_model
from edgesplit.model_graph import MlpSpec, build_mlp
from edgesplit.simulate import (
    SimResult,
    _agreements,
    _first_crossings,
    _uniform_blocks,
    network_hash,
    sim_report_json,
)
from edgesplit.splitting import expected_etc

from conftest import DOWNLINK_BPS, atom_pairs, stop_cost, stop_probabilities

# the module, which the package's `simulate` function shadows as an attribute
SIM = importlib.import_module("edgesplit.simulate")


def _chunk_trials(size):
    """Run the kernel on blocks of at most `size` trials."""
    return mock.patch.object(SIM, "_CHUNK_TRIALS", size)


# -- simulate ------------------------------------------------------------------

def test_simulate_deterministic_and_chunk_invariant(autoencoder, params, dist_d50):
    pol = backward_induction(4, autoencoder, params, dist_d50)
    a = simulate(pol, autoencoder, params, dist_d50, 30_000, seed=11)
    b = simulate(pol, autoencoder, params, dist_d50, 30_000, seed=11)
    assert a == b
    # a different chunk schedule consumes the identical random stream: the
    # draws and histogram match bitwise, the mean up to summation order
    with _chunk_trials(777):
        c = simulate(pol, autoencoder, params, dist_d50, 30_000, seed=11)
    assert c.stop_histogram == a.stop_histogram
    assert c.mean_etc == pytest.approx(a.mean_etc, rel=1e-13)
    assert c.std_error == pytest.approx(a.std_error, rel=1e-10)
    # coincidence_rate counts agreements on the same chunked stream: exact
    whole = coincidence_rate(4, autoencoder, params, dist_d50, 30_000, seed=11)
    with _chunk_trials(777):
        assert coincidence_rate(4, autoencoder, params, dist_d50, 30_000, seed=11) == whole


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
    probs = stop_probabilities(pol, autoencoder, params, dist_d50)
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


# -- the kernel against a plain reference ------------------------------------------
#
# The reference draws each stage's column with its own quantile expression and
# column_stack, and finds the first crossing with any/argmax over an n x M
# boolean matrix: the straightforward kernel the production one must match
# bit for bit.

def _reference_quantile(d, u):
    if d.kind == "discrete":
        cum = np.cumsum([p for _, p in atom_pairs(d)])
        snrs = np.array([s for s, _ in atom_pairs(d)])
        return snrs[np.minimum(np.searchsorted(cum, u, side="left"), len(snrs) - 1)]
    with np.errstate(divide="ignore"):
        return d.support_lo - d.mean_snr * np.log1p(-u)


def _reference_draws(ds, trials, seed, chunk):
    rng = np.random.default_rng(seed)
    for start in range(0, trials, chunk):
        u = rng.random((min(chunk, trials - start), len(ds)))
        yield np.column_stack([_reference_quantile(d, u[:, j]) for j, d in enumerate(ds)])


def _reference_stops(snrs, thresholds, M):
    if M == 0:
        return np.ones(len(snrs), dtype=int)
    hit = snrs[:, :M] >= np.asarray(thresholds)[None, :]
    return np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, M + 1)


def _reference_simulate(policy, net, params, ds, trials, seed, chunk):
    M = policy.horizon_M
    cm = cost_model(net, params)
    total = total_sq = 0.0
    counts = np.zeros(M + 2, dtype=np.int64)
    for snrs in _reference_draws(ds[:M + 1], trials, seed, chunk):
        stages = _reference_stops(snrs, policy.thresholds, M)
        etcs = cm.etc_values(stages, snrs[np.arange(len(snrs)), stages - 1])
        total += float(etcs.sum())
        total_sq += float(np.dot(etcs, etcs))
        counts += np.bincount(stages, minlength=M + 2)
    mean = total / trials
    var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
    return SimResult(trials=trials, mean_etc=mean, std_error=math.sqrt(var / trials),
                     stop_histogram=tuple(counts[1:] / trials), seed=seed)


def _reference_coincidence(M, net, params, ds, trials, seed, chunk):
    t_opt = backward_induction(M, net, params, ds).thresholds
    t_sla = one_sla_thresholds(M, net, params, ds).thresholds
    agree = 0
    for snrs in _reference_draws(ds[:M + 1], trials, seed, chunk):
        agree += int((_reference_stops(snrs, t_opt, M) == _reference_stops(snrs, t_sla, M)).sum())
    return agree / trials


def _stage_list(mean):
    """Nine different laws: truncated stages, one with a high floor, and a discrete one."""
    laws = [StageDistribution.truncated_exponential(mean * (0.6 + 0.1 * k)) for k in range(9)]
    laws[1] = StageDistribution.discrete([(0.3 * mean, 0.25), (mean, 0.5), (3.0 * mean, 0.25)])
    laws[3] = StageDistribution("truncated_exponential", mean_snr=mean, support_lo=0.01 * mean)
    return laws


_TRIALS_AT_CHUNK = {1: 100, 777: 3000, 1 << 17: (1 << 17) + 5000}


@pytest.mark.parametrize("chunk", _TRIALS_AT_CHUNK)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_stage"])
def test_kernel_matches_reference_bit_for_bit(autoencoder, params, dist_d50, shared, chunk,
                                              monkeypatch):
    monkeypatch.setattr(SIM, "_CHUNK_TRIALS", chunk)
    trials = _TRIALS_AT_CHUNK[chunk]
    law = dist_d50 if shared else _stage_list(dist_d50.mean_snr)
    ds = [law] * 9 if shared else law
    for M in range(9):
        for rule in ("optimal", "one_sla"):
            pol = Problem(autoencoder, params, law).policy(rule, M)
            got = simulate(pol, autoencoder, params, law, trials, seed=M)
            assert got == _reference_simulate(pol, autoencoder, params, ds, trials, M, chunk)
        if M:
            assert (coincidence_rate(M, autoencoder, params, law, trials, seed=M)
                    == _reference_coincidence(M, autoencoder, params, ds, trials, M, chunk))


@pytest.mark.parametrize("chunk", _TRIALS_AT_CHUNK)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_stage"])
def test_draws_match_reference_bit_for_bit(dist_d50, shared, chunk, monkeypatch):
    # a row that never stops before stage j + 1 is drawn at every stage up to
    # it and stops there, so its stop SNR is its stage-(j + 1) draw: stacking
    # those over j rebuilds the whole block of draws through the kernel
    ds = (dist_d50,) * 9 if shared else tuple(_stage_list(dist_d50.mean_snr))
    trials = min(_TRIALS_AT_CHUNK[chunk], 2000)
    monkeypatch.setattr(SIM, "_CHUNK_TRIALS", chunk)
    got = [np.column_stack([_first_crossings(u, ds[:j + 1], [math.inf] * j)[1] for j in range(9)])
           for u in _uniform_blocks(trials, 9, 17)]
    want = list(_reference_draws(ds, trials, 17, chunk))
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_first_crossing_matches_reference_with_ties():
    # atoms at the integers 1..6 put SNRs exactly on integer thresholds: equality stops
    law = StageDistribution.discrete([(float(k), 1 / 6) for k in range(1, 7)])
    ds = (law,) * 9
    rng = np.random.default_rng(4)
    u = rng.random((5000, 9))
    snrs = np.column_stack([_reference_quantile(law, u[:, j]) for j in range(9)])
    assert set(np.unique(snrs)) == set(range(1, 7))
    for M in range(9):
        for thresholds in (rng.integers(1, 7, size=M).astype(float), np.full(M, math.inf)):
            stages, gammas = _first_crossings(u[:, :M + 1], ds[:M + 1], thresholds)
            want = _reference_stops(snrs, thresholds, M)
            assert np.array_equal(stages, want)
            assert stages.dtype == want.dtype
            assert np.array_equal(gammas, snrs[np.arange(len(snrs)), want - 1])


def _counting_quantile(monkeypatch):
    """Record the element count of every StageDistribution.quantile call."""
    sizes = []
    original = StageDistribution.quantile

    def counted(self, u):
        sizes.append(np.size(u))
        return original(self, u)

    monkeypatch.setattr(StageDistribution, "quantile", counted)
    return sizes


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_stage"])
def test_kernel_draws_only_the_live_rows(autoencoder, params, dist_d50, monkeypatch, shared):
    # stage j of a block draws for exactly the rows whose reference stop is >= j
    # (coincidence_rate: under both rules, with no draw at the forced stage)
    law = dist_d50 if shared else _stage_list(dist_d50.mean_snr)
    ds = [law] * 9 if shared else law
    trials, chunk = 3000, 1100
    monkeypatch.setattr(SIM, "_CHUNK_TRIALS", chunk)
    sizes = _counting_quantile(monkeypatch)
    for M in range(9):
        for rule in ("optimal", "one_sla"):
            pol = Problem(autoencoder, params, law).policy(rule, M)
            sizes.clear()
            simulate(pol, autoencoder, params, law, trials, seed=M)
            blocks = [sizes[k:k + M + 1] for k in range(0, len(sizes), M + 1)]
            ref = list(_reference_draws(ds[:M + 1], trials, M, chunk))
            assert len(blocks) == len(ref)
            for block, snrs in zip(blocks, ref):
                stops = _reference_stops(snrs, pol.thresholds, M)
                assert block == [int(np.count_nonzero(stops >= j)) for j in range(1, M + 2)]
                assert sum(block) == stops.sum()
                if (stops <= M).any():
                    assert sum(block) < snrs.size
        if M:
            t_opt = backward_induction(M, autoencoder, params, ds).thresholds
            t_sla = one_sla_thresholds(M, autoencoder, params, ds).thresholds
            sizes.clear()
            coincidence_rate(M, autoencoder, params, law, trials, seed=M)
            want = []
            for snrs in _reference_draws(ds[:M + 1], trials, M, chunk):
                first = np.minimum(_reference_stops(snrs, t_opt, M), _reference_stops(snrs, t_sla, M))
                want += [int(np.count_nonzero(first >= j)) for j in range(1, M + 1)]
            assert sizes == want


def test_agreements_count_equal_stops():
    law = StageDistribution.discrete([(float(k), 1 / 6) for k in range(1, 7)])
    rng = np.random.default_rng(8)
    u = rng.random((4000, 9))
    snrs = np.column_stack([_reference_quantile(law, u[:, j]) for j in range(9)])
    for M in range(1, 9):
        t_a, t_b = rng.integers(1, 7, size=M).astype(float), rng.integers(1, 7, size=M).astype(float)
        t_b[rng.random(M) < 0.3] = math.inf
        want = int((_reference_stops(snrs, t_a, M) == _reference_stops(snrs, t_b, M)).sum())
        assert _agreements(u[:, :M + 1], (law,) * (M + 1), t_a, t_b) == want


@given(scales=st.lists(st.floats(0.2, 5.0), min_size=7, max_size=7),
       M=st.integers(0, 6), chunk=st.integers(1, 600),
       rule=st.sampled_from(["optimal", "one_sla"]))
def test_monte_carlo_does_not_depend_on_chunk_size(autoencoder, params, dist_d50, scales, M,
                                                    chunk, rule):
    laws = [StageDistribution.truncated_exponential(dist_d50.mean_snr * k) for k in scales]
    laws[-1] = StageDistribution.discrete([(0.2, 0.5), (2.0, 0.5)])
    pol = Problem(autoencoder, params, laws, M).policy(rule, M)
    whole = simulate(pol, autoencoder, params, laws, 600, seed=M)
    with _chunk_trials(chunk):
        part = simulate(pol, autoencoder, params, laws, 600, seed=M)
    assert part.stop_histogram == whole.stop_histogram
    assert part.mean_etc == pytest.approx(whole.mean_etc, rel=1e-12)
    assert part.std_error == pytest.approx(whole.std_error, rel=1e-9)
    if M:
        with _chunk_trials(chunk):
            part_rate = coincidence_rate(M, autoencoder, params, laws, 600, seed=M)
        assert part_rate == coincidence_rate(M, autoencoder, params, laws, 600, seed=M)


# -- coincidence ----------------------------------------------------------------

def test_coincidence_horizon_one_exact(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        assert coincidence_rate(1, net, params, dist_d50, 100_000, seed=3) == 1.0


def test_coincidence_at_least_sufficient_event_probability(autoencoder, params, dist_d50):
    trials = 100_000
    for M in (3, 6, 8):
        rate = coincidence_rate(M, autoencoder, params, dist_d50, trials, seed=13)
        bound = Problem(autoencoder, params, dist_d50).optimality_probability(M)
        se = math.sqrt(bound * (1 - bound) / trials)
        assert rate >= bound - 3 * se


def test_coincidence_deterministic_channel(autoencoder, params):
    atom = StageDistribution.discrete([(0.7, 1.0)])
    assert coincidence_rate(1, autoencoder, params, atom, 100, seed=0) == 1.0


# -- oracle ------------------------------------------------------------------------

def test_oracle_single_atom_equals_enumeration(autoencoder, params):
    gamma0 = 0.7
    atom = StageDistribution.discrete([(gamma0, 1.0)])
    for M in (1, 4, 8):
        res = oracle_dp(M, autoencoder, params, atom)
        best = min(stop_cost(autoencoder, params, n, gamma0) for n in range(1, M + 2))
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
    snrs = [s for s, _ in atom_pairs(grid)]
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


def test_simulate_rejects_a_policy_beyond_the_network(autoencoder, params, dist_d50):
    # a horizon-8 policy on a 3-layer network used to end in a numpy IndexError
    small = build_mlp(MlpSpec((16,) * 4, 8, 8, 100, DOWNLINK_BPS))
    policy = backward_induction(8, autoencoder, params, dist_d50)
    with pytest.raises(ValueError, match="policy horizon_M = 8 exceeds the network's N = 3"):
        simulate(policy, small, params, dist_d50, 100, seed=1)


def test_monte_carlo_and_oracle_reject_more_laws_than_stages(autoencoder, params, dist_d50):
    # 20 laws on the autoencoder's 9 stages used to run on the first M + 1
    policy = backward_induction(3, autoencoder, params, dist_d50)
    atoms = dist_d50.discretize(16)
    for call in (lambda laws: simulate(policy, autoencoder, params, laws, 100, seed=1),
                 lambda laws: coincidence_rate(3, autoencoder, params, laws, 100, seed=1)):
        with pytest.raises(ValueError, match="9 stages, got 20 stage laws"):
            call([dist_d50] * 20)
        assert call([dist_d50] * 9) == call(dist_d50)
    with pytest.raises(ValueError, match="9 stages, got 20 stage laws"):
        oracle_dp(3, autoencoder, params, [atoms] * 20)
    assert oracle_dp(3, autoencoder, params, [atoms] * 9) == oracle_dp(3, autoencoder, params, atoms)


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
