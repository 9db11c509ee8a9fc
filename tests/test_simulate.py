"""Monte Carlo harness, the exact coincidence rate and the discrete dynamic-programming oracle."""
import importlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesplit import (
    Problem,
    StageDistribution,
    apply_rule,
    backward_induction,
    coincidence_rate,
    one_sla_thresholds,
    oracle_dp,
    simulate,
)
from edgesplit.config import load_config
from edgesplit.cost_model import cost_model
from edgesplit.model_graph import LayerSpec, MlpSpec, NetworkSpec, build_mlp
from edgesplit.simulate import SimResult, _price_tile, _uniform_tiles
from edgesplit.splitting import expected_etc

from conftest import (
    DOWNLINK_BPS,
    MEAN_SNR_D50,
    atom_pairs,
    channel_at,
    reference_config_dict,
    stop_cost,
    stop_probabilities,
)

# the module, which the package's `simulate` function shadows as an attribute
SIM = importlib.import_module("edgesplit.simulate")


def _chunk_trials(size):
    """Run the kernel on blocks of at most `size` trials."""
    return mock.patch.object(SIM, "_CHUNK_TRIALS", size)


# -- simulate ------------------------------------------------------------------

def test_simulate_deterministic_and_chunk_invariant(autoencoder, params, dist_d50):
    problem = Problem(autoencoder, params, dist_d50)
    pol = backward_induction(4, autoencoder, params, dist_d50)
    a = simulate(problem, pol, 30_000, seed=11)
    b = simulate(problem, pol, 30_000, seed=11)
    assert a == b
    # a different chunk schedule consumes the identical random stream: the
    # draws and histogram match bitwise, the mean up to summation order
    with _chunk_trials(777):
        c = simulate(problem, pol, 30_000, seed=11)
    assert c.stop_histogram == a.stop_histogram
    assert c.mean_etc == pytest.approx(a.mean_etc, rel=1e-13)
    assert c.std_error == pytest.approx(a.std_error, rel=1e-10)


def test_simulate_single_atom_matches_analytic_exactly(autoencoder, params):
    atom = StageDistribution.discrete([(0.7, 1.0)])
    pol = backward_induction(3, autoencoder, params, atom)
    res = simulate(Problem(autoencoder, params, atom), pol, 500, seed=0)
    assert res.std_error == 0.0
    assert res.mean_etc == pytest.approx(
        expected_etc(pol, autoencoder, params, atom), rel=1e-12)
    assert sum(res.stop_histogram) == pytest.approx(1.0, abs=0)


def test_simulate_mean_within_three_sigma(autoencoder, params, dist_d50):
    pol = backward_induction(8, autoencoder, params, dist_d50)
    res = simulate(Problem(autoencoder, params, dist_d50), pol, 200_000, seed=5)
    analytic = expected_etc(pol, autoencoder, params, dist_d50)
    assert abs(res.mean_etc - analytic) <= 3 * res.std_error
    assert res.std_error > 0


def test_simulate_histogram_matches_probabilities(autoencoder, params, dist_d50):
    pol = one_sla_thresholds(6, autoencoder, params, dist_d50)
    trials = 200_000
    res = simulate(Problem(autoencoder, params, dist_d50), pol, trials, seed=21)
    probs = stop_probabilities(pol, autoencoder, params, dist_d50)
    assert len(res.stop_histogram) == 7
    assert sum(res.stop_histogram) == pytest.approx(1.0, abs=1e-12)
    for freq, p in zip(res.stop_histogram, probs):
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= 3 * sigma + 1.0 / trials


def test_simulate_m0(autoencoder, params, dist_d50):
    from edgesplit import forced_offload_policy

    pol = forced_offload_policy("optimal", autoencoder, params, dist_d50)
    res = simulate(Problem(autoencoder, params, dist_d50), pol, 50_000, seed=9)
    assert res.stop_histogram == (1.0,)
    analytic = expected_etc(pol, autoencoder, params, dist_d50)
    assert abs(res.mean_etc - analytic) <= 3 * res.std_error


def test_simulate_validates_trials(autoencoder, params, dist_d50):
    pol = backward_induction(1, autoencoder, params, dist_d50)
    with pytest.raises(ValueError):
        simulate(Problem(autoencoder, params, dist_d50), pol, 0, seed=1)


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
    problem = Problem(autoencoder, params, law)
    for M in range(9):
        for rule in ("optimal", "one_sla"):
            pol = problem.policy(rule, M)
            got = simulate(problem, pol, trials, seed=M)
            assert got == _reference_simulate(pol, autoencoder, params, ds, trials, M, chunk)


def _recorded_quantiles(monkeypatch):
    """Record the output of every StageDistribution.quantile call."""
    outputs = []
    original = StageDistribution.quantile

    def recorded(self, u):
        outputs.append(original(self, u))
        return outputs[-1]

    monkeypatch.setattr(StageDistribution, "quantile", recorded)
    return outputs


@pytest.mark.parametrize("chunk", _TRIALS_AT_CHUNK)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_stage"])
def test_draws_match_reference_bit_for_bit(autoencoder, params, dist_d50, shared, chunk,
                                           monkeypatch):
    # a row that never stops before stage j + 1 is drawn at every stage up to
    # it and stops there: each stage's quantile then runs on the whole tile, so
    # stacking its outputs rebuilds the block of draws through the kernel, and
    # every row is priced at stage j + 1 on its stage-(j + 1) draw
    ds = (dist_d50,) * 9 if shared else tuple(_stage_list(dist_d50.mean_snr))
    cm = cost_model(autoencoder, params)
    trials = min(_TRIALS_AT_CHUNK[chunk], 2000)
    monkeypatch.setattr(SIM, "_CHUNK_TRIALS", chunk)
    want = list(_reference_draws(ds, trials, 17, chunk))
    draws = _recorded_quantiles(monkeypatch)
    # each tile is a view of one buffer, which the next tile overwrites
    for (_, _, u), snrs in zip(_uniform_tiles(trials, 9, 17), want, strict=True):
        for j in range(9):
            draws.clear()
            costs, counts = np.empty(len(u)), np.zeros(j + 2, dtype=np.int64)
            _price_tile(u, ds[:j + 1], [math.inf] * j, cm, costs, counts)
            assert np.array_equal(np.column_stack(draws), snrs[:, :j + 1])
            assert np.array_equal(costs, cm.etc_values(j + 1, snrs[:, j]))
            assert counts.tolist() == [0] * (j + 1) + [len(u)]


def test_first_crossing_matches_reference_with_ties(autoencoder, params):
    # atoms at the integers 1..6 put SNRs exactly on integer thresholds: equality stops
    law = StageDistribution.discrete([(float(k), 1 / 6) for k in range(1, 7)])
    ds = (law,) * 9
    cm = cost_model(autoencoder, params)
    # every (stage, atom) pair has its own cost, so a row's cost names its stop stage
    prices = cm.etc_values(np.repeat(np.arange(1, 10), 6), np.tile(np.arange(1.0, 7.0), 9))
    assert len(set(prices.tolist())) == prices.size
    rng = np.random.default_rng(4)
    u = rng.random((5000, 9))
    snrs = np.column_stack([_reference_quantile(law, u[:, j]) for j in range(9)])
    assert set(np.unique(snrs)) == set(range(1, 7))
    for M in range(9):
        for thresholds in (rng.integers(1, 7, size=M).astype(float), np.full(M, math.inf)):
            costs, counts = np.full(len(u), np.nan), np.zeros(M + 2, dtype=np.int64)
            _price_tile(u[:, :M + 1], ds[:M + 1], thresholds, cm, costs, counts)
            want = _reference_stops(snrs, thresholds, M)
            assert np.array_equal(counts, np.bincount(want, minlength=M + 2))
            assert np.array_equal(costs, cm.etc_values(want, snrs[np.arange(len(snrs)), want - 1]))


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_stage"])
def test_kernel_draws_only_the_live_rows(autoencoder, params, dist_d50, monkeypatch, shared):
    # stage j of a tile draws for exactly the rows whose reference stop is >= j,
    # and once no row is live no later stage draws at all
    law = dist_d50 if shared else _stage_list(dist_d50.mean_snr)
    ds = [law] * 9 if shared else law
    trials, chunk = 3000, 1100
    monkeypatch.setattr(SIM, "_CHUNK_TRIALS", chunk)
    outputs = _recorded_quantiles(monkeypatch)
    problem = Problem(autoencoder, params, law)
    for tile in (SIM._TILE_ROWS, 7):
        monkeypatch.setattr(SIM, "_TILE_ROWS", tile)
        skipped = 0
        for M in range(9):
            for rule in ("optimal", "one_sla"):
                pol = problem.policy(rule, M)
                outputs.clear()
                simulate(problem, pol, trials, seed=M)
                sizes = [np.size(out) for out in outputs]
                want, stop_sum, draws = [], 0, 0
                for snrs in _reference_draws(ds[:M + 1], trials, M, chunk):
                    stops = _reference_stops(snrs, pol.thresholds, M)
                    stop_sum, draws = stop_sum + stops.sum(), draws + snrs.size
                    for first in range(0, len(stops), tile):
                        live = [int(np.count_nonzero(stops[first:first + tile] >= j))
                                for j in range(1, M + 2)]
                        want += [n for n in live if n]
                        skipped += live.count(0)
                assert sizes == want
                assert 0 not in sizes
                assert sum(sizes) == stop_sum
                if stop_sum < draws:
                    assert sum(sizes) < draws
        assert skipped, tile  # some tiles end their stage loop early


@given(scales=st.lists(st.floats(0.2, 5.0), min_size=7, max_size=7),
       M=st.integers(0, 6), chunk=st.integers(1, 600),
       rule=st.sampled_from(["optimal", "one_sla"]))
def test_monte_carlo_does_not_depend_on_chunk_size(autoencoder, params, dist_d50, scales, M,
                                                    chunk, rule):
    laws = [StageDistribution.truncated_exponential(dist_d50.mean_snr * k) for k in scales]
    laws[-1] = StageDistribution.discrete([(0.2, 0.5), (2.0, 0.5)])
    problem = Problem(autoencoder, params, laws, M)
    pol = problem.policy(rule, M)
    whole = simulate(problem, pol, 600, seed=M)
    with _chunk_trials(chunk):
        part = simulate(problem, pol, 600, seed=M)
    assert part.stop_histogram == whole.stop_histogram
    assert part.mean_etc == pytest.approx(whole.mean_etc, rel=1e-12)
    assert part.std_error == pytest.approx(whole.std_error, rel=1e-9)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_stage"])
def test_no_result_depends_on_the_tile_size(autoencoder, params, dist_d50, monkeypatch, shared):
    # tiles cut a block's rows but never its sums: the results are equal bit
    # for bit, where a change of block size moves the mean in its last bits
    law = dist_d50 if shared else _stage_list(dist_d50.mean_snr)
    problem = Problem(autoencoder, params, law)
    trials = 2500  # blocks of 1000, 1000 and 500 rows
    monkeypatch.setattr(SIM, "_CHUNK_TRIALS", 1000)

    def results():
        return [simulate(problem, problem.policy(rule, M), trials, seed=M)
                for M in (2, 8) for rule in ("optimal", "one_sla")]

    whole = results()
    for tile in (1, 7, 333):
        monkeypatch.setattr(SIM, "_TILE_ROWS", tile)
        assert results() == whole


# a tile of uniforms at M = 8 (0.6 MB), a block's costs (1 MB) and one
# stage's working arrays: 1.64-1.82 MB. A 2^14-row tile (2.3-2.6 MB) or
# per-row stop stages and gathered weights (1.9-2.1 MB) exceed it, and one
# block of uniforms alone takes 9.4 MB
_PEAK_BOUND = 1.95 * 2**20


@pytest.mark.parametrize("network,distance", [("alexnet", 20.0), ("autoencoder", 120.0)])
def test_monte_carlo_memory_is_bounded_by_one_tile(request, params, network, distance):
    net = request.getfixturevalue(network)
    law = channel_at(distance, params)
    problem = Problem(net, params, law)
    policy = problem.policy("optimal", 8)
    simulate(problem, policy, 1000, seed=1)  # warm: the imports and the Problem's lazy state
    peaks = []
    for trials in (1 << 18, 10**6):
        tracemalloc.start()
        try:
            simulate(problem, policy, trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < _PEAK_BOUND, peaks
    # more blocks hold no more memory: only the live rows of a tile vary
    assert peaks[1] < 1.05 * peaks[0], peaks


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


def _atoms(rng, snrs):
    weights = [rng.random() + 0.1 for _ in snrs]
    return StageDistribution.discrete([(s, w / sum(weights)) for s, w in zip(snrs, weights)])


def _straddling_laws(rng, M, net, params):
    """M + 1 discrete laws of 2-4 atoms, built from the last stage back.

    A stage's thresholds depend only on the laws after it, so each stage's
    atoms are drawn from the spots below, on, between and above its two
    thresholds: on a threshold an SNR stops (a tie), between them one rule
    stops and the other goes on."""
    laws = [None] * (M + 1)
    laws[M] = _atoms(rng, [0.6 * math.exp(rng.uniform(-5, 1)) for _ in range(rng.randint(2, 4))])
    for n in range(M - 1, -1, -1):
        ds = [laws[n + 1]] * (n + 1) + laws[n + 1:]
        lo, hi = sorted(rule(M, net, params, ds).thresholds[n]
                        for rule in (backward_induction, one_sla_thresholds))
        spots = [s for s in (lo / 2, lo, (lo + hi) / 2, hi, 2 * hi) if s < math.inf] or [0.1, 1.0]
        laws[n] = _atoms(rng, rng.sample(spots, min(len(spots), rng.randint(2, 4))))
    return laws


def _enumerated_coincidence(M, net, params, laws):
    """The probability of every SNR sequence on which `apply_rule` stops both
    rules' policies at the same stage."""
    policies = [backward_induction(M, net, params, laws), one_sla_thresholds(M, net, params, laws)]
    agree = []
    for seq in itertools.product(*(atom_pairs(law) for law in laws)):
        snrs = [s for s, _ in seq]
        first, second = (apply_rule(pol, snrs, net, params).stage for pol in policies)
        if first == second:
            agree.append(math.prod(p for _, p in seq))
    return math.fsum(agree)


def test_coincidence_equals_enumeration_over_every_snr_sequence(autoencoder, alexnet, params):
    rng = random.Random(31)
    disagreeing = 0
    for case in range(40):
        net, M = (autoencoder, alexnet)[case % 2], case % 5
        laws = _straddling_laws(rng, M, net, params)
        want = _enumerated_coincidence(M, net, params, laws)
        got = coincidence_rate(M, net, params, laws, 1, seed=0)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (case, M)
        if M <= 1:
            assert got == 1.0
        disagreeing += want < 0.99
    assert disagreeing >= 15  # the rules part on most sequences of most cases


def _enumerated_monotone_case(M, net, params, laws):
    """The probability of every SNR sequence on which, once the 1-sla rule
    first calls for a stop at a stage up to M, it calls for one at every
    later stage up to M."""
    thresholds = one_sla_thresholds(M, net, params, laws).thresholds
    held = []
    for seq in itertools.product(*(atom_pairs(law) for law in laws)):
        calls = [snr >= t for (snr, _), t in zip(seq, thresholds)]
        if True not in calls or all(calls[calls.index(True):]):
            held.append(math.prod(p for _, p in seq))
    return math.fsum(held)


@pytest.mark.parametrize("first_atom, monotone, coincidence",
                         [(0.184, 0.88, 0.2), (0.3, 0.88, 1.0)], ids=["between", "above"])
def test_the_monotone_case_and_coincidence_are_incomparable(autoencoder, params, first_atom,
                                                            monotone, coincidence):
    """Neither probability bounds the other. At M = 2 both rules share the
    stage-2 threshold, so they part only on a stage-1 SNR between their
    stage-1 thresholds, where the 1-sla rule stops and the optimal rule goes
    on. A stage-1 atom of mass 0.8 there makes them part on 80% of the
    sequences, while the 1-sla calls break the monotone case only when
    stage 2 then calls for no stop (0.8 x 0.15). Above both thresholds the
    same atom makes the rules agree always and leaves the monotone case as
    it was. Both values are checked against every SNR sequence."""
    laws = [StageDistribution.discrete(atoms) for atoms in
            ([(0.1, 0.2), (first_atom, 0.8)], [(0.15, 0.15), (0.3, 0.85)], [(0.18, 0.3), (1.2, 0.7)])]
    problem = Problem(autoencoder, params, laws, 2)
    (optimal_1, optimal_2), (look_ahead_1, look_ahead_2) = (
        problem.policy(rule, 2).thresholds for rule in ("optimal", "one_sla"))
    assert look_ahead_1 < 0.184 < optimal_1 < 0.3
    assert optimal_2 == look_ahead_2 and 0.15 < optimal_2 < 0.3
    got = problem.optimality_probability(2), problem.coincidence_probability(2)
    want = (_enumerated_monotone_case(2, autoencoder, params, laws),
            _enumerated_coincidence(2, autoencoder, params, laws))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert got == pytest.approx((monotone, coincidence), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_stage"])
def test_coincidence_matches_the_reference_monte_carlo(autoencoder, params, dist_d50, shared):
    law = dist_d50 if shared else _stage_list(dist_d50.mean_snr)
    ds = [law] * 9 if shared else law
    trials = 40_000
    for M in range(9):
        p = coincidence_rate(M, autoencoder, params, law, trials, seed=M)
        freq = _reference_coincidence(M, autoencoder, params, ds, trials, M, trials)
        assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / trials) + 1 / trials, (M, freq, p)


# coincidence_rate on a shared law, a per-stage list and a discrete law at every
# horizon, with every import of numpy failing
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
import edgesplit as es
rates = []
for raw in json.loads(sys.argv[1]):
    cfg = es.load_config(raw)
    rates += [es.coincidence_rate(M, cfg.network, cfg.params, cfg.stage_dists(M + 1), 100, 1)
              for M in range(cfg.network.N + 1)]
assert sys.modules["numpy"] is None
print(json.dumps(rates))
"""


def test_coincidence_runs_without_numpy():
    pathloss = reference_config_dict()["channel"]
    configs = [reference_config_dict(),
               reference_config_dict(network="alexnet",
                                     channel=[dict(pathloss, distance_m=d) for d in range(20, 200, 20)]),
               reference_config_dict(channel={"kind": "discrete", "atoms": [[0.01, 0.5], [2.0, 0.5]]})]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(configs)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    want = []
    for raw in configs:
        cfg = load_config(raw)
        want += [coincidence_rate(M, cfg.network, cfg.params, cfg.stage_dists(M + 1), 100, 1)
                 for M in range(cfg.network.N + 1)]
    assert json.loads(out.stdout) == want


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
    # a horizon-8 policy on a 3-layer network used to end in a numpy IndexError;
    # a Problem at horizon 5 has no law or cost past stage 6 either
    small = build_mlp(MlpSpec((16,) * 4, 8, 8, 100, DOWNLINK_BPS))
    policy = backward_induction(8, autoencoder, params, dist_d50)
    for problem in (Problem(small, params, dist_d50), Problem(autoencoder, params, dist_d50, 5)):
        with pytest.raises(ValueError, match=f"policy horizon_M = 8 exceeds the Problem's "
                                             f"horizon M = {problem.M}"):
            simulate(problem, policy, 100, seed=1)


def test_monte_carlo_and_oracle_reject_more_laws_than_stages(autoencoder, params, dist_d50):
    # 20 laws on the autoencoder's 9 stages used to run on the first M + 1
    policy = backward_induction(3, autoencoder, params, dist_d50)
    atoms = dist_d50.discretize(16)
    for call in (lambda laws: simulate(Problem(autoencoder, params, laws), policy, 100, seed=1),
                 lambda laws: coincidence_rate(3, autoencoder, params, laws, 100, seed=1)):
        with pytest.raises(ValueError, match="9 stages, got 20 stage laws"):
            call([dist_d50] * 20)
        assert call([dist_d50] * 9) == call(dist_d50)
    with pytest.raises(ValueError, match="9 stages, got 20 stage laws"):
        oracle_dp(3, autoencoder, params, [atoms] * 20)
    assert oracle_dp(3, autoencoder, params, [atoms] * 9) == oracle_dp(3, autoencoder, params, atoms)


def test_oracle_converts_each_distinct_law_once(autoencoder, params, dist_d50, monkeypatch):
    reads = []
    atom_arrays = StageDistribution.atom_arrays

    def counted(self):
        reads.append(self)
        return atom_arrays.fget(self)

    monkeypatch.setattr(StageDistribution, "atom_arrays", property(counted))
    coarse, fine = dist_d50.discretize(64), dist_d50.discretize(128)
    # nine equal laws built one by one, from nine equal continuous laws, are
    # converted once, and two distinct ones twice
    apart = [StageDistribution.truncated_exponential(dist_d50.mean_snr).discretize(64)
             for _ in range(9)]
    assert all(law == apart[0] and law is not apart[0] for law in apart[1:])
    for laws, want in ((apart, 1), (coarse, 1),
                       ([coarse, fine] * 4 + [coarse], 2)):
        reads.clear()
        oracle_dp(8, autoencoder, params, laws)
        assert len(reads) == want


def test_the_oracle_on_one_discretized_law_compares_no_laws(autoencoder, params, monkeypatch):
    """Nine stages that discretize one law hand the oracle one object nine
    times: no `==` and one conversion. Its value and thresholds are, bit for
    bit, those on the discretizations of nine equal laws built apart."""
    shared = StageDistribution.truncated_exponential(MEAN_SNR_D50)
    apart = [StageDistribution.truncated_exponential(MEAN_SNR_D50).discretize(4096) for _ in range(9)]
    comparisons, reads = [], []
    eq, atom_arrays = StageDistribution.__eq__, StageDistribution.atom_arrays
    monkeypatch.setattr(StageDistribution, "__eq__", lambda a, b: comparisons.append(a) or eq(a, b))
    monkeypatch.setattr(StageDistribution, "atom_arrays",
                        property(lambda d: reads.append(d) or atom_arrays.fget(d)))
    bits = []
    for laws, want in ((apart, 8), ([shared.discretize(4096) for _ in range(9)], 0)):
        comparisons.clear()
        reads.clear()
        result = oracle_dp(8, autoencoder, params, laws)
        assert (len(comparisons), len(reads)) == (want, 1)
        bits.append([result.expected_cost.hex(), *(t.hex() for t in result.thresholds)])
    assert bits[0] == bits[1]


def test_oracle_rejects_continuous_laws(autoencoder, params, dist_d50):
    with pytest.raises(ValueError):
        oracle_dp(3, autoencoder, params, dist_d50)


def test_oracle_stops_on_an_exact_tie(params):
    """A stage-1 atom whose stop cost equals the value of going on is a stop.

    With no local work and equal bits at both stages, omega and weight agree
    at stages 1 and 2, so stopping at SNR 3 on stage 1 costs exactly the
    forced stop at stage 2, whose one atom is also 3. A rule that stops only
    on a strict win would put the threshold at inf, at the same cost."""
    net = NetworkSpec((LayerSpec(workload_cycles=0.0, input_bits=4096.0, download_seconds=0.01),),
                      4096.0)
    cm = cost_model(net, params)
    assert (cm.omega(1), cm.weight(1)) == (cm.omega(2), cm.weight(2))
    laws = [StageDistribution.discrete([(1.0, 0.5), (3.0, 0.5)]),
            StageDistribution.discrete([(3.0, 1.0)])]
    res = oracle_dp(1, net, params, laws)
    assert res.thresholds == (3.0,)
    assert res.expected_cost == pytest.approx(stop_cost(net, params, 2, 3.0), rel=1e-15)
