"""Stage tables: the stop statistics every expected cost and the 1-sla
placement sweep read, checked against the per-stage scalar loops they
replace; and the dominance of the optimal rule over random problems."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesplit import (
    LayerSpec,
    NetworkSpec,
    NumericalError,
    Problem,
    StageDistribution,
    ThresholdPolicy,
    apply_rule,
    backward_induction,
    build_policy,
    expected_etc,
    one_sla_thresholds,
    optimal_recursion,
    optimize_exhaustive,
    stage_table,
    stop_conditional_etc,
    stop_probabilities,
)
from edgesplit import splitting
from edgesplit.channel import inv_rate_expectation, per_stage
from edgesplit.cost_model import cost_model

from conftest import channel_at, make_params


# -- the per-stage scalar loops the table replaced ------------------------------

def _loop_stop_probabilities(policy, dists):
    M = policy.horizon_M
    if M == 0:
        return np.array([1.0])
    ds = per_stage(dists, M + 1)
    probs = np.empty(M + 1)
    reach = 1.0
    for n in range(1, M + 1):
        t = policy.thresholds[n - 1]
        cont = float(ds[n - 1].prob_below(t)) if not math.isinf(t) else 1.0
        probs[n - 1] = reach * (1.0 - cont)
        reach *= cont
    probs[M] = reach
    return probs


def _loop_stop_conditional_etc(policy, net, params, dists):
    M = policy.horizon_M
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz
    ds = per_stage(dists, M + 1)
    out = np.empty(M + 1)
    for n in range(1, M + 1):
        t = policy.thresholds[n - 1]
        dist = ds[n - 1]
        survive = 1.0 - float(dist.prob_below(t)) if not math.isinf(t) else 0.0
        if survive <= 0.0:
            out[n - 1] = 0.0
        else:
            tail = inv_rate_expectation(dist, t, bandwidth)
            out[n - 1] = cm.omega(n) + cm.weight(n) * tail / survive
    einv = inv_rate_expectation(ds[M], 0.0, bandwidth)
    out[M] = cm.omega(M + 1) + cm.weight(M + 1) * einv
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


# -- random problems -------------------------------------------------------------

_MEANS = st.floats(0.05, 40.0)


@st.composite
def _laws(draw):
    kind = draw(st.sampled_from(["truncated", "ceiling", "discrete"]))
    mean = draw(_MEANS)
    if kind == "truncated":
        return StageDistribution.truncated_exponential(mean)
    if kind == "ceiling":
        return StageDistribution.truncated_exponential(mean, upper=mean * draw(st.floats(0.5, 4.0)))
    snrs = sorted(set(draw(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=6))))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(snrs), max_size=len(snrs)))
    total = sum(weights)
    return StageDistribution.discrete([(s, w / total) for s, w in zip(snrs, weights)])


@st.composite
def _problems(draw):
    """(network, params, shared law or per-stage list) with 1..5 layers.

    A "wall" layer, whose payload dwarfs the next one's, puts a +inf 1-sla
    threshold at its stage.
    """
    N = draw(st.integers(1, 5))
    layers = [LayerSpec(workload_cycles=draw(st.floats(0.0, 5e8)),
                        input_bits=draw(st.floats(1e2, 1e7)),
                        download_seconds=draw(st.floats(0.0, 2.0)))
              for _ in range(N)]
    exit_bits = draw(st.floats(1e2, 1e6))
    wall = draw(st.one_of(st.none(), st.integers(0, N - 1)))
    if wall is not None:
        layers[wall] = LayerSpec(0.0, 1e15, layers[wall].download_seconds)
    net = NetworkSpec(tuple(layers), exit_bits)
    params = make_params(updates_per_model=draw(st.sampled_from([10.0, 200.0, math.inf])),
                         beta_t=draw(st.floats(0.1, 1.0)), beta_e=draw(st.floats(0.1, 1.0)))
    if draw(st.booleans()):
        dists = draw(_laws())
    else:
        dists = draw(st.lists(_laws(), min_size=N + 1, max_size=N + 1))
    return net, params, dists


def _check_sweep_rows(net, params, dists):
    """Each 1-sla row equals expected_etc of the policy cut at M, and the
    policy's tables equal the scalar loops, bit for bit."""
    full = one_sla_thresholds(net.N, net, params, dists)
    report = optimize_exhaustive(Problem(net, params, dists), rule_kind="one_sla")
    for M in range(net.N + 1):
        policy = ThresholdPolicy("one_sla", M, full.thresholds[:M])
        row = report.row(M)
        assert row.error is None
        assert _bits(row.expected_etc) == _bits(expected_etc(policy, net, params, dists))
        probs = stop_probabilities(policy, dists)
        conds = stop_conditional_etc(policy, net, params, dists)
        assert _bits(probs) == _bits(_loop_stop_probabilities(policy, dists))
        assert _bits(conds) == _bits(_loop_stop_conditional_etc(policy, net, params, dists))
        assert _bits(row.expected_etc) == _bits(float(np.dot(probs, conds)))
    return full


@given(problem=_problems())
def test_sweep_rows_equal_expected_etc_and_the_scalar_loops(problem):
    _check_sweep_rows(*problem)


def test_sweep_rows_with_infinite_threshold_and_discrete_stage(params):
    layers = [LayerSpec(1e7, 5e4, 0.1), LayerSpec(0.0, 1e15, 0.1), LayerSpec(2e7, 3e3, 0.1)]
    net = NetworkSpec(tuple(layers), 1e3)
    dists = [channel_at(40.0, params),
             StageDistribution.discrete([(0.1, 0.3), (0.8, 0.5), (3.0, 0.2)]),
             channel_at(90.0, params), channel_at(20.0, params)]
    full = _check_sweep_rows(net, params, dists)
    assert math.isinf(full.thresholds[1]) and not math.isinf(full.thresholds[0])


@given(problem=_problems(), mask=st.lists(st.booleans(), min_size=5, max_size=5))
def test_tables_of_any_thresholds_equal_the_scalar_loops(problem, mask):
    net, params, dists = problem
    full = one_sla_thresholds(net.N, net, params, dists)
    thresholds = [math.inf if hide else t for t, hide in zip(full.thresholds, mask)]
    policy = ThresholdPolicy("one_sla", net.N, thresholds)
    assert _bits(stop_probabilities(policy, dists)) == _bits(_loop_stop_probabilities(policy, dists))
    assert _bits(stop_conditional_etc(policy, net, params, dists)) == _bits(
        _loop_stop_conditional_etc(policy, net, params, dists))


def test_table_takes_one_cdf_call_per_distinct_law(autoencoder, params, dist_d50, monkeypatch):
    calls = []
    cdf = StageDistribution.cdf
    monkeypatch.setattr(StageDistribution, "cdf", lambda self, x: calls.append(self) or cdf(self, x))
    policy = one_sla_thresholds(8, autoencoder, params, dist_d50)
    table = stage_table(policy, dist_d50)
    assert calls == [dist_d50]
    assert table.reach[0] == 1.0 and table.reach.shape == (9,)
    other = channel_at(80.0, params)
    calls.clear()
    stage_table(policy, [dist_d50, other] * 4 + [other])
    assert calls == [dist_d50, other]
    calls.clear()
    stage_table(ThresholdPolicy("one_sla", 2, (math.inf, math.inf)), dist_d50)
    assert calls == []


# -- a failing stage tail ----------------------------------------------------------

def test_failing_stage_tail_marks_exactly_the_rows_that_reach_it(autoencoder, params,
                                                                  monkeypatch):
    dists = [channel_at(20.0 + 10.0 * k, params) for k in range(autoencoder.N + 1)]
    clean = optimize_exhaustive(Problem(autoencoder, params, dists), rule_kind="one_sla")
    thresholds = one_sla_thresholds(autoencoder.N, autoencoder, params, dists).thresholds
    failing = 4
    assert not math.isinf(thresholds[failing - 1])
    original = splitting.inv_rate_tails

    def tail_fails_at_one_stage(dist, thresholds, bandwidth_hz):
        if dist is dists[failing - 1] and any(t > 0.0 for t in thresholds):
            raise NumericalError(f"stage {failing} tail failed", estimate=1.0)
        return original(dist, thresholds, bandwidth_hz)

    monkeypatch.setattr(splitting, "inv_rate_tails", tail_fails_at_one_stage)
    report = optimize_exhaustive(Problem(autoencoder, params, dists), rule_kind="one_sla")
    for row, kept in zip(report.rows, clean.rows):
        if row.M < failing:
            assert row.error is None and row == kept
        else:
            assert row.error == f"stage {failing} tail failed"
            assert math.isnan(row.Z) and row.psi == kept.psi
    assert report.best_M == min((r for r in clean.rows if r.M < failing), key=lambda r: r.Z).M
    policy = ThresholdPolicy("one_sla", failing, thresholds[:failing])
    with pytest.raises(NumericalError, match=f"stage {failing} tail failed"):
        expected_etc(policy, autoencoder, params, dists)


# -- dominance of the optimal rule -----------------------------------------------------

@given(problem=_problems())
def test_optimal_rule_costs_no_more_than_one_sla_or_never_stopping(problem):
    net, params, dists = problem
    cm = cost_model(net, params)
    ds = per_stage(dists, net.N + 1)
    for M in range(1, net.N + 1):
        optimal = expected_etc(backward_induction(M, net, params, dists), net, params, dists)
        one_sla = expected_etc(one_sla_thresholds(M, net, params, dists), net, params, dists)
        never = expected_etc(ThresholdPolicy("one_sla", M, (math.inf,) * M), net, params, dists)
        assert never == cm.omega(M + 1) + cm.weight(M + 1) * inv_rate_expectation(
            ds[M], 0.0, params.bandwidth_hz)
        assert optimal <= one_sla * (1.0 + 1e-12)
        assert optimal <= never * (1.0 + 1e-12)


# -- the lockstep recursion against a scalar reference ------------------------------

def _reference_induction(M, net, params, dists):
    """Backward induction for horizon M alone, one adaptive quadrature per tail."""
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz
    inv_rate = lambda s: 1.0 / (bandwidth * np.log1p(s) / math.log(2.0))  # noqa: E731
    ev = cm.omega(M + 1) + cm.weight(M + 1) * ds[M].expect(inv_rate)
    thresholds, values = [], [ev]
    for n in range(M, 0, -1):
        t = _indifference(cm.weight(n), bandwidth, ev - cm.omega(n))
        if t < math.inf:
            cont = float(ds[n - 1].prob_below(t))
            ev = (cm.omega(n) * (1.0 - cont) + ev * cont
                  + cm.weight(n) * ds[n - 1].partial_expect(inv_rate, t, math.inf))
        thresholds.insert(0, t)
        values.insert(0, ev)
    return thresholds, values


def _indifference(weight, bandwidth, margin):
    exponent = weight / (bandwidth * margin) if margin > 0 else math.inf
    return math.expm1(exponent * math.log(2.0)) if exponent < 1024.0 else math.inf


@given(problem=_problems())
def test_lockstep_recursion_matches_the_scalar_reference(problem):
    net, params, dists = problem
    cm = cost_model(net, params)
    thresholds, values = optimal_recursion(range(net.N + 1), net, params, dists)
    for M in range(net.N + 1):
        own_t, own_v = thresholds[M, :M].tolist(), values[M, :M + 1].tolist()
        if M:
            policy = backward_induction(M, net, params, dists)
            assert policy.thresholds == tuple(own_t) and policy.value_table == tuple(own_v)
        # each threshold is the indifference SNR of the recursion's own values
        assert own_t == [_indifference(cm.weight(n), params.bandwidth_hz, own_v[n] - cm.omega(n))
                         for n in range(1, M + 1)]
        ref_t, ref_v = _reference_induction(M, net, params, dists)
        # the table read and the per-threshold rule accept different panels,
        # which agree to about 1e-10 relative near the floor of a wide law;
        # 2^x amplifies that in a threshold whose margin is small
        assert own_v == pytest.approx(ref_v, rel=1e-9)
        assert own_t == pytest.approx(ref_t, rel=1e-6)


def test_failing_stage_tail_fails_the_optimal_rule(autoencoder, params, monkeypatch):
    dists = [channel_at(20.0 + 10.0 * k, params) for k in range(autoencoder.N + 1)]
    short = backward_induction(3, autoencoder, params, dists)
    original = splitting.inv_rate_tails

    def stage_4_tail_fails(dist, thresholds, bandwidth_hz):
        if dist is dists[3]:
            raise NumericalError("stage 4 tail failed", estimate=1.0)
        return original(dist, thresholds, bandwidth_hz)

    monkeypatch.setattr(splitting, "inv_rate_tails", stage_4_tail_fails)
    with pytest.raises(NumericalError, match="stage 4 tail failed"):
        optimize_exhaustive(Problem(autoencoder, params, dists), rule_kind="optimal")
    assert backward_induction(3, autoencoder, params, dists) == short


# -- the optimal Z(M) is read off the value table ------------------------------------

@given(problem=_problems())
def test_optimal_rows_read_the_value_table(problem):
    net, params, dists = problem
    cm = cost_model(net, params)
    report = optimize_exhaustive(Problem(net, params, dists), rule_kind="optimal")
    for M in range(net.N + 1):
        policy = build_policy("optimal", M, net, params, dists)
        value = policy.value_table[0]
        row = report.row(M)
        assert _bits([row.Z, row.expected_etc]) == _bits([cm.total_cost(M, value), value])
        assert abs(value - expected_etc(policy, net, params, dists)) <= 1e-14 * abs(value)


# -- ties stop, on discrete laws too ---------------------------------------------------

def _laws_with_atoms_at_thresholds(rule, M, net, params, last):
    """Per-stage discrete laws with an atom at each finite threshold of `rule`.

    A stage-n threshold of either rule depends only on the laws of the later
    stages, so the laws are filled in from the back.
    """
    ds = [last] * (M + 1)
    for n in range(M, 0, -1):
        t = build_policy(rule, M, net, params, ds).thresholds[n - 1]
        assert math.isfinite(t)
        ds[n - 1] = StageDistribution.discrete([(0.5 * t, 0.3), (t, 0.4), (2.0 * t, 0.3)])
    return ds


def _enumerate(policy, net, params, ds):
    """Stop probabilities and expected cost over every atom sequence, by apply_rule."""
    probs = np.zeros(policy.horizon_M + 1)
    cost = 0.0
    for seq in itertools.product(*(d.atoms for d in ds)):
        p = math.prod(a[1] for a in seq)
        outcome = apply_rule(policy, [a[0] for a in seq], net, params)
        probs[outcome.stage - 1] += p
        cost += p * outcome.realized_etc
    return probs, cost


@pytest.mark.parametrize("rule", ["optimal", "one_sla"])
@pytest.mark.parametrize("M", [1, 2, 3])
def test_thresholds_on_atoms_match_atom_enumeration(rule, M, autoencoder, params):
    last = StageDistribution.discrete([(0.05, 0.5), (0.4, 0.3), (3.0, 0.2)])
    ds = _laws_with_atoms_at_thresholds(rule, M, autoencoder, params, last)
    policy = build_policy(rule, M, autoencoder, params, ds)
    probs, cost = _enumerate(policy, autoencoder, params, ds)
    assert stop_probabilities(policy, ds) == pytest.approx(probs, rel=1e-12, abs=1e-15)
    assert expected_etc(policy, autoencoder, params, ds) == pytest.approx(cost, rel=1e-12)
    if rule == "optimal":
        assert policy.value_table[0] == pytest.approx(cost, rel=1e-12)


def test_tie_at_an_atom_stops(autoencoder, params):
    d = StageDistribution.discrete([(1.0, 0.25), (2.0, 0.25), (4.0, 0.5)])
    assert stop_probabilities(ThresholdPolicy("one_sla", 1, (2.0,)), d).tolist() == [0.75, 0.25]
    policy = ThresholdPolicy("one_sla", 2, (2.0, 2.0))
    _, cost = _enumerate(policy, autoencoder, params, [d] * 3)
    assert expected_etc(policy, autoencoder, params, d) == pytest.approx(cost, rel=1e-12)
