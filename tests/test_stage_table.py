"""Stage tables: the stop statistics every expected cost and the 1-sla
placement sweep read, checked against the per-stage scalar loops they
replace; the dominance of the optimal rule over random problems; the
properties of both rules that hold, and one that does not; and five of the
model's invariants as metamorphic properties over random problems."""
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesplit import (
    NumericalError,
    Problem,
    StageDistribution,
    apply_rule,
    backward_induction,
    hybrid,
    one_sla_thresholds,
    optimize_exhaustive,
)
from edgesplit.channel import TailTable, per_stage
from edgesplit.cost_model import SystemParams, cost_model, uplink_rate
from edgesplit.model_graph import LayerSpec, NetworkSpec
from edgesplit.splitting import ThresholdPolicy, expected_etc

from conftest import (
    atom_pairs,
    channel_at,
    expect,
    inv_rate_tail,
    make_params,
    stop_conditional_etc,
    stop_probabilities,
)


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
        cont = ds[n - 1].prob_below([t])[0] if not math.isinf(t) else 1.0
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
        survive = 1.0 - dist.prob_below([t])[0] if not math.isinf(t) else 0.0
        if survive <= 0.0:
            out[n - 1] = 0.0
        else:
            tail = inv_rate_tail(dist, t, bandwidth)
            out[n - 1] = cm.omega(n) + cm.weight(n) * tail / survive
    einv = inv_rate_tail(ds[M], 0.0, bandwidth)
    out[M] = cm.omega(M + 1) + cm.weight(M + 1) * einv
    return out


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


# -- random problems -------------------------------------------------------------

_MEANS = st.floats(0.05, 40.0)


@st.composite
def _laws(draw):
    kind = draw(st.sampled_from(["truncated", "discrete"]))
    mean = draw(_MEANS)
    if kind == "truncated":
        return StageDistribution.truncated_exponential(mean)
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
        assert _bits(row.expected_etc) == _bits(expected_etc(policy, net, params, dists))
        probs = stop_probabilities(policy, net, params, dists)
        conds = stop_conditional_etc(policy, net, params, dists)
        assert _bits(probs) == _bits(_loop_stop_probabilities(policy, dists))
        assert _bits(conds) == _bits(_loop_stop_conditional_etc(policy, net, params, dists))
        assert _bits(row.expected_etc) == _bits(math.fsum(np.multiply(probs, conds)))
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
    assert _bits(stop_probabilities(policy, net, params, dists)) == _bits(
        _loop_stop_probabilities(policy, dists))
    assert _bits(stop_conditional_etc(policy, net, params, dists)) == _bits(
        _loop_stop_conditional_etc(policy, net, params, dists))


def test_table_takes_one_cdf_call_per_distinct_law(autoencoder, params, dist_d50, monkeypatch):
    calls = []
    cdf = StageDistribution.cdf
    monkeypatch.setattr(StageDistribution, "cdf", lambda self, x: calls.append(self) or cdf(self, x))
    problem = Problem(autoencoder, params, dist_d50)
    policy = problem.policy("one_sla", 8)
    table = problem.stage_table(policy)
    assert calls == [dist_d50]
    assert table.reach[0] == 1.0 and len(table.reach) == 9
    other = channel_at(80.0, params)
    calls.clear()
    Problem(autoencoder, params, [dist_d50, other] * 4 + [other]).stage_table(policy)
    assert calls == [dist_d50, other]
    calls.clear()
    problem.stage_table(ThresholdPolicy("one_sla", 2, (math.inf, math.inf)))
    assert calls == []


# -- a failing stage tail ----------------------------------------------------------

def test_failing_stage_tail_fails_the_one_sla_rule_and_hybrid(autoencoder, params, monkeypatch):
    dists = [channel_at(20.0 + 10.0 * k, params) for k in range(autoencoder.N + 1)]
    thresholds = one_sla_thresholds(autoencoder.N, autoencoder, params, dists).thresholds
    failing = 4
    assert not math.isinf(thresholds[failing - 1])
    original = TailTable.tails

    def tail_fails_at_one_stage(table, thresholds):
        if table.dist is dists[failing - 1] and any(t > 0.0 for t in thresholds):
            raise NumericalError(f"stage {failing} tail failed", estimate=1.0)
        return original(table, thresholds)

    monkeypatch.setattr(TailTable, "tails", tail_fails_at_one_stage)
    with pytest.raises(NumericalError, match=f"stage {failing} tail failed"):
        optimize_exhaustive(Problem(autoencoder, params, dists), rule_kind="one_sla")
    with pytest.raises(NumericalError, match=f"stage {failing} tail failed"):
        hybrid(Problem(autoencoder, params, dists))
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
        assert never == cm.omega(M + 1) + cm.weight(M + 1) * inv_rate_tail(
            ds[M], 0.0, params.bandwidth_hz)
        assert optimal <= one_sla * (1.0 + 1e-12)
        assert optimal <= never * (1.0 + 1e-12)


# -- the lockstep recursion against a scalar reference ------------------------------

def _reference_induction(M, net, params, dists):
    """Backward induction for horizon M alone, one `partial_expect` per tail."""
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz
    inv_rate = lambda s: 1.0 / (bandwidth * np.log1p(s) / math.log(2.0))  # noqa: E731
    ev = cm.omega(M + 1) + cm.weight(M + 1) * expect(ds[M], inv_rate)
    thresholds, values = [], [ev]
    for n in range(M, 0, -1):
        t = _indifference(cm.weight(n), bandwidth, ev - cm.omega(n))
        if t < math.inf:
            cont = ds[n - 1].prob_below([t])[0]
            ev = (cm.omega(n) * (1.0 - cont) + ev * cont
                  + cm.weight(n) * ds[n - 1].partial_expect(inv_rate, t))
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
    ds = per_stage(dists, net.N + 1)
    problem = Problem(net, params, dists)
    transmission = problem.transmission
    costs = problem.optimal[0]
    assert len(costs) == net.N + 1
    for M in range(net.N + 1):
        policy = problem.policy("optimal", M)
        own_t, own_v = list(policy.thresholds), list(policy.value_table)
        assert (policy.horizon_M, costs[M]) == (M, own_v[0])
        if M:
            assert backward_induction(M, net, params, dists) == policy
        # each threshold is the indifference SNR of its margin: the excess over
        # omega carried from the stage above plus the layer's local gap; each
        # value is omega plus the stage's new excess, from the same table reads
        excess = transmission[M]
        assert own_v[M] == cm.omega(M + 1) + excess
        for n in range(M, 0, -1):
            margin = excess = excess + cm.local_gap(n)
            t = _indifference(cm.weight(n), params.bandwidth_hz, margin)
            assert own_t[n - 1] == t
            if t < math.inf:
                cont = ds[n - 1].prob_below([t])[0]
                excess = cm.weight(n) * inv_rate_tail(ds[n - 1], t, params.bandwidth_hz) + margin * cont
            assert own_v[n - 1] == cm.omega(n) + excess
        ref_t, ref_v = _reference_induction(M, net, params, dists)
        # the table read and `partial_expect` from t run the rule on different
        # panels, and the reference takes np.log1p where the table takes
        # math.log1p; 2^x amplifies a last-digit gap in a threshold whose
        # margin is small
        assert own_v == pytest.approx(ref_v, rel=1e-9)
        assert own_t == pytest.approx(ref_t, rel=1e-6)


def test_failing_stage_tail_fails_the_optimal_rule(autoencoder, params, monkeypatch):
    dists = [channel_at(20.0 + 10.0 * k, params) for k in range(autoencoder.N + 1)]
    short = backward_induction(3, autoencoder, params, dists)
    original = TailTable.tails

    def stage_4_tail_fails(table, thresholds):
        if table.dist is dists[3]:
            raise NumericalError("stage 4 tail failed", estimate=1.0)
        return original(table, thresholds)

    monkeypatch.setattr(TailTable, "tails", stage_4_tail_fails)
    with pytest.raises(NumericalError, match="stage 4 tail failed"):
        optimize_exhaustive(Problem(autoencoder, params, dists), rule_kind="optimal")
    assert backward_induction(3, autoencoder, params, dists) == short


# -- one margin for both rules ------------------------------------------------------

@given(problem=_problems())
def test_one_sla_thresholds_are_the_top_stage_of_the_optimal_recursion(problem):
    """The 1-sla rule's stage-M threshold is backward induction at horizon M
    cut to its top stage, bit for bit."""
    net, params, dists = problem
    for M in range(1, net.N + 1):
        one_sla = one_sla_thresholds(M, net, params, dists).thresholds[M - 1]
        optimal = backward_induction(M, net, params, dists).thresholds[M - 1]
        assert _bits(one_sla) == _bits(optimal), M


@st.composite
def _heavy_front_problems(draw):
    """A deep network whose first three layers take 1e10 to 1e14 cycles and
    the later ones 1 to 1e4, so that omega(n) dwarfs every later layer's own
    cost, with a shared law or one law per stage."""
    N = draw(st.integers(5, 40))
    cycles = ([10.0 ** draw(st.floats(10.0, 14.0)) for _ in range(3)]
              + [10.0 ** draw(st.floats(0.0, 4.0)) for _ in range(N - 3)])
    layers = [LayerSpec(c, draw(st.floats(1e2, 1e7)), 0.1) for c in cycles]
    net = NetworkSpec(tuple(layers), draw(st.floats(1e2, 1e6)))
    params = make_params(beta_t=draw(st.floats(0.1, 1.0)), beta_e=draw(st.floats(0.1, 1.0)))
    if draw(st.booleans()):
        dists = draw(_laws())
    else:
        dists = draw(st.lists(_laws(), min_size=N + 1, max_size=N + 1))
    return net, params, dists


@given(problem=_heavy_front_problems())
def test_thresholds_of_both_rules_match_50_digit_margins(problem):
    """Each finite threshold t of either rule is the indifference SNR of a
    margin within 1e-12 of the margin worked out in 50 digits from omega:
    V(n+1) - omega(n) for the optimal rule at every horizon, and omega(n+1) +
    weight(n+1) * E[1/R_{n+1}] - omega(n) for the 1-sla rule. The reference
    reads E[1/R], its tails and P{SNR < t} as floats off the law's table, at
    the rule's own t, so it checks the cost algebra alone. An infinite
    threshold needs a margin at which stopping never wins."""
    import mpmath
    from mpmath import mpf

    net, params, dists = problem
    ds = per_stage(dists, net.N + 1)
    bandwidth = params.bandwidth_hz
    with mpmath.workdps(50):
        cycles = [mpf(layer.workload_cycles) for layer in net.layers]
        total = mpmath.fsum(cycles)
        f_l, f_e = mpf(params.local_freq_hz), mpf(params.edge_freq_hz)
        omega, local = [], mpf(0)
        for n in range(1, net.N + 2):  # omega[n - 1] = omega(n)
            omega.append(params.beta_t * (local / f_l + (total - local) / f_e)
                         + mpf(params.beta_e) * params.kappa * f_l**2 * local)
            local += cycles[n - 1] if n <= net.N else 0
        per_bit = mpf(params.beta_t) + mpf(params.beta_e) * params.tx_power_w
        weight = [per_bit * net.input_bits(n) for n in range(1, net.N + 2)]
        einv = [mpf(inv_rate_tail(d, 0.0, bandwidth)) for d in ds]
        forced = [o + w * e for o, w, e in zip(omega, weight, einv)]

        def check(t, n, margin, where):
            if math.isinf(t):
                assert weight[n - 1] / (bandwidth * margin) >= 1024 * (1 - mpf(1e-12)), where
            else:
                implied = weight[n - 1] * mpmath.log(2) / (bandwidth * mpmath.log1p(t))
                assert abs(implied - margin) <= mpf(1e-12) * margin, where

        one_sla = one_sla_thresholds(net.N, net, params, dists).thresholds
        for n, t in enumerate(one_sla, 1):
            check(t, n, forced[n] - omega[n - 1], ("one_sla", n))
        problem = Problem(net, params, dists)
        costs = problem.optimal[0]
        for M in range(1, net.N + 1):
            policy, value = problem.policy("optimal", M), forced[M]
            thresholds = policy.thresholds
            assert policy.value_table[0] == costs[M]
            for n in range(M, 0, -1):
                t = thresholds[n - 1]
                margin = value - omega[n - 1]
                check(t, n, margin, ("optimal", M, n))
                if math.isfinite(t):
                    cont = mpf(ds[n - 1].prob_below([t])[0])
                    tail = mpf(inv_rate_tail(ds[n - 1], t, bandwidth))
                    value = omega[n - 1] + weight[n - 1] * tail + margin * cont


# -- the optimal Z(M) is read off the value table ------------------------------------

@given(problem=_problems())
def test_optimal_rows_read_the_value_table(problem):
    net, params, dists = problem
    cm = cost_model(net, params)
    report = optimize_exhaustive(Problem(net, params, dists), rule_kind="optimal")
    for M in range(net.N + 1):
        policy = Problem(net, params, dists, M).policy("optimal", M)
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
        t = Problem(net, params, ds, M).policy(rule, M).thresholds[n - 1]
        assert math.isfinite(t)
        ds[n - 1] = StageDistribution.discrete([(0.5 * t, 0.3), (t, 0.4), (2.0 * t, 0.3)])
    return ds


def _enumerate(policy, net, params, ds):
    """Stop probabilities and expected cost over every atom sequence, by apply_rule."""
    probs = np.zeros(policy.horizon_M + 1)
    cost = 0.0
    for seq in itertools.product(*(atom_pairs(d) for d in ds)):
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
    policy = Problem(autoencoder, params, ds, M).policy(rule, M)
    probs, cost = _enumerate(policy, autoencoder, params, ds)
    assert stop_probabilities(policy, autoencoder, params, ds) == pytest.approx(probs, rel=1e-12,
                                                                                abs=1e-15)
    assert expected_etc(policy, autoencoder, params, ds) == pytest.approx(cost, rel=1e-12)
    if rule == "optimal":
        assert policy.value_table[0] == pytest.approx(cost, rel=1e-12)


def test_tie_at_an_atom_stops(autoencoder, params):
    d = StageDistribution.discrete([(1.0, 0.25), (2.0, 0.25), (4.0, 0.5)])
    assert stop_probabilities(ThresholdPolicy("one_sla", 1, (2.0,)), autoencoder, params, d) == [
        0.75, 0.25]
    policy = ThresholdPolicy("one_sla", 2, (2.0, 2.0))
    _, cost = _enumerate(policy, autoencoder, params, [d] * 3)
    assert expected_etc(policy, autoencoder, params, d) == pytest.approx(cost, rel=1e-12)


# -- properties of the two rules ----------------------------------------------------

@given(problem=_problems())
def test_one_sla_is_optimal_where_its_optimality_probability_is_one(problem):
    # the monotone case: once the 1-sla rule calls for a stop it calls for one at
    # every later stage, and then it is the optimal rule
    net, params, dists = problem
    shared = Problem(net, params, dists)
    for M in range(net.N + 1):
        if shared.optimality_probability(M) == 1.0:
            one_sla = expected_etc(one_sla_thresholds(M, net, params, dists), net, params, dists)
            optimal = backward_induction(M, net, params, dists).value_table[0]
            assert one_sla == pytest.approx(optimal, rel=1e-12)


@given(problem=_problems())
def test_a_threshold_is_infinite_exactly_where_stopping_never_wins(problem):
    """Stage n's threshold is +inf iff the stop cost at the largest double SNR
    exceeds what the rule compares it with: the optimal rule's continuation
    value, and the 1-sla rule's cost of one more layer and a stop at n+1."""
    net, params, dists = problem
    cm = cost_model(net, params)
    ds = per_stage(dists, net.N + 1)
    top = uplink_rate(sys.float_info.max, params)
    optimal = backward_induction(net.N, net, params, dists)
    one_sla = one_sla_thresholds(net.N, net, params, dists)
    for n in range(1, net.N + 1):
        ahead = cm.omega(n + 1) + cm.weight(n + 1) * inv_rate_tail(ds[n], 0.0, params.bandwidth_hz)
        for policy, continuation in ((optimal, optimal.value_table[n]), (one_sla, ahead)):
            t = policy.thresholds[n - 1]
            best_stop = cm.omega(n) + cm.weight(n) / top
            if math.isinf(t):
                assert best_stop >= continuation * (1.0 - 1e-12), (policy.rule_kind, n)
            else:
                # the threshold is the indifference SNR
                stop = cm.omega(n) + cm.weight(n) / uplink_rate(t, params) if t > 0 else math.inf
                assert best_stop < continuation * (1.0 + 1e-12), (policy.rule_kind, n)
                assert t == 0.0 or stop == pytest.approx(continuation, rel=1e-9), (policy.rule_kind, n)


def test_one_sla_can_cost_more_than_never_stopping(params):
    """"1-sla <= never stopping" is not a property of the rule: a look-ahead of
    one stage does not see a payload that shrinks two stages on. Layers 1 and
    2 cost nothing and take 1e6 bits each, the exit takes 100 bits; the 1-sla
    rule stops at stage 1 on any SNR at which it costs no more than stage 2
    would, and pays for 1e6 bits where never stopping uploads 100."""
    net = NetworkSpec((LayerSpec(0.0, 1e6, 0.1), LayerSpec(0.0, 1e6, 0.1)), 100.0)
    law = StageDistribution.truncated_exponential(5.0)
    one_sla = expected_etc(one_sla_thresholds(2, net, params, law), net, params, law)
    never = expected_etc(ThresholdPolicy("one_sla", 2, (math.inf, math.inf)), net, params, law)
    optimal = backward_induction(2, net, params, law).value_table[0]
    assert one_sla > 1000.0 * never
    assert optimal <= never


# -- metamorphic properties: the model's invariants over random problems ------------

def _ulps_apart(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b))) if a != b else 0.0


def _plans(problem):
    """Every Z and expected cost of the two exhaustive sweeps and hybrid, their
    best M, and the thresholds of both rules at every horizon."""
    reports = [optimize_exhaustive(problem, rule) for rule in ("optimal", "one_sla")]
    reports.append(hybrid(problem))
    thresholds = [t for rule in ("optimal", "one_sla") for M in range(problem.M + 1)
                  for t in problem.policy(rule, M).thresholds]
    return reports, thresholds


@settings(max_examples=200)
@given(problem=_problems(),
       c=st.one_of(st.integers(-20, 20).map(lambda k: 2.0**k), st.floats(0.01, 100.0)))
def test_cost_weights_scale_every_cost_and_keep_every_decision(problem, c):
    """(beta_t, beta_e) -> c (beta_t, beta_e) scales omega, every payload weight
    and psi's weight by c, so every Z and expected cost by c, and leaves every
    threshold and best M as they are: a threshold is the indifference SNR of
    weight / margin, a ratio in which c cancels.

    Tolerance: 0 ulps where c is a power of two, for then every product by c is
    exact and every later sum and ratio sees exactly scaled operands. Otherwise
    c beta rounds, and so does each table entry and sum built on it, along
    another path than c Z: Z and expected cost may land up to 16 ulps from c Z
    (7 is the most seen over 2,000 random problems). A threshold is compared as
    its exponent log1p(t) = weight ln 2 / (B margin), to the same 16 ulps, since
    t = 2^x - 1 amplifies a relative error in x by up to x ln 2, which is 710
    at the largest finite threshold. A best M must then stay unless another
    row's Z lies within that tolerance of the best one's."""
    net, params, dists = problem
    exact = math.frexp(c)[0] == 0.5
    ulps = 0 if exact else 16
    scaled = SystemParams(**{**params.to_json_dict(), "beta_t": c * params.beta_t,
                             "beta_e": c * params.beta_e})
    reports, thresholds = _plans(Problem(net, params, dists))
    scaled_reports, scaled_thresholds = _plans(Problem(net, scaled, dists))
    for rep, other in zip(reports, scaled_reports):
        for row, scaled_row in zip(rep.rows, other.rows):
            assert _ulps_apart(scaled_row.Z, c * row.Z) <= ulps, (rep.strategy, row.M)
            assert _ulps_apart(scaled_row.expected_etc, c * row.expected_etc) <= ulps, (rep.strategy, row.M)
        best = rep.row(rep.best_M).Z
        runner_up = min((r.Z for r in rep.rows if r.M != rep.best_M), default=math.inf)
        if exact or runner_up - best > 2 * ulps * math.ulp(best):
            assert other.best_M == rep.best_M, rep.strategy
    for t, scaled_t in zip(thresholds, scaled_thresholds):
        if exact or math.isinf(t) or math.isinf(scaled_t):
            assert scaled_t == t
        else:
            assert _ulps_apart(math.log1p(scaled_t), math.log1p(t)) <= ulps


# The tails E[1/R] are accurate to about 1e-14 relative (README, numerical
# notes), and two horizons or two laws read them at other thresholds or off
# other panels: a cost may rise by that much where the model has it fall by less.
_TAIL_REL = 1e-13


@settings(max_examples=200)
@given(problem=_problems())
def test_a_longer_horizon_costs_no_more(problem):
    """V_M(1) is nonincreasing in M: at horizon M + 1, threshold 0 at stage
    M + 1 recovers horizon M's forced stop there, so the optimum can only
    improve."""
    net, params, dists = problem
    costs = Problem(net, params, dists).optimal[0]
    for M in range(net.N):
        assert costs[M + 1] <= costs[M] * (1.0 + _TAIL_REL), M


def _scaled_law(law: StageDistribution, s: float) -> StageDistribution:
    """The law of s SNR: the exponential kind's mean times s at the same floor
    ratio, or every atom times s."""
    if law.kind == "discrete":
        return StageDistribution.discrete([(snr * s, p) for snr, p in zip(law.snrs, law.probs)])
    return StageDistribution("truncated_exponential", law.mean_snr * s, law.support_lo * s)


@settings(max_examples=200)
@given(problem=_problems(), s=st.floats(1.0, 10.0))
def test_a_stronger_channel_costs_no_more(problem, s):
    """Scaling every stage's SNR by s >= 1, at the same floor ratio, gives a law
    that dominates it stochastically; a stop cost falls with the SNR, so no
    V_M(1) rises (Mueller and Stoyan, Comparison Methods for Stochastic Models
    and Risks, 2002)."""
    net, params, dists = problem
    stronger = (_scaled_law(dists, s) if isinstance(dists, StageDistribution)
                else [_scaled_law(d, s) for d in dists])
    costs = Problem(net, params, dists).optimal[0]
    for M, cost in enumerate(Problem(net, params, stronger).optimal[0]):
        assert cost <= costs[M] * (1.0 + _TAIL_REL), M


# K over six decades and without a download charge
_UPDATES = (1.0, 2.0, 4.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1e3, 1e4, 1e5, 1e6, math.inf)


@settings(max_examples=200)
@given(problem=_problems())
def test_the_best_placement_is_nondecreasing_in_k(problem):
    """Z(M) = beta_t D(M) / K + the expected cost at M, with D(M), the download
    seconds of the first M layers, nondecreasing in M. So Z(M') - Z(M) for
    M' > M is nonincreasing in K, and the first minimizer of Z, where ties go
    to the smaller M as in `_pick_best`, is nondecreasing in K (Topkis,
    Operations Research 1978): amortized over more inferences, the download
    never makes fewer layers pay. `hybrid` picks its M off the 1-sla rows,
    so its best M is the 1-sla one.

    Tolerance: rounding can part from this only where, at the smaller K, the
    best M beat the smaller M that takes over by a near-tie, within 4 ulps:
    each Z is a sum of the K-free expected cost and beta_t D(M) / K, each step
    of which rounds once. An exact tie at the larger K is no excuse, for in
    exact arithmetic the best M still wins there by at least its margin at the
    smaller K. Over 2,000 random problems the best M moved with K on 637, and
    never fell."""
    net, params, dists = problem
    problem, last = Problem(net, params, dists), {}
    for K in _UPDATES:
        problem = problem.with_updates(K)
        optimal, one_sla = (optimize_exhaustive(problem, rule) for rule in ("optimal", "one_sla"))
        for rep in (optimal, one_sla):
            if rep.strategy in last:
                before, before_rows = last[rep.strategy]
                if rep.best_M < before:
                    margin = before_rows[rep.best_M].Z - before_rows[before].Z
                    assert margin <= 4 * math.ulp(before_rows[before].Z), (rep.strategy, K, before, rep.best_M)
            last[rep.strategy] = rep.best_M, rep.rows
    assert hybrid(problem).best_M == one_sla.best_M


@settings(max_examples=200)
@given(problem=_problems(), at=st.integers(0, 3))
def test_fewer_split_points_cost_no_less(problem, at):
    """Merging layers k and k+1 into one layer, with their cycles and
    download times summed and layer k's input bits, takes stage k+1 away as
    a split point and leaves every other stage's omega, weight and law. So
    the merged network at horizon M' is the original at the matching
    horizon, M' below k and M' + 1 from k on, with one stopping chance fewer
    where M' >= k: its V_M'(1) is no lower (threshold +inf at stage k+1
    recovers the merged policy), and equal where M' < k."""
    net, params, dists = problem
    if net.N < 2:
        return
    k = 1 + at % (net.N - 1)  # 1-based: layers k and k + 1 merge
    first, second = net.layers[k - 1], net.layers[k]
    merged_layer = LayerSpec(first.workload_cycles + second.workload_cycles, first.input_bits,
                             first.download_seconds + second.download_seconds)
    merged = NetworkSpec(net.layers[:k - 1] + (merged_layer,) + net.layers[k + 1:], net.exit_input_bits)
    laws = dists if isinstance(dists, StageDistribution) else dists[:k] + dists[k + 1:]
    costs = Problem(net, params, dists).optimal[0]
    for M, cost in enumerate(Problem(merged, params, laws).optimal[0]):
        matching = costs[M if M < k else M + 1]
        assert matching <= cost * (1.0 + _TAIL_REL), (k, M)
        if M < k:
            assert cost <= matching * (1.0 + _TAIL_REL), (k, M)
