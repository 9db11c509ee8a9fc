"""Stopping rules: thresholds, application, analytic performance."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesplit import (
    NumericalError,
    Problem,
    StageDistribution,
    apply_rule,
    backward_induction,
    coincidence_rate,
    forced_offload_policy,
    one_sla_thresholds,
    oracle_dp,
)
from edgesplit.channel import per_stage
from edgesplit.cost_model import cost_model
from edgesplit import splitting
from edgesplit.model_graph import LayerSpec, MlpSpec, NetworkSpec, build_mlp
from edgesplit.splitting import ThresholdPolicy, expected_etc

from conftest import (
    DOWNLINK_BPS,
    expect,
    forced_stop_cost,
    inv_rate_tail,
    make_params,
    stop_conditional_etc,
    stop_cost,
    stop_probabilities,
)
from test_stage_table import _problems


def inv_rate_fn(params):
    return lambda s: 1.0 / (params.bandwidth_hz * np.log1p(s) / math.log(2.0))


# -- backward induction -------------------------------------------------------

def test_threshold_is_indifference_point(autoencoder, params, dist_d50):
    for M in (1, 4, 8):
        pol = backward_induction(M, autoencoder, params, dist_d50)
        for n in range(1, M + 1):
            t = pol.thresholds[n - 1]
            if math.isinf(t):
                continue
            stop_now = stop_cost(autoencoder, params, n, t)
            continue_value = pol.value_table[n]
            assert stop_now == pytest.approx(continue_value, abs=1e-8)


def test_value_table_reconstructs_recursion(autoencoder, params, dist_d50):
    M = 8
    pol = backward_induction(M, autoencoder, params, dist_d50)
    cm = cost_model(autoencoder, params)
    bandwidth = params.bandwidth_hz
    # last stage: unconditional stop cost
    expected_last = cm.omega(M + 1) + cm.weight(M + 1) * expect(dist_d50, inv_rate_fn(params))
    assert pol.value_table[M] == pytest.approx(expected_last, rel=1e-10)
    for n in range(M, 0, -1):
        t = pol.thresholds[n - 1]
        cont = dist_d50.cdf([t])[0]
        tail = dist_d50.partial_expect(inv_rate_fn(params), t)
        recon = cm.omega(n) * (1 - cont) + cm.weight(n) * tail + pol.value_table[n] * cont
        assert pol.value_table[n - 1] == pytest.approx(recon, rel=1e-10)


def test_backward_induction_matches_enumeration_on_deterministic_channel(autoencoder, params):
    # single-atom law at every stage: the policy must pick the cheapest stage
    gamma0 = 0.7
    atom = StageDistribution.discrete([(gamma0, 1.0)])
    cm = cost_model(autoencoder, params)
    for M in (1, 3, 8):
        pol = backward_induction(M, autoencoder, params, atom)
        outcome = apply_rule(pol, [gamma0] * (M + 1), autoencoder, params)
        by_enumeration = min(range(1, M + 2), key=lambda n: stop_cost(autoencoder, params, n, gamma0))
        assert outcome.stage == by_enumeration
        assert expected_etc(pol, autoencoder, params, atom) == pytest.approx(
            stop_cost(autoencoder, params, by_enumeration, gamma0), rel=1e-12)


def test_backward_induction_bounds(autoencoder, params, dist_d50):
    for M in (-1, autoencoder.N + 1):
        with pytest.raises(ValueError):
            backward_induction(M, autoencoder, params, dist_d50)
    forced = forced_stop_cost(cost_model(autoencoder, params), 1, dist_d50)
    assert backward_induction(0, autoencoder, params, dist_d50) == ThresholdPolicy("optimal", 0, (), (forced,))


@given(problem=_problems())
def test_horizon_zero_is_the_forced_offload(problem):
    """At M = 0 both rules, the oracle and the two agreement measures take the
    general path, and it gives the offload at stage 1 whatever the laws."""
    net, params, dists = problem
    cm = cost_model(net, params)
    law = per_stage(dists, 1)[0]
    forced = forced_stop_cost(cm, 1, law)
    problem = Problem(net, params, dists)
    assert problem.policy("optimal", 0) == ThresholdPolicy("optimal", 0, (), (forced,))
    assert problem.policy("one_sla", 0) == ThresholdPolicy("one_sla", 0, ())
    atoms = law if law.kind == "discrete" else law.discretize(64)
    oracle = oracle_dp(0, net, params, atoms)
    assert oracle.thresholds == ()
    assert oracle.expected_cost == pytest.approx(forced_stop_cost(cm, 1, atoms), rel=1e-12)
    assert coincidence_rate(0, net, params, dists, 100, seed=1) == 1.0
    assert problem.optimality_probability(0) == 1.0


def test_never_stop_sentinel():
    # huge payload at stage 1, near-free continuation: no representable SNR
    # makes stopping at stage 1 competitive
    net = build_mlp(MlpSpec((20000, 1, 1), 8, 8, 1, 1e9))
    params = make_params()
    dist = StageDistribution.truncated_exponential(0.5)
    pol = backward_induction(2, net, params, dist)
    assert math.isinf(pol.thresholds[0])
    probs = stop_probabilities(pol, net, params, dist)
    assert probs[0] == 0.0
    seq = [1e300, 0.5, 0.5]
    assert apply_rule(pol, seq, net, params).stage != 1


# -- one-stage look-ahead -------------------------------------------------------

def test_one_sla_defining_inequality(autoencoder, params, dist_d50):
    """At the threshold, stopping equals the expected cost of one more stage."""
    M = 8
    pol = one_sla_thresholds(M, autoencoder, params, dist_d50)
    cm = cost_model(autoencoder, params)
    for n in range(1, M + 1):
        t = pol.thresholds[n - 1]
        stop_now = stop_cost(autoencoder, params, n, t)
        next_expected = cm.omega(n + 1) + cm.weight(n + 1) * expect(dist_d50, inv_rate_fn(params))
        assert stop_now == pytest.approx(next_expected, rel=1e-10)


def test_one_sla_equal_width_constant(params, dist_d50):
    mlp = MlpSpec((128,) * 9, 8, 8, 100, DOWNLINK_BPS)
    pol = one_sla_thresholds(8, build_mlp(mlp), params, dist_d50)
    assert max(pol.thresholds) - min(pol.thresholds) <= 1e-10


def test_one_sla_m_independent(autoencoder, params, dist_d50):
    full = one_sla_thresholds(8, autoencoder, params, dist_d50)
    for M in (1, 3, 5):
        part = one_sla_thresholds(M, autoencoder, params, dist_d50)
        assert part.thresholds == full.thresholds[:M]


def test_one_sla_equals_optimal_at_horizon_one(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        opt = backward_induction(1, net, params, dist_d50)
        sla = one_sla_thresholds(1, net, params, dist_d50)
        assert sla.thresholds[0] == pytest.approx(opt.thresholds[0], abs=1e-8)


def test_one_sla_threshold_decreases_with_local_workload(params, dist_d50):
    def threshold(alpha):
        net = build_mlp(MlpSpec((64, 64, 64), 8, 8, alpha, DOWNLINK_BPS))
        return one_sla_thresholds(1, net, params, dist_d50).thresholds[0]

    vals = [threshold(a) for a in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("rule", ["optimal", "one_sla"])
@pytest.mark.parametrize("M", range(9))
def test_build_policy_matches_direct_constructors(rule, M, autoencoder, params, dist_d50):
    """`Problem.policy`, which replaced `build_policy`, gives what the
    module-level builders give."""
    got = Problem(autoencoder, params, dist_d50).policy(rule, M)
    if M == 0:
        want = forced_offload_policy(rule, autoencoder, params, dist_d50)
    elif rule == "optimal":
        want = backward_induction(M, autoencoder, params, dist_d50)
    else:
        want = one_sla_thresholds(M, autoencoder, params, dist_d50)
    assert got == want


def test_build_policy_rejects_unknown_rule(autoencoder, params, dist_d50):
    """`Problem.policy`, which replaced `build_policy`, names the rule_kind."""
    for M in (0, 2):
        with pytest.raises(ValueError, match="rule_kind"):
            Problem(autoencoder, params, dist_d50).policy("custom", M)


# -- rule application -------------------------------------------------------------

def test_apply_rule_m0_always_stage_one(autoencoder, params, dist_d50):
    pol = forced_offload_policy("optimal", autoencoder, params, dist_d50)
    out = apply_rule(pol, [0.9], autoencoder, params)
    assert out.stage == 1
    assert out.realized_etc == cost_model(autoencoder, params).etc_values([1], [0.9])[0]


def test_apply_rule_first_crossing_and_fallback(autoencoder, params):
    pol = ThresholdPolicy("one_sla", 3, (1.0, 2.0, 3.0))
    hit_first = apply_rule(pol, [1.5, 0.1, 0.1, 0.1], autoencoder, params)
    assert hit_first.stage == 1
    tie_stops = apply_rule(pol, [1.0, 0.1, 0.1, 0.1], autoencoder, params)
    assert tie_stops.stage == 1
    all_below = apply_rule(pol, [0.5, 1.5, 2.5, 0.2], autoencoder, params)
    assert all_below.stage == 4
    assert all_below.snr_at_stop == 0.2
    later = apply_rule(pol, [0.5, 2.5, 0.1, 0.2], autoencoder, params)
    assert later.stage == 2


def test_apply_rule_monotone_in_observations(autoencoder, params, dist_d50):
    pol = backward_induction(5, autoencoder, params, dist_d50)
    rng = np.random.default_rng(17)
    for _ in range(200):
        seq = dist_d50.quantile(rng.random(6))
        stage = apply_rule(pol, seq, autoencoder, params).stage
        k = int(rng.integers(0, 6))
        bumped = seq.copy()
        bumped[k] *= 1.5
        assert apply_rule(pol, bumped, autoencoder, params).stage <= stage or \
            apply_rule(pol, bumped, autoencoder, params).stage == stage


def test_apply_rule_needs_full_sequence(autoencoder, params, dist_d50):
    pol = backward_induction(3, autoencoder, params, dist_d50)
    with pytest.raises(ValueError):
        apply_rule(pol, [1.0, 1.0, 1.0], autoencoder, params)


def _three_layers():
    return build_mlp(MlpSpec((16,) * 4, 8, 8, 100, DOWNLINK_BPS))


def test_a_margin_at_which_stopping_never_wins_is_an_infinite_threshold():
    assert splitting._indifference_threshold(1.0, 1e6, 0.0) == math.inf
    assert splitting._indifference_threshold(1.0, 1e6, -1e-3) == math.inf
    assert math.isfinite(splitting._indifference_threshold(1.0, 1e6, 1e-3))


def test_a_free_layer_that_shrinks_the_payload_is_never_a_stop(monkeypatch, params):
    """Layer 2 takes no cycles and cuts the payload from 1e6 to 1e3 bits, so
    stopping at stage 2 costs 1000 times the transmission of going on: the
    exponent of its indifference SNR overflows 2**x, and both rules' stage-2
    threshold is +inf, a stage that continues with probability exactly 1."""
    calls = []
    original = splitting._indifference_threshold

    def recording(weight, bandwidth_hz, margin):
        calls.append((weight, bandwidth_hz, margin))
        return original(weight, bandwidth_hz, margin)

    monkeypatch.setattr(splitting, "_indifference_threshold", recording)
    net = NetworkSpec((LayerSpec(2e6, 8192.0, 0.01), LayerSpec(0.0, 1e6, 0.01),
                       LayerSpec(1e6, 1e3, 0.01)), 512.0)
    law = StageDistribution.discrete([(3.0, 0.5), (30.0, 0.5)])
    problem = Problem(net, params, law)
    cm = problem.cm
    for rule in ("optimal", "one_sla"):
        policy = problem.policy(rule, net.N)
        assert policy.thresholds[1] == math.inf, rule
        assert math.isfinite(policy.thresholds[0]) and math.isfinite(policy.thresholds[2]), rule
        assert problem.stage_table(policy).continue_prob[1] == 1.0, rule
    # the overflow return: a positive margin whose exponent reaches 1024
    stage_2 = [(w, b, m) for w, b, m in calls if w == cm.weight(2)]
    assert len(stage_2) == 3  # the 1-sla rule, and the optimal rule at horizons 2 and 3
    assert all(m > 0 and w / (b * m) >= splitting._EXP2_OVERFLOW for w, b, m in stage_2)


def test_apply_rule_rejects_a_policy_beyond_the_network(autoencoder, params, dist_d50):
    # a horizon-8 policy on a 3-layer network: a high SNR used to stop at stage
    # 1 with a decision, a low one to fail on "stage 9 out of range"
    policy = backward_induction(8, autoencoder, params, dist_d50)
    for snr in (1e3, 1e-3):
        with pytest.raises(ValueError, match="policy horizon_M = 8 exceeds the network's N = 3"):
            apply_rule(policy, [snr] * 9, _three_layers(), params)
    assert apply_rule(policy, [1e3] * 9, autoencoder, params).stage == 1


def test_problem_rejects_more_laws_than_stages(autoencoder, params, dist_d50):
    # 20 laws on the autoencoder's 9 stages used to plan on the first 9
    laws = [dist_d50] * 20
    for M in (None, 3):
        with pytest.raises(ValueError, match="9 stages, got 20 stage laws"):
            Problem(autoencoder, params, laws, M)
    whole = Problem(autoencoder, params, laws[:9])
    assert whole.dists == (dist_d50,) * 9
    assert Problem(autoencoder, params, laws[:9], 3).dists == (dist_d50,) * 4


def _first_crossing(policy, seq, net, params):
    """Stage and cost of the first crossing, as a plain loop over the stages."""
    stage = policy.horizon_M + 1
    for n, t in enumerate(policy.thresholds, start=1):
        if seq[n - 1] >= t:
            stage = n
            break
    cm = cost_model(net, params)
    rate = params.bandwidth_hz * math.log1p(seq[stage - 1]) / math.log(2.0)
    return stage, cm.omega(stage) + cm.weight(stage) / rate


_BAD_SNRS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324]


def test_apply_rule_rejects_a_bad_snr_it_reads(autoencoder, params, dist_d50):
    policy = backward_induction(3, autoencoder, params, dist_d50)  # 50 m
    with pytest.raises(ValueError, match="stage 1"):
        apply_rule(policy, [math.nan] * 4, autoencoder, params)  # was stage 4 at a nan cost
    with pytest.raises(ValueError, match="stage 1"):
        apply_rule(policy, [-1.0, 5.0, 5.0, 5.0], autoencoder, params)  # was stage 2


@given(M=st.integers(0, 8), data=st.data())
def test_apply_rule_checks_every_snr_it_reads_and_keeps_valid_decisions(autoencoder, params, M, data):
    thresholds = data.draw(st.lists(st.one_of(st.floats(1e-3, 10.0), st.just(math.inf)),
                                    min_size=M, max_size=M))
    seq = data.draw(st.lists(st.floats(1e-6, 20.0), min_size=M + 1, max_size=M + 1))
    policy = ThresholdPolicy("one_sla", M, thresholds)
    got = apply_rule(policy, seq, autoencoder, params)
    stage, cost = _first_crossing(policy, seq, autoencoder, params)
    assert got.stage == stage and got.snr_at_stop == seq[stage - 1]
    assert np.float64(got.realized_etc).view(np.int64) == np.float64(cost).view(np.int64)
    k = data.draw(st.integers(1, M + 1))
    broken = seq[:k - 1] + [data.draw(st.sampled_from(_BAD_SNRS))] + seq[k:]
    if k <= stage:  # the rule reads stages 1..stage
        with pytest.raises(ValueError, match=f"stage {k} must be positive and finite"):
            apply_rule(policy, broken, autoencoder, params)
    else:
        assert apply_rule(policy, broken, autoencoder, params) == got


# -- stop probabilities -------------------------------------------------------------

def test_stop_probabilities_m1_form(autoencoder, params, dist_d50):
    pol = backward_induction(1, autoencoder, params, dist_d50)
    probs = stop_probabilities(pol, autoencoder, params, dist_d50)
    f1 = dist_d50.cdf([pol.thresholds[0]])[0]
    assert probs == pytest.approx([1 - f1, f1], rel=1e-12)


def test_stop_probabilities_always_stop_immediately(autoencoder, params, dist_d50):
    pol = ThresholdPolicy("one_sla", 4, (0.0, math.inf, math.inf, math.inf))
    probs = stop_probabilities(pol, autoencoder, params, dist_d50)
    assert probs == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0], abs=0)


def test_stop_probabilities_sum_to_one(autoencoder, params, dist_d50):
    for M in (1, 4, 8):
        for rule in (backward_induction, one_sla_thresholds):
            pol = rule(M, autoencoder, params, dist_d50)
            assert sum(stop_probabilities(pol, autoencoder, params, dist_d50)) == pytest.approx(1.0, abs=1e-9)


# -- expected cost -------------------------------------------------------------------

def test_expected_etc_m0_is_unconditional_mean(autoencoder, params, dist_d50):
    pol = forced_offload_policy("one_sla", autoencoder, params, dist_d50)
    got = expected_etc(pol, autoencoder, params, dist_d50)
    cm = cost_model(autoencoder, params)
    want = cm.omega(1) + cm.weight(1) * expect(dist_d50, inv_rate_fn(params))
    assert got == pytest.approx(want, rel=1e-12)


def test_expected_etc_equals_value_table(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        for M in (1, 4, 8):
            pol = backward_induction(M, net, params, dist_d50)
            recombined = expected_etc(pol, net, params, dist_d50)
            assert recombined == pytest.approx(pol.value_table[0], rel=1e-6)


def test_probabilities_and_conditionals_recombine(autoencoder, params, dist_d50):
    pol = one_sla_thresholds(6, autoencoder, params, dist_d50)
    probs = stop_probabilities(pol, autoencoder, params, dist_d50)
    conds = stop_conditional_etc(pol, autoencoder, params, dist_d50)
    assert float(np.dot(probs, conds)) == pytest.approx(
        expected_etc(pol, autoencoder, params, dist_d50), abs=1e-9)


def test_one_sla_expected_etc_strictly_decreasing_in_m(params, dist_d50):
    mlp = build_mlp(MlpSpec((128,) * 9, 8, 8, 100, DOWNLINK_BPS))
    values = []
    for M in range(0, 9):
        pol = (one_sla_thresholds(M, mlp, params, dist_d50) if M
               else forced_offload_policy("one_sla", mlp, params, dist_d50))
        values.append(expected_etc(pol, mlp, params, dist_d50))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_dominance_of_optimal_rule(autoencoder, params, dist_d50):
    for M in (1, 4, 8):
        opt = expected_etc(backward_induction(M, autoencoder, params, dist_d50),
                           autoencoder, params, dist_d50)
        sla = expected_etc(one_sla_thresholds(M, autoencoder, params, dist_d50),
                           autoencoder, params, dist_d50)
        stop_now = ThresholdPolicy("one_sla", M, (0.0,) + (math.inf,) * (M - 1))
        never = ThresholdPolicy("one_sla", M, (math.inf,) * M)
        assert opt <= sla + 1e-9
        assert opt <= expected_etc(stop_now, autoencoder, params, dist_d50) + 1e-9
        assert opt <= expected_etc(never, autoencoder, params, dist_d50) + 1e-9


def test_weight_scaling_leaves_thresholds_invariant(autoencoder, dist_d50):
    base = make_params()
    scaled = make_params(beta_t=0.5 * 3.7, beta_e=0.5 * 3.7)
    for M in (1, 5):
        a = backward_induction(M, autoencoder, base, dist_d50)
        b = backward_induction(M, autoencoder, scaled, dist_d50)
        assert a.thresholds == pytest.approx(b.thresholds, rel=1e-9)
        ee_a = expected_etc(a, autoencoder, base, dist_d50)
        ee_b = expected_etc(b, autoencoder, scaled, dist_d50)
        assert ee_b == pytest.approx(3.7 * ee_a, rel=1e-9)
        sa = one_sla_thresholds(M, autoencoder, base, dist_d50)
        sb = one_sla_thresholds(M, autoencoder, scaled, dist_d50)
        assert sa.thresholds == pytest.approx(sb.thresholds, rel=1e-12)


# -- optimality probability ------------------------------------------------------------

def test_optimality_probability_horizon_one_exact(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        assert Problem(net, params, dist_d50).optimality_probability(1) == pytest.approx(1.0, abs=1e-12)


def test_optimality_probability_nonincreasing(autoencoder, params, dist_d50):
    problem = Problem(autoencoder, params, dist_d50)
    vals = [problem.optimality_probability(M) for M in range(1, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_optimality_probability_closed_form_m2(autoencoder, params, dist_d50):
    pol = one_sla_thresholds(2, autoencoder, params, dist_d50)
    f1, f2 = dist_d50.cdf(pol.thresholds)
    want = (1 - f1) * (1 - f2) + f1 * (1 - f2) + f1 * f2
    got = Problem(autoencoder, params, dist_d50).optimality_probability(2)
    assert got == pytest.approx(want, rel=1e-12)


# -- policy plumbing ---------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy("optimal", 2, (1.0,))
    for kind in ("bogus", "custom"):
        with pytest.raises(ValueError, match="rule_kind"):
            ThresholdPolicy(kind, 1, (1.0,))
    with pytest.raises(ValueError):
        ThresholdPolicy("optimal", 1, (1.0,), value_table=(1.0,))


@pytest.mark.parametrize("thresholds,value_table,field", [
    ((math.nan, -math.inf), None, "thresholds"),
    ((1.0, -math.inf), None, "thresholds"),
    ((math.nan, 1.0), None, "thresholds"),
    ((1.0, math.inf), (1.0, math.nan, 2.0), "value_table"),
    ((1.0, math.inf), (1.0, 2.0, math.inf), "value_table"),
])
def test_policy_rejects_nan_and_minus_inf(thresholds, value_table, field):
    rule = "one_sla" if value_table is None else "optimal"
    with pytest.raises(ValueError, match=field):
        ThresholdPolicy(rule, 2, thresholds, value_table)


def test_caches_are_shared_across_calls(autoencoder, params, dist_d50):
    before = inv_rate_tail(dist_d50, 0.0, params.bandwidth_hz)
    again = inv_rate_tail(dist_d50, 0.0, params.bandwidth_hz)
    assert before == again
    t = 0.25
    assert inv_rate_tail(dist_d50, t, params.bandwidth_hz) == pytest.approx(
        dist_d50.partial_expect(inv_rate_fn(params), t), abs=1e-12)


@pytest.mark.parametrize("forced", [math.inf, math.nan])
def test_a_non_finite_value_in_the_recursion_is_a_numerical_error(forced, autoencoder, params,
                                                                  dist_d50):
    # an infinite forced stop cost makes stopping always win, and inf * 0 is NaN
    problem = Problem(autoencoder, params, dist_d50, 2)
    problem.transmission = [forced] * 3
    with pytest.raises(NumericalError, match="not finite"):
        problem.optimal
    for M in range(3):
        with pytest.raises(NumericalError, match="not finite"):
            problem.recursion(M)
