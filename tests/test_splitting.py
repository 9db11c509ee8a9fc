"""Stopping rules: thresholds, application, analytic performance."""
import math

import numpy as np
import pytest

from edgesplit import (
    StageDistribution,
    ThresholdPolicy,
    apply_rule,
    backward_induction,
    build_policy,
    expected_etc,
    forced_offload_policy,
    one_sla_optimality_probability,
    one_sla_thresholds,
    stop_conditional_etc,
    stop_probabilities,
)
from edgesplit import MlpSpec, build_mlp
from edgesplit.cost_model import cost_model
from edgesplit.channel import inv_rate_expectation

from conftest import DOWNLINK_BPS, make_params


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
            stop_now = cost_model(autoencoder, params).etc(n, t).etc
            continue_value = pol.value_table[n]
            assert stop_now == pytest.approx(continue_value, abs=1e-8)


def test_value_table_reconstructs_recursion(autoencoder, params, dist_d50):
    M = 8
    pol = backward_induction(M, autoencoder, params, dist_d50)
    cm = cost_model(autoencoder, params)
    bandwidth = params.bandwidth_hz
    # last stage: unconditional stop cost
    expected_last = cm.omega(M + 1) + cm.weight(M + 1) * dist_d50.expect(inv_rate_fn(params))
    assert pol.value_table[M] == pytest.approx(expected_last, rel=1e-10)
    for n in range(M, 0, -1):
        t = pol.thresholds[n - 1]
        cont = dist_d50.cdf(t)
        tail = dist_d50.partial_expect(inv_rate_fn(params), t, math.inf)
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
        by_enumeration = min(range(1, M + 2), key=lambda n: cm.etc(n, gamma0).etc)
        assert outcome.stage == by_enumeration
        assert expected_etc(pol, autoencoder, params, atom) == pytest.approx(
            cm.etc(by_enumeration, gamma0).etc, rel=1e-12)


def test_backward_induction_bounds(autoencoder, params, dist_d50):
    with pytest.raises(ValueError):
        backward_induction(0, autoencoder, params, dist_d50)
    with pytest.raises(ValueError):
        backward_induction(9, autoencoder, params, dist_d50)


def test_never_stop_sentinel():
    # huge payload at stage 1, near-free continuation: no representable SNR
    # makes stopping at stage 1 competitive
    net = build_mlp(MlpSpec((20000, 1, 1), 8, 8, 1, 1e9))
    params = make_params()
    dist = StageDistribution.truncated_exponential(0.5)
    pol = backward_induction(2, net, params, dist)
    assert math.isinf(pol.thresholds[0])
    probs = stop_probabilities(pol, dist)
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
        stop_now = cm.etc(n, t).etc
        next_expected = cm.omega(n + 1) + cm.weight(n + 1) * dist_d50.expect(inv_rate_fn(params))
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
    got = build_policy(rule, M, autoencoder, params, dist_d50)
    if M == 0:
        want = forced_offload_policy(rule, autoencoder, params, dist_d50)
    elif rule == "optimal":
        want = backward_induction(M, autoencoder, params, dist_d50)
    else:
        want = one_sla_thresholds(M, autoencoder, params, dist_d50)
    assert got == want


def test_build_policy_rejects_unknown_rule(autoencoder, params, dist_d50):
    for M in (0, 2):
        with pytest.raises(ValueError, match="rule_kind"):
            build_policy("custom", M, autoencoder, params, dist_d50)


# -- rule application -------------------------------------------------------------

def test_apply_rule_m0_always_stage_one(autoencoder, params, dist_d50):
    pol = forced_offload_policy("optimal", autoencoder, params, dist_d50)
    out = apply_rule(pol, [0.9], autoencoder, params)
    assert out.stage == 1
    assert out.realized_etc == cost_model(autoencoder, params).etc(1, 0.9).etc


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
        seq = dist_d50.sample(rng, size=6)
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


# -- stop probabilities -------------------------------------------------------------

def test_stop_probabilities_m1_form(autoencoder, params, dist_d50):
    pol = backward_induction(1, autoencoder, params, dist_d50)
    probs = stop_probabilities(pol, dist_d50)
    f1 = dist_d50.cdf(pol.thresholds[0])
    assert probs == pytest.approx([1 - f1, f1], rel=1e-12)


def test_stop_probabilities_always_stop_immediately(autoencoder, params, dist_d50):
    pol = ThresholdPolicy("one_sla", 4, (0.0, math.inf, math.inf, math.inf))
    probs = stop_probabilities(pol, dist_d50)
    assert probs == pytest.approx([1.0, 0.0, 0.0, 0.0, 0.0], abs=0)


def test_stop_probabilities_sum_to_one(autoencoder, params, dist_d50):
    for M in (1, 4, 8):
        for rule in (backward_induction, one_sla_thresholds):
            pol = rule(M, autoencoder, params, dist_d50)
            assert stop_probabilities(pol, dist_d50).sum() == pytest.approx(1.0, abs=1e-9)


# -- expected cost -------------------------------------------------------------------

def test_expected_etc_m0_is_unconditional_mean(autoencoder, params, dist_d50):
    pol = forced_offload_policy("one_sla", autoencoder, params, dist_d50)
    got = expected_etc(pol, autoencoder, params, dist_d50)
    cm = cost_model(autoencoder, params)
    want = cm.omega(1) + cm.weight(1) * dist_d50.expect(inv_rate_fn(params))
    assert got == pytest.approx(want, rel=1e-12)


def test_expected_etc_equals_value_table(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        for M in (1, 4, 8):
            pol = backward_induction(M, net, params, dist_d50)
            recombined = expected_etc(pol, net, params, dist_d50)
            assert recombined == pytest.approx(pol.value_table[0], rel=1e-6)


def test_probabilities_and_conditionals_recombine(autoencoder, params, dist_d50):
    pol = one_sla_thresholds(6, autoencoder, params, dist_d50)
    probs = stop_probabilities(pol, dist_d50)
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
        assert one_sla_optimality_probability(1, net, params, dist_d50) == pytest.approx(1.0, abs=1e-12)


def test_optimality_probability_nonincreasing(autoencoder, params, dist_d50):
    vals = [one_sla_optimality_probability(M, autoencoder, params, dist_d50)
            for M in range(1, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_optimality_probability_closed_form_m2(autoencoder, params, dist_d50):
    pol = one_sla_thresholds(2, autoencoder, params, dist_d50)
    f1, f2 = (dist_d50.cdf(t) for t in pol.thresholds)
    want = (1 - f1) * (1 - f2) + f1 * (1 - f2) + f1 * f2
    got = one_sla_optimality_probability(2, autoencoder, params, dist_d50)
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
    doc = {"rule_kind": rule, "horizon_M": 2,
           "thresholds": ["inf" if t == math.inf else t for t in thresholds]}
    if value_table is not None:
        doc["value_table"] = list(value_table)
    with pytest.raises(ValueError, match=field):
        ThresholdPolicy.from_json_dict(doc)


def test_policy_json_roundtrip(autoencoder, params, dist_d50):
    pol = backward_induction(4, autoencoder, params, dist_d50)
    again = ThresholdPolicy.from_json_dict(pol.to_json_dict())
    assert again == pol
    sentinel = ThresholdPolicy("one_sla", 2, (1.0, math.inf))
    again = ThresholdPolicy.from_json_dict(sentinel.to_json_dict())
    assert again == sentinel
    assert math.isinf(again.thresholds[1])


def test_caches_are_shared_across_calls(autoencoder, params, dist_d50):
    before = inv_rate_expectation(dist_d50, 0.0, params.bandwidth_hz)
    again = inv_rate_expectation(dist_d50, 0.0, params.bandwidth_hz)
    assert before == again
    t = 0.25
    assert inv_rate_expectation(dist_d50, t, params.bandwidth_hz) == pytest.approx(
        dist_d50.partial_expect(inv_rate_fn(params), t, math.inf), abs=1e-12)
