"""Placement strategies: exhaustive sweeps, closed form, hybrid."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesplit import (
    NumericalError,
    Problem,
    StageDistribution,
    forced_offload_policy,
    hybrid,
    one_sla_thresholds,
    optimize_exhaustive,
    run_strategy,
)
from edgesplit.channel import inv_rate_table, per_stage
from edgesplit.cost_model import cost_model
from edgesplit.model_graph import MlpSpec, build_mlp
from edgesplit.placement import PlacementRow, _pick_best, mlp_closed_form
from edgesplit.splitting import ThresholdPolicy, expected_etc

from conftest import DOWNLINK_BPS, channel_at, forced_stop_cost, make_params


def theta_one_sla(M, net, params, dists):
    """The paper's Theta(M): the 1-sla expected-cost decrement as placement
    grows M-1 -> M, in product form.

    Only histories that decline to stop at every stage before M are affected
    by the extra layer, and for those the change swaps a forced stop at M for
    one more look. Negative unless stage M is unreachable.
    """
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    problem = Problem(net, params, ds, M)
    policy = problem.policy("one_sla", M)
    table = problem.stage_table(policy)
    reach = float(table.reach[M])
    if reach <= 0.0:
        return 0.0
    forced = forced_stop_cost(cm, M + 1, ds[M])
    # E[1/R; SNR < t]: the tail is closed at t because a tie stops
    full, tail = inv_rate_table(ds[M - 1], params.bandwidth_hz).tails([0.0, policy.thresholds[M - 1]])
    below = full - tail
    return reach * (forced - cm.omega(M) - cm.weight(M) * below / float(table.continue_prob[M - 1]))


def closed_form(spec, params, dist):
    """`mlp_closed_form` on the Problem of the MLP's network and one shared law."""
    return mlp_closed_form(Problem(build_mlp(spec), params, dist), spec)


@pytest.fixture(scope="module")
def equal_mlp_spec():
    return MlpSpec((128,) * 9, 8, 8, 100, DOWNLINK_BPS)


@pytest.fixture(scope="module")
def equal_mlp(equal_mlp_spec):
    return build_mlp(equal_mlp_spec)


# -- exhaustive ---------------------------------------------------------------

def test_exhaustive_covers_all_m(autoencoder, params, dist_d50):
    rep = optimize_exhaustive(Problem(autoencoder, params, dist_d50), "optimal")
    assert [r.M for r in rep.rows] == list(range(9))
    assert rep.strategy == "optimal_exhaustive"
    assert rep.policy_at_best.horizon_M == rep.best_M
    best_z = rep.row(rep.best_M).Z
    assert all(best_z <= r.Z for r in rep.rows)


def test_exhaustive_rows_compose(autoencoder, params, dist_d50):
    rep = optimize_exhaustive(Problem(autoencoder, params, dist_d50), "one_sla")
    for r in rep.rows:
        assert r.Z == pytest.approx(params.beta_t * r.psi + r.expected_etc, rel=1e-14)
        assert r.psi == pytest.approx(cost_model(autoencoder, params).placement_cost(r.M),
                                      rel=1e-14)


def test_exhaustive_infinite_updates_prefers_all_layers(autoencoder, alexnet,
                                                        params_inf_updates):
    dist = channel_at(50, params_inf_updates)
    for net in (autoencoder, alexnet):
        for rule in ("optimal", "one_sla"):
            rep = optimize_exhaustive(Problem(net, params_inf_updates, dist), rule)
            assert rep.best_M == net.N


def test_exhaustive_download_dominated_prefers_zero():
    # one model use per download and a crawling downlink: placement never pays
    params = make_params(updates_per_model=1)
    mlp = MlpSpec((128,) * 9, 8, 8, 100, 1e3)
    net = build_mlp(mlp)
    dist = channel_at(50, params)
    for rule in ("optimal", "one_sla"):
        assert optimize_exhaustive(Problem(net, params, dist), rule).best_M == 0


def test_exhaustive_rejects_unknown_rule(autoencoder, params, dist_d50):
    with pytest.raises(ValueError):
        optimize_exhaustive(Problem(autoencoder, params, dist_d50), "two_sla")


def test_weight_scaling_leaves_best_m_invariant(autoencoder, dist_d50):
    base = optimize_exhaustive(Problem(autoencoder, make_params(), dist_d50), "one_sla")
    scaled_params = make_params(beta_t=0.5 * 4.2, beta_e=0.5 * 4.2)
    scaled = optimize_exhaustive(Problem(autoencoder, scaled_params, dist_d50), "one_sla")
    assert scaled.best_M == base.best_M
    for a, b in zip(base.rows, scaled.rows):
        assert b.Z == pytest.approx(4.2 * a.Z, rel=1e-9)


# -- cost decrement ------------------------------------------------------------

def test_theta_matches_direct_difference(autoencoder, params, dist_d50):
    for M in range(1, 9):
        factored = theta_one_sla(M, autoencoder, params, dist_d50)
        pol_m = one_sla_thresholds(M, autoencoder, params, dist_d50)
        pol_prev = (one_sla_thresholds(M - 1, autoencoder, params, dist_d50) if M > 1
                    else forced_offload_policy("one_sla", autoencoder, params, dist_d50))
        direct = (expected_etc(pol_m, autoencoder, params, dist_d50)
                  - expected_etc(pol_prev, autoencoder, params, dist_d50))
        assert factored == pytest.approx(direct, abs=1e-9)
        assert factored < 0


@pytest.mark.parametrize("M", [1, 2, 3])
def test_theta_matches_direct_difference_with_an_atom_at_the_threshold(M, autoencoder, params,
                                                                       dist_d50):
    # the stage-M threshold depends only on the stage-(M+1) law
    t = one_sla_thresholds(M, autoencoder, params, dist_d50).thresholds[M - 1]
    atoms = StageDistribution.discrete([(0.5 * t, 0.3), (t, 0.4), (2.0 * t, 0.3)])
    dists = [dist_d50] * (M - 1) + [atoms, dist_d50]
    factored = theta_one_sla(M, autoencoder, params, dists)
    pol_prev = (one_sla_thresholds(M - 1, autoencoder, params, dists) if M > 1
                else forced_offload_policy("one_sla", autoencoder, params, dists))
    direct = (expected_etc(one_sla_thresholds(M, autoencoder, params, dists),
                           autoencoder, params, dists)
              - expected_etc(pol_prev, autoencoder, params, dists))
    assert factored == pytest.approx(direct, rel=1e-9)


def test_theta_equal_width_geometric(equal_mlp_spec, equal_mlp, params, dist_d50):
    rep = closed_form(equal_mlp_spec, params, dist_d50)
    cont = rep.diagnostics["cdf_at_delta"]
    g = rep.diagnostics["g_simplified"]
    x = equal_mlp_spec.neurons[0]
    thetas = [theta_one_sla(M, equal_mlp, params, dist_d50) for M in range(1, 9)]
    for M, th in enumerate(thetas, start=1):
        assert th == pytest.approx(x * cont**M * g, abs=1e-10)
    # geometric decay of the magnitude
    for a, b in zip(thetas, thetas[1:]):
        assert abs(b) == pytest.approx(abs(a) * cont, rel=1e-9)


def test_z_rows_satisfy_decrement_identity(autoencoder, params, dist_d50):
    rep = optimize_exhaustive(Problem(autoencoder, params, dist_d50), "one_sla")
    for M in range(1, 9):
        dz = rep.row(M).Z - rep.row(M - 1).Z
        predicted = (params.beta_t * autoencoder.layers[M - 1].download_seconds
                     / params.updates_per_model
                     + theta_one_sla(M, autoencoder, params, dist_d50))
        assert dz == pytest.approx(predicted, abs=1e-9)


# -- closed form ------------------------------------------------------------------

def test_closed_form_infinite_updates(equal_mlp_spec, params_inf_updates, dist_d50):
    rep = closed_form(equal_mlp_spec, params_inf_updates, dist_d50)
    assert rep.best_M == 8
    assert rep.diagnostics["branch"] == "all_layers"


def test_closed_form_download_dominant():
    params = make_params(updates_per_model=1)
    spec = MlpSpec((128,) * 9, 8, 8, 100, 1e3)
    rep = closed_form(spec, params, channel_at(50, params))
    assert rep.best_M == 0
    assert rep.diagnostics["branch"] == "no_layers"


@pytest.mark.parametrize("x", [32, 128, 512])
@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("k", [10, 50, math.inf])
def test_closed_form_agrees_with_enumeration(x, n, k, dist_d50):
    params = make_params(updates_per_model=k)
    spec = MlpSpec((x,) * (n + 1), 8, 8, 100, DOWNLINK_BPS)
    closed = closed_form(spec, params, dist_d50)
    swept = optimize_exhaustive(Problem(build_mlp(spec), params, dist_d50), "one_sla")
    same = closed.best_M == swept.best_M
    z_closed, z_swept = closed.row(closed.best_M).Z, swept.row(swept.best_M).Z
    tie = abs(z_closed - z_swept) <= 1e-6 * abs(z_swept)
    assert same or tie


def test_closed_form_stops_on_an_atom_at_the_shared_threshold(equal_mlp_spec, params):
    # delta depends on the law through E[1/R], so the atom sitting exactly at
    # delta is a fixed point of law -> delta, found here by iteration
    def law(delta):
        return StageDistribution.discrete([(0.05, 0.3), (delta, 0.4), (20.0, 0.3)])

    delta = 1.0
    for _ in range(100):
        moved = closed_form(equal_mlp_spec, params, law(delta)).diagnostics["delta_threshold"]
        if moved == delta:
            break
        delta = moved
    dist = law(delta)
    rep = closed_form(equal_mlp_spec, params, dist)
    assert rep.diagnostics["delta_threshold"] == delta
    cont, g = rep.diagnostics["cdf_at_delta"], rep.diagnostics["g_simplified"]
    # P{SNR < delta} leaves out the atom at delta, which P{SNR <= delta} holds
    assert [cont] == dist.prob_below([delta]) != dist.prob_below([math.nextafter(delta, math.inf)])
    # the rule's own rows: a tie stops, so each decrement is X * F^M * g with
    # F = P{SNR < delta}, and the branch picks their argmin
    net, x = build_mlp(equal_mlp_spec), equal_mlp_spec.neurons[0]
    etcs = [expected_etc(ThresholdPolicy("one_sla", M, (delta,) * M) if M
                         else forced_offload_policy("one_sla", net, params, dist), net, params, dist)
            for M in range(net.N + 1)]
    for M in range(1, net.N + 1):
        assert etcs[M] - etcs[M - 1] == pytest.approx(x * cont**M * g, rel=1e-9)
    cm = cost_model(net, params)
    assert rep.best_M == min(range(net.N + 1), key=lambda M: cm.total_cost(M, etcs[M]))


@given(x=st.integers(1, 300), n=st.integers(1, 10), lam=st.sampled_from([1.0, 4.0, 8.0]),
       k=st.sampled_from([10.0, 200.0, math.inf]), distance=st.floats(8.0, 150.0))
def test_closed_form_threshold_is_the_one_sla_threshold(x, n, lam, k, distance):
    """delta is `one_sla_thresholds` at stage 1 bit for bit, and every stage of
    an equal-width MLP shares it."""
    spec = MlpSpec((x,) * (n + 1), lam, 8.0, 100.0, DOWNLINK_BPS)
    params = make_params(updates_per_model=k)
    law = channel_at(distance, params)
    delta = closed_form(spec, params, law).diagnostics["delta_threshold"]
    net = build_mlp(spec)
    assert one_sla_thresholds(1, net, params, law).thresholds[0].hex() == delta.hex()
    assert {t.hex() for t in one_sla_thresholds(n, net, params, law).thresholds} == {delta.hex()}


def test_closed_form_rejects_unequal_widths(params, dist_d50):
    with pytest.raises(ValueError):
        closed_form(MlpSpec((128, 64, 128), 8, 8, 100, DOWNLINK_BPS), params, dist_d50)


def test_closed_form_rejects_an_mlp_of_another_network(equal_mlp_spec, equal_mlp, params,
                                                      dist_d50):
    # the Problem of a 128-wide 8-layer MLP with the spec of a 16-wide 3-layer
    # one used to return a report mixed from both; so did a spec that differs
    # from the Problem's network in its cycles per MACC alone
    problem = Problem(equal_mlp, params, dist_d50)
    for other in (MlpSpec((16,) * 4, 8, 8, 100, DOWNLINK_BPS),
                  MlpSpec((128,) * 9, 8, 8, 50, DOWNLINK_BPS)):
        with pytest.raises(ValueError, match="mlp is not the network of its Problem"):
            mlp_closed_form(problem, other)
    assert mlp_closed_form(problem, equal_mlp_spec).best_M == closed_form(
        equal_mlp_spec, params, dist_d50).best_M


def test_closed_form_g_is_negative(equal_mlp_spec, params, dist_d50):
    rep = closed_form(equal_mlp_spec, params, dist_d50)
    assert rep.diagnostics["g_simplified"] < 0
    # simplified and raw bracket forms agree (the threshold identity holds
    # exactly on the truncated law)
    assert rep.diagnostics["g_raw"] == pytest.approx(
        rep.diagnostics["g_simplified"], rel=1e-10)


def test_closed_form_best_m_nondecreasing_in_updates(equal_mlp_spec, dist_d50):
    bests = []
    for k in (10, 20, 50, 100, 200, math.inf):
        rep = closed_form(equal_mlp_spec, make_params(updates_per_model=k), dist_d50)
        bests.append(rep.best_M)
    assert all(a <= b for a, b in zip(bests, bests[1:]))
    assert bests[-1] == 8


def test_closed_form_degenerate_floor_places_no_layers(equal_mlp_spec, equal_mlp):
    # floor above the shared threshold: the channel always clears it, so every
    # M >= 1 stops at stage 1 at the forced-offload cost and M = 0 is cheapest
    dist = StageDistribution("truncated_exponential", mean_snr=0.584, support_lo=10.0)
    for k in (10, math.inf):
        params = make_params(updates_per_model=k)
        rep = closed_form(equal_mlp_spec, params, dist)
        diag = rep.diagnostics
        assert diag["cdf_at_delta"] == 0.0 and diag["branch"] == "no_layers"
        assert (diag["g_simplified"], diag["g_raw"], diag["m_real"]) == (None, None, None)
        assert rep.best_M == 0 and [r.M for r in rep.rows] == [0]
        swept = optimize_exhaustive(Problem(equal_mlp, params, dist), "one_sla")
        assert rep.row(rep.best_M).Z == swept.row(swept.best_M).Z
        assert swept.best_M == 0


@settings(max_examples=150)
@given(width=st.integers(1, 1024), n=st.integers(1, 14), lam=st.floats(0.5, 16.0),
       mu=st.floats(0.5, 16.0), alpha=st.floats(1.0, 1000.0),
       k=st.sampled_from([1.0, 10.0, 50.0, 200.0, math.inf]), distance=st.floats(0.5, 200.0))
def test_closed_form_equals_the_one_sla_sweep(width, n, lam, mu, alpha, k, distance):
    """The paper's closed-form placement: on an equal-width MLP the argmin
    read off the geometric decrement is the 1-sla sweep's argmin."""
    params = make_params(updates_per_model=k)
    spec = MlpSpec((width,) * (n + 1), lam, mu, alpha, DOWNLINK_BPS)
    dist = channel_at(distance, params)
    closed = closed_form(spec, params, dist)
    problem = Problem(build_mlp(spec), params, dist)
    swept = optimize_exhaustive(problem, "one_sla")
    z_swept = swept.row(swept.best_M).Z
    assert closed.row(closed.best_M).Z == pytest.approx(z_swept, rel=1e-12, abs=0.0)
    if closed.best_M != swept.best_M:  # only where the sweep's rows tie
        assert swept.row(closed.best_M).Z == pytest.approx(z_swept, rel=1e-12, abs=0.0)
    # every stage's 1-sla threshold is delta bit for bit, so the candidates are the sweep's rows
    assert problem.one_sla.thresholds == (closed.diagnostics["delta_threshold"],) * n
    for row in closed.rows:
        assert row == swept.row(row.M)


# -- hybrid -----------------------------------------------------------------------

def test_hybrid_sandwiched_between_rules(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        rep_opt = optimize_exhaustive(Problem(net, params, dist_d50), "optimal")
        z_opt = rep_opt.row(rep_opt.best_M).Z
        rep_sla = optimize_exhaustive(Problem(net, params, dist_d50), "one_sla")
        rep_h = hybrid(Problem(net, params, dist_d50))
        z_h, z_sla = rep_h.row(rep_h.best_M).Z, rep_sla.row(rep_sla.best_M).Z
        assert rep_h.best_M == rep_sla.best_M
        assert z_opt <= z_h + 1e-9
        assert z_h <= z_sla + 1e-9
        assert rep_h.policy_at_best.rule_kind == "optimal"


def test_hybrid_report_row_is_refined(autoencoder, params, dist_d50):
    rep_sla = optimize_exhaustive(Problem(autoencoder, params, dist_d50), "one_sla")
    rep_h = hybrid(Problem(autoencoder, params, dist_d50))
    m = rep_h.best_M
    assert rep_h.row(m).Z <= rep_sla.row(m).Z
    for other in range(9):
        if other != m:
            assert rep_h.row(other) == rep_sla.row(other)


# -- dispatch / serialization --------------------------------------------------------

def test_run_strategy_dispatch(autoencoder, params, dist_d50, equal_mlp_spec):
    for name in ("optimal_exhaustive", "one_sla_exhaustive", "hybrid"):
        rep = run_strategy(name, autoencoder, params, dist_d50)
        assert rep.strategy == name
    rep = run_strategy("mlp_closed_form", build_mlp(equal_mlp_spec), params, dist_d50,
                       mlp=equal_mlp_spec)
    assert rep.strategy == "mlp_closed_form"
    with pytest.raises(ValueError):
        run_strategy("mlp_closed_form", autoencoder, params, dist_d50, mlp=None)
    with pytest.raises(ValueError):
        run_strategy("grid_search", autoencoder, params, dist_d50)


def test_report_serialization(autoencoder, params, dist_d50):
    rep = optimize_exhaustive(Problem(autoencoder, params, dist_d50), "optimal")
    d = rep.to_json_dict()
    assert d["strategy"] == "optimal_exhaustive"
    assert len(d["rows"]) == 9


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_row_whose_z_is_not_finite_fails_the_plan(bad):
    # min() would skip past a NaN row and pick among the others
    rows = [PlacementRow(0, 2.0, 2.0, 0.0), PlacementRow(1, bad, bad, 0.0), PlacementRow(2, 1.0, 1.0, 0.0)]
    with pytest.raises(NumericalError, match=r"M = \[1\]"):
        _pick_best(rows)
    assert _pick_best([rows[0], rows[2]]) == 2
