"""Placement strategies: exhaustive sweeps, closed form, hybrid."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesplit import (
    MlpSpec,
    Problem,
    StageDistribution,
    ThresholdPolicy,
    build_mlp,
    expected_etc,
    forced_offload_policy,
    hybrid,
    mlp_closed_form,
    one_sla_thresholds,
    optimize_exhaustive,
    run_strategy,
    theta_one_sla,
)

from edgesplit.cost_model import cost_model

from conftest import DOWNLINK_BPS, channel_at, make_params


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
    rep = mlp_closed_form(equal_mlp_spec, params, dist_d50)
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
    rep = mlp_closed_form(equal_mlp_spec, params_inf_updates, dist_d50)
    assert rep.best_M == 8
    assert rep.diagnostics["branch"] == "all_layers"


def test_closed_form_download_dominant():
    params = make_params(updates_per_model=1)
    spec = MlpSpec((128,) * 9, 8, 8, 100, 1e3)
    rep = mlp_closed_form(spec, params, channel_at(50, params))
    assert rep.best_M == 0
    assert rep.diagnostics["branch"] == "no_layers"


@pytest.mark.parametrize("x", [32, 128, 512])
@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("k", [10, 50, math.inf])
def test_closed_form_agrees_with_enumeration(x, n, k, dist_d50):
    params = make_params(updates_per_model=k)
    spec = MlpSpec((x,) * (n + 1), 8, 8, 100, DOWNLINK_BPS)
    closed = mlp_closed_form(spec, params, dist_d50)
    swept = optimize_exhaustive(Problem(build_mlp(spec), params, dist_d50), "one_sla")
    same = closed.best_M == swept.best_M
    tie = abs(closed.best_Z - swept.best_Z) <= 1e-6 * abs(swept.best_Z)
    assert same or tie


def test_closed_form_stops_on_an_atom_at_the_shared_threshold(equal_mlp_spec, params):
    # delta depends on the law through E[1/R], so the atom sitting exactly at
    # delta is a fixed point of law -> delta, found here by iteration
    def law(delta):
        return StageDistribution.discrete([(0.05, 0.3), (delta, 0.4), (20.0, 0.3)])

    delta = 1.0
    for _ in range(100):
        moved = mlp_closed_form(equal_mlp_spec, params, law(delta)).diagnostics["delta_threshold"]
        if moved == delta:
            break
        delta = moved
    dist = law(delta)
    rep = mlp_closed_form(equal_mlp_spec, params, dist)
    assert rep.diagnostics["delta_threshold"] == delta
    cont, g = rep.diagnostics["cdf_at_delta"], rep.diagnostics["g_simplified"]
    assert cont == dist.prob_below(delta) != dist.cdf(delta)
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


def test_closed_form_rejects_unequal_widths(params, dist_d50):
    with pytest.raises(ValueError):
        mlp_closed_form(MlpSpec((128, 64, 128), 8, 8, 100, DOWNLINK_BPS), params, dist_d50)


def test_closed_form_g_is_negative(equal_mlp_spec, params, dist_d50):
    rep = mlp_closed_form(equal_mlp_spec, params, dist_d50)
    assert rep.diagnostics["g_simplified"] < 0
    # simplified and raw bracket forms agree (the threshold identity holds
    # exactly on the truncated law)
    assert rep.diagnostics["g_raw"] == pytest.approx(
        rep.diagnostics["g_simplified"], rel=1e-10)


def test_closed_form_best_m_nondecreasing_in_updates(equal_mlp_spec, dist_d50):
    bests = []
    for k in (10, 20, 50, 100, 200, math.inf):
        rep = mlp_closed_form(equal_mlp_spec, make_params(updates_per_model=k), dist_d50)
        bests.append(rep.best_M)
    assert all(a <= b for a, b in zip(bests, bests[1:]))
    assert bests[-1] == 8


def test_closed_form_degenerate_floor_places_no_layers(equal_mlp_spec, equal_mlp):
    # floor above the shared threshold: the channel always clears it, so every
    # M >= 1 stops at stage 1 at the forced-offload cost and M = 0 is cheapest
    dist = StageDistribution.truncated_exponential(0.584, floor=10.0)
    for k in (10, math.inf):
        params = make_params(updates_per_model=k)
        rep = mlp_closed_form(equal_mlp_spec, params, dist)
        diag = rep.diagnostics
        assert diag["cdf_at_delta"] == 0.0 and diag["branch"] == "no_layers"
        assert (diag["g_simplified"], diag["g_raw"], diag["m_real"]) == (None, None, None)
        assert rep.best_M == 0 and [r.M for r in rep.rows] == [0]
        swept = optimize_exhaustive(Problem(equal_mlp, params, dist), "one_sla")
        assert rep.best_Z == swept.best_Z
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
    closed = mlp_closed_form(spec, params, dist)
    swept = optimize_exhaustive(Problem(build_mlp(spec), params, dist), "one_sla")
    assert closed.best_Z == pytest.approx(swept.best_Z, rel=1e-12, abs=0.0)
    if closed.best_M != swept.best_M:  # only where the sweep's rows tie
        assert swept.row(closed.best_M).Z == pytest.approx(swept.best_Z, rel=1e-12, abs=0.0)


# -- hybrid -----------------------------------------------------------------------

def test_hybrid_sandwiched_between_rules(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        z_opt = optimize_exhaustive(Problem(net, params, dist_d50), "optimal").best_Z
        rep_sla = optimize_exhaustive(Problem(net, params, dist_d50), "one_sla")
        rep_h = hybrid(Problem(net, params, dist_d50))
        assert rep_h.best_M == rep_sla.best_M
        assert z_opt <= rep_h.best_Z + 1e-9
        assert rep_h.best_Z <= rep_sla.best_Z + 1e-9
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
    csv_rows = rep.to_csv_rows()
    assert len(csv_rows) == 9
    assert sum(row.endswith(",1") for row in csv_rows) == 1
    assert all(row.startswith("optimal_exhaustive,") for row in csv_rows)
