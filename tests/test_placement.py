"""Placement strategies: exhaustive sweeps, closed form, hybrid."""
import math

import pytest

from edgesplit import (
    MlpSpec,
    NumericalError,
    StageDistribution,
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
    rep = optimize_exhaustive(autoencoder, params, dist_d50, "optimal")
    assert [r.M for r in rep.rows] == list(range(9))
    assert rep.strategy == "optimal_exhaustive"
    assert rep.policy_at_best.horizon_M == rep.best_M
    best_z = rep.row(rep.best_M).Z
    assert all(best_z <= r.Z for r in rep.rows)


def test_exhaustive_rows_compose(autoencoder, params, dist_d50):
    rep = optimize_exhaustive(autoencoder, params, dist_d50, "one_sla")
    for r in rep.rows:
        assert r.Z == pytest.approx(params.beta_t * r.psi + r.expected_etc, rel=1e-14)
        assert r.psi == pytest.approx(cost_model(autoencoder, params).placement_cost(r.M),
                                      rel=1e-14)


def test_exhaustive_infinite_updates_prefers_all_layers(autoencoder, alexnet,
                                                        params_inf_updates):
    dist = channel_at(50, params_inf_updates)
    for net in (autoencoder, alexnet):
        for rule in ("optimal", "one_sla"):
            rep = optimize_exhaustive(net, params_inf_updates, dist, rule)
            assert rep.best_M == net.N


def test_exhaustive_download_dominated_prefers_zero():
    # one model use per download and a crawling downlink: placement never pays
    params = make_params(updates_per_model=1)
    mlp = MlpSpec((128,) * 9, 8, 8, 100, 1e3)
    net = build_mlp(mlp)
    dist = channel_at(50, params)
    for rule in ("optimal", "one_sla"):
        assert optimize_exhaustive(net, params, dist, rule).best_M == 0


def test_exhaustive_rejects_unknown_rule(autoencoder, params, dist_d50):
    with pytest.raises(ValueError):
        optimize_exhaustive(autoencoder, params, dist_d50, "two_sla")


def test_weight_scaling_leaves_best_m_invariant(autoencoder, dist_d50):
    base = optimize_exhaustive(autoencoder, make_params(), dist_d50, "one_sla")
    scaled_params = make_params(beta_t=0.5 * 4.2, beta_e=0.5 * 4.2)
    scaled = optimize_exhaustive(autoencoder, scaled_params, dist_d50, "one_sla")
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
    rep = optimize_exhaustive(autoencoder, params, dist_d50, "one_sla")
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
    swept = optimize_exhaustive(build_mlp(spec), params, dist_d50, "one_sla")
    same = closed.best_M == swept.best_M
    tie = abs(closed.best_Z - swept.best_Z) <= 1e-6 * abs(swept.best_Z)
    assert same or tie


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


def test_closed_form_degenerate_floor_raises(equal_mlp_spec, params):
    # floor above the shared threshold: the channel always clears it
    dist = StageDistribution.truncated_exponential(0.584, floor=10.0)
    with pytest.raises(NumericalError):
        mlp_closed_form(equal_mlp_spec, params, dist)


# -- hybrid -----------------------------------------------------------------------

def test_hybrid_sandwiched_between_rules(autoencoder, alexnet, params, dist_d50):
    for net in (autoencoder, alexnet):
        z_opt = optimize_exhaustive(net, params, dist_d50, "optimal").best_Z
        rep_sla = optimize_exhaustive(net, params, dist_d50, "one_sla")
        rep_h = hybrid(net, params, dist_d50)
        assert rep_h.best_M == rep_sla.best_M
        assert z_opt <= rep_h.best_Z + 1e-9
        assert rep_h.best_Z <= rep_sla.best_Z + 1e-9
        assert rep_h.policy_at_best.rule_kind == "optimal"


def test_hybrid_report_row_is_refined(autoencoder, params, dist_d50):
    rep_sla = optimize_exhaustive(autoencoder, params, dist_d50, "one_sla")
    rep_h = hybrid(autoencoder, params, dist_d50)
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
    rep = optimize_exhaustive(autoencoder, params, dist_d50, "optimal")
    d = rep.to_json_dict()
    assert d["strategy"] == "optimal_exhaustive"
    assert len(d["rows"]) == 9
    csv_rows = rep.to_csv_rows()
    assert len(csv_rows) == 9
    assert sum(row.endswith(",1") for row in csv_rows) == 1
    assert all(row.startswith("optimal_exhaustive,") for row in csv_rows)
