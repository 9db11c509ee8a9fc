"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts inline.
Criteria 1-7 are hard requirements; criterion 8 is a soft pass/warn check:
it bounds the probability of the monotone-case event, and which event the
reference bounds describe is not known here, so a miss is reported rather
than failed.
"""
import math
import time
import warnings

import numpy as np
import pytest

from edgesplit import (
    Problem,
    backward_induction,
    coincidence_rate,
    forced_offload_policy,
    hybrid,
    one_sla_thresholds,
    optimize_exhaustive,
    oracle_dp,
    simulate,
)
from edgesplit.cost_model import cost_model
from edgesplit.model_graph import MlpSpec, build_mlp
from edgesplit.placement import mlp_closed_form
from edgesplit.splitting import expected_etc

from conftest import DOWNLINK_BPS, channel_at, make_params, stop_probabilities

NETWORKS = ("autoencoder", "alexnet")


def _verdict(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def nets(autoencoder, alexnet):
    return {"autoencoder": autoencoder, "alexnet": alexnet}


def test_criterion_1_oracle_equivalence(autoencoder, params, dist_d50):
    started = time.monotonic()
    worst = 0.0
    for M in (2, 5, 8):
        reference = backward_induction(M, autoencoder, params, dist_d50).value_table[0]
        errors = []
        for grid in (256, 1024, 4096):
            got = oracle_dp(M, autoencoder, params, dist_d50.discretize(grid)).expected_cost
            errors.append(abs(got - reference) / reference)
        assert errors[0] >= errors[1] >= errors[2], (M, errors)
        worst = max(worst, errors[2])
    elapsed = time.monotonic() - started
    _verdict(
        "criterion 1 (oracle equivalence)",
        worst < 2e-3 and elapsed < 60.0,
        f"max relative error at 4096 atoms = {worst:.2e} (< 2e-3), "
        f"errors shrink with the grid, runtime {elapsed:.1f}s (< 60s)")


def test_criterion_2_horizon_one_identity(nets, params, dist_d50):
    details = []
    ok = True
    for name, net in nets.items():
        analytic = Problem(net, params, dist_d50).optimality_probability(1)
        empirical = coincidence_rate(1, net, params, dist_d50, trials=100_000, seed=2024)
        ok = ok and abs(analytic - 1.0) <= 1e-12 and empirical == 1.0
        details.append(f"{name}: analytic={analytic!r}, empirical={empirical}")
    _verdict("criterion 2 (horizon-1 rules coincide)", ok, "; ".join(details))


def test_criterion_3a_optimality_probability_nonincreasing(nets, params, dist_d50):
    ok = True
    for name, net in nets.items():
        problem = Problem(net, params, dist_d50)
        vals = [problem.optimality_probability(M) for M in range(1, net.N + 1)]
        ok = ok and all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    _verdict("criterion 3a (look-ahead optimality probability nonincreasing in M)",
             ok, "both presets, M = 1..N")


def test_criterion_3b_one_sla_cost_strictly_decreasing(nets, params, dist_d50):
    ok = True
    for name, net in nets.items():
        values = []
        for M in range(net.N + 1):
            pol = (one_sla_thresholds(M, net, params, dist_d50) if M
                   else forced_offload_policy("one_sla", net, params, dist_d50))
            values.append(expected_etc(pol, net, params, dist_d50))
        ok = ok and all(a > b for a, b in zip(values, values[1:]))
    _verdict("criterion 3b (1-sla expected cost strictly decreasing in M)",
             ok, "both presets, M = 0..N")


def test_criterion_3c_omega_nondecreasing(nets, params):
    ok = True
    for net in nets.values():
        vals = [cost_model(net, params).omega(n) for n in range(1, net.N + 2)]
        ok = ok and all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))
    _verdict("criterion 3c (channel-free cost nondecreasing in the split stage)",
             ok, "both presets, all stages")


def test_criterion_3d_best_m_monotone_in_distance_and_updates(nets, params):
    ok = True
    details = []
    for name, net in nets.items():
        for strategy in ("optimal", "one_sla", "hybrid"):
            by_d = []
            for d in range(10, 101, 10):
                dist = channel_at(d, params)
                rep = (hybrid(Problem(net, params, dist)) if strategy == "hybrid"
                       else optimize_exhaustive(Problem(net, params, dist), strategy))
                by_d.append(rep.best_M)
            mono_d = all(a <= b for a, b in zip(by_d, by_d[1:]))
            by_k = []
            for k in (10.0, 50.0, 100.0, math.inf):
                p = make_params(updates_per_model=k)
                dist = channel_at(50, p)
                rep = (hybrid(Problem(net, p, dist)) if strategy == "hybrid"
                       else optimize_exhaustive(Problem(net, p, dist), strategy))
                by_k.append(rep.best_M)
            mono_k = all(a <= b for a, b in zip(by_k, by_k[1:]))
            ok = ok and mono_d and mono_k
            details.append(f"{name}/{strategy}: d->{by_d}, K->{by_k}")
    _verdict("criterion 3d (best placement nondecreasing in distance and update interval)",
             ok, " | ".join(details))


def test_criterion_4_dominance_grid(nets):
    ok = True
    worst_gap = 0.0
    for name, net in nets.items():
        for d in (20.0, 50.0, 80.0):
            for k in (10.0, 50.0, math.inf):
                p = make_params(updates_per_model=k)
                dist = channel_at(d, p)
                z_opt, z_hyb, z_sla = (rep.row(rep.best_M).Z for rep in (
                    optimize_exhaustive(Problem(net, p, dist), "optimal"),
                    hybrid(Problem(net, p, dist)),
                    optimize_exhaustive(Problem(net, p, dist), "one_sla")))
                ok = ok and z_opt <= z_hyb + 1e-9 and z_hyb <= z_sla + 1e-9
                worst_gap = max(worst_gap, z_opt - z_hyb, z_hyb - z_sla)
    _verdict("criterion 4 (optimal <= hybrid <= 1-sla over the 18-config grid)",
             ok, f"worst ordering violation {worst_gap:.3g} (tolerance 1e-9)")


def test_criterion_5_infinite_updates_all_layers(nets, params_inf_updates):
    dist = channel_at(50, params_inf_updates)
    ok = True
    details = []
    for name, net in nets.items():
        best = {
            "optimal": optimize_exhaustive(Problem(net, params_inf_updates, dist), "optimal").best_M,
            "one_sla": optimize_exhaustive(Problem(net, params_inf_updates, dist), "one_sla").best_M,
            "hybrid": hybrid(Problem(net, params_inf_updates, dist)).best_M,
        }
        ok = ok and all(m == net.N for m in best.values())
        details.append(f"{name}: {best}")
    spec = MlpSpec((128,) * 9, 8, 8, 100, DOWNLINK_BPS)
    closed = mlp_closed_form(Problem(build_mlp(spec), params_inf_updates, dist), spec)
    ok = ok and closed.best_M == 8
    details.append(f"closed-form equal MLP: {closed.best_M}")
    _verdict("criterion 5 (no download cost puts every layer on the device)",
             ok, "; ".join(details))


def test_criterion_6_closed_form_vs_enumeration(dist_d50):
    ok = True
    checked = 0
    for x in (32, 128, 512):
        for n in (4, 8, 16):
            for k in (10.0, 50.0, math.inf):
                p = make_params(updates_per_model=k)
                spec = MlpSpec((x,) * (n + 1), 8, 8, 100, DOWNLINK_BPS)
                closed = mlp_closed_form(Problem(build_mlp(spec), p, dist_d50), spec)
                swept = optimize_exhaustive(Problem(build_mlp(spec), p, dist_d50), "one_sla")
                z_closed, z_swept = closed.row(closed.best_M).Z, swept.row(swept.best_M).Z
                agrees = (closed.best_M == swept.best_M
                          or abs(z_closed - z_swept) <= 1e-6 * abs(z_swept))
                ok = ok and agrees
                checked += 1
    _verdict("criterion 6 (closed form matches enumeration)",
             ok, f"{checked} (width, depth, update-interval) combinations")


def test_criterion_7_monte_carlo_agreement(autoencoder, params, dist_d50):
    trials = 1_000_000
    ok = True
    slowest = 0.0
    problem = Problem(autoencoder, params, dist_d50)
    for rule in ("optimal", "one_sla"):
        for M in range(autoencoder.N + 1):
            started = time.monotonic()
            if M == 0:
                policy = forced_offload_policy(rule, autoencoder, params, dist_d50)
            elif rule == "optimal":
                policy = backward_induction(M, autoencoder, params, dist_d50)
            else:
                policy = one_sla_thresholds(M, autoencoder, params, dist_d50)
            res = simulate(problem, policy, trials, seed=90 + M)
            analytic = expected_etc(policy, autoencoder, params, dist_d50)
            probs = stop_probabilities(policy, autoencoder, params, dist_d50)
            mean_ok = abs(res.mean_etc - analytic) <= 3 * res.std_error
            bins_ok = all(
                abs(f - p) <= 3 * math.sqrt(p * (1 - p) / trials) + 1.0 / trials
                for f, p in zip(res.stop_histogram, probs))
            elapsed = time.monotonic() - started
            slowest = max(slowest, elapsed)
            ok = ok and mean_ok and bins_ok and elapsed < 120.0
    _verdict("criterion 7 (Monte Carlo matches the analytic law at 3 sigma)",
             ok, f"both rules, M = 0..8 at 1e6 trials; slowest config {slowest:.1f}s (< 120s)")


def test_criterion_8_soft_probability_bounds(nets, params):
    """Soft check: reported as pass/warn, never as failure.

    It bounds `optimality_probability`, the monotone-case event, and prints
    `coincidence_probability`, the two rules stopping at the same stage. The
    two events are incomparable: neither probability bounds the other
    (`test_simulate.py::test_the_monotone_case_and_coincidence_are_incomparable`),
    so the second is no bound on the first."""
    bounds = {"autoencoder": 0.7, "alexnet": 0.9}
    computed = []
    for name, net in nets.items():
        floor_results, coincidence = {}, {}
        for ratio in (1e-4, 1e-3, 1e-2):
            dist = channel_at(50, params, floor_ratio=ratio)
            problem = Problem(net, params, dist)
            floor_results[ratio] = min(problem.optimality_probability(M)
                                       for M in range(1, net.N + 1))
            coincidence[ratio] = min(problem.coincidence_probability(M)
                                     for M in range(1, net.N + 1))
        computed.extend(floor_results.values())
        worst = min(floor_results.values())
        status = "PASS" if worst >= bounds[name] else "WARN"
        detail = ", ".join(f"floor {r:g}: {v:.3f} (coincidence_probability {coincidence[r]:.3f})"
                           for r, v in floor_results.items())
        print(f"[{status}] criterion 8 ({name} optimality probability soft bound "
              f">= {bounds[name]}): {detail}")
        if status == "WARN":
            warnings.warn(
                f"{name}: minimum look-ahead optimality probability {worst:.3f}, the "
                f"probability of the monotone-case event, sits below the {bounds[name]} "
                "reference bound for some truncation floor; the minimum probability that "
                f"both rules stop at the same stage is {min(coincidence.values()):.3f}",
                stacklevel=1)
    # soft criterion: values must exist and be valid probabilities, nothing more
    assert all(0.0 < v <= 1.0 for v in computed)
