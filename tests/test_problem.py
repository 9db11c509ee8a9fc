"""One `Problem` per request: the strategies run on it share its 1-sla sweep
and its optimal recursion, and each reports exactly what a standalone
`run_strategy` reports."""
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from edgesplit import (
    MlpSpec,
    NumericalError,
    Problem,
    StageDistribution,
    build_mlp,
    placement,
    run_strategy,
    splitting,
)

from conftest import DOWNLINK_BPS, channel_at, make_params
from test_stage_table import _laws, _problems

RULE_STRATEGIES = ("optimal_exhaustive", "one_sla_exhaustive", "hybrid")


def _outcome(run):
    """The report as JSON (floats by repr, which round-trips bit for bit),
    or the type and message of the error it raised."""
    try:
        return json.dumps(run().to_json_dict(), sort_keys=True)
    except (NumericalError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_shared_equals_standalone(net, params, dists, order, mlp=None):
    standalone = {s: _outcome(lambda s=s: run_strategy(s, net, params, dists, mlp=mlp))
                  for s in order}
    problem = Problem(net, params, dists)
    for s in order:
        shared = _outcome(lambda s=s: run_strategy(s, net, params, dists, mlp=mlp, problem=problem))
        assert shared == standalone[s], s


@settings(max_examples=100)
@given(problem=_problems(), order=st.permutations(RULE_STRATEGIES), size=st.integers(1, 3))
def test_shared_problem_reports_equal_standalone_runs(problem, order, size):
    _check_shared_equals_standalone(*problem, order[:size])


@settings(max_examples=100)
@given(x=st.integers(1, 300), n=st.integers(1, 10), lam=st.sampled_from([1.0, 4.0, 8.0]),
       k=st.sampled_from([10.0, 200.0, math.inf]), distance=st.floats(8.0, 150.0),
       order=st.permutations(RULE_STRATEGIES + ("mlp_closed_form",)), size=st.integers(1, 4))
def test_shared_problem_with_the_closed_form_on_an_equal_width_mlp(x, n, lam, k, distance,
                                                                   order, size):
    spec = MlpSpec((x,) * (n + 1), lam, 8.0, 100.0, DOWNLINK_BPS)
    params = make_params(updates_per_model=k)
    dists = (channel_at(distance, params),) * (n + 1)
    _check_shared_equals_standalone(build_mlp(spec), params, dists, order[:size], mlp=spec)


@settings(max_examples=100)
@given(law=_laws(), stage=st.integers(0, 3), order=st.permutations(RULE_STRATEGIES))
def test_shared_problem_with_one_discrete_or_capped_stage(law, stage, order):
    params = make_params()
    net = build_mlp(MlpSpec((64, 32, 48, 16), 8.0, 8.0, 100.0, DOWNLINK_BPS))
    dists = [channel_at(30.0 + 20.0 * i, params) for i in range(4)]
    dists[stage] = law
    _check_shared_equals_standalone(net, params, dists, order)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_hybrid_reads_the_optimal_row_the_problem_already_holds(monkeypatch, autoencoder,
                                                                 params, dist_d50):
    inductions = _counting(monkeypatch, splitting, "backward_induction")
    recursions = _counting(monkeypatch, placement, "optimal_recursion")
    sweeps = _counting(monkeypatch, placement, "one_sla_thresholds")
    problem = Problem(autoencoder, params, dist_d50)
    for strategy in ("optimal_exhaustive", "one_sla_exhaustive", "hybrid", "optimal_exhaustive"):
        run_strategy(strategy, autoencoder, params, dist_d50, problem=problem)
    assert (len(inductions), len(recursions), len(sweeps)) == (0, 1, 1)


def test_hybrid_before_the_optimal_rule_runs_one_backward_induction(monkeypatch, autoencoder,
                                                                    params, dist_d50):
    inductions = _counting(monkeypatch, splitting, "backward_induction")
    problem = Problem(autoencoder, params, dist_d50)
    report = run_strategy("hybrid", autoencoder, params, dist_d50, problem=problem)
    assert report.best_M > 0
    assert [args[0] for args in inductions] == [report.best_M]
    run_strategy("optimal_exhaustive", autoencoder, params, dist_d50, problem=problem)
    run_strategy("hybrid", autoencoder, params, dist_d50, problem=problem)
    assert len(inductions) == 1


def test_each_problem_builds_its_own_results(monkeypatch, params):
    recursions = _counting(monkeypatch, placement, "optimal_recursion")
    net = build_mlp(MlpSpec((32, 16, 8), 8.0, 8.0, 100.0, DOWNLINK_BPS))
    law = StageDistribution.truncated_exponential(2.0)
    first, second = Problem(net, params, law), Problem(net, params, law)
    assert first.optimal is first.optimal
    assert second.optimal is not first.optimal
    assert len(recursions) == 2
