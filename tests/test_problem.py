"""One `Problem` per request: the strategies run on it share its tail tables,
its 1-sla sweep and its optimal recursion, and each reports exactly what a
standalone `run_strategy` reports. Each CLI command builds one Problem, one
tail table per distinct stage law, reads each stage table it needs once, and
reads each stage law at each threshold once."""
import json
import math
import tracemalloc
from functools import cached_property

from hypothesis import given, settings
from hypothesis import strategies as st

from edgesplit import (
    NumericalError,
    Problem,
    StageDistribution,
    config,
    run_strategy,
    splitting,
)
from edgesplit.channel import TailTable
from edgesplit.cli import main
from edgesplit.model_graph import LayerSpec, MlpSpec, NetworkSpec, build_mlp
from edgesplit.placement import STRATEGIES

from conftest import DOWNLINK_BPS, channel_at, make_params, reference_config_dict
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


def _counting_builds(monkeypatch, name):
    """Count the builds of the Problem's cached property `name`."""
    calls = []
    original = vars(Problem)[name].func

    def build(self):
        calls.append(self)
        return original(self)

    prop = cached_property(build)
    prop.__set_name__(Problem, name)
    monkeypatch.setattr(Problem, name, prop)
    return calls


def test_hybrid_reads_the_optimal_row_the_problem_already_holds(monkeypatch, autoencoder,
                                                                 params, dist_d50):
    """Once `optimal_exhaustive` has run, the strategies build no second
    recursion of the Problem's own horizon and no second 1-sla sweep, and
    `hybrid`'s pass at its smaller M reads no stage law anew."""
    inductions = _counting(monkeypatch, splitting, "backward_induction")
    recursions = _counting_builds(monkeypatch, "optimal")
    sweeps = _counting_builds(monkeypatch, "one_sla")
    problem = Problem(autoencoder, params, dist_d50)
    run_strategy("optimal_exhaustive", autoencoder, params, dist_d50, problem=problem)
    reads = _counting_tail_reads(monkeypatch)
    below = _counting(monkeypatch, StageDistribution, "prob_below")
    for strategy in ("one_sla_exhaustive", "hybrid", "optimal_exhaustive"):
        report = run_strategy(strategy, autoencoder, params, dist_d50, problem=problem)
        if strategy == "hybrid":
            assert 0 < report.best_M < problem.M  # the pass below the top
    assert (len(inductions), len(recursions), len(sweeps)) == (0, 1, 1)
    assert (reads, below) == ([], [])


def test_a_request_computes_each_forced_stop_cost_once(monkeypatch, autoencoder, params,
                                                       dist_d50):
    """The recursion reads the Problem's transmission costs, from which its
    forced-stop costs follow: the N + 1 stages of one law read their E[1/R]
    off one table for all three rule strategies together."""
    tables = _counting(monkeypatch, TailTable, "__init__")
    problem = Problem(autoencoder, params, dist_d50)
    for strategy in RULE_STRATEGIES:
        run_strategy(strategy, autoencoder, params, dist_d50, problem=problem)
    assert len(tables) == 1


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
    recursions = _counting(monkeypatch, Problem, "recursion")
    net = build_mlp(MlpSpec((32, 16, 8), 8.0, 8.0, 100.0, DOWNLINK_BPS))
    law = StageDistribution.truncated_exponential(2.0)
    first, second = Problem(net, params, law), Problem(net, params, law)
    assert first.optimal is first.optimal
    assert second.optimal is not first.optimal
    assert first.policy("optimal", net.N) is first.optimal[1]
    assert recursions == [(first, net.N), (second, net.N)]


def test_a_horizon_below_the_top_is_one_single_horizon_pass(monkeypatch, autoencoder, params,
                                                            dist_d50):
    """Once `optimal` has run, the optimal policy at 0 < M < N evaluates M
    indifference thresholds, one per stage, where the lockstep recursion over
    horizons 0..M evaluates M(M+1)/2; it is the policy at M of a fresh Problem."""
    problem = Problem(autoencoder, params, dist_d50)
    problem.optimal
    evaluations = _counting(monkeypatch, splitting, "_indifference_threshold")
    for M in range(1, problem.M):
        evaluations.clear()
        policy = problem.policy("optimal", M)
        assert len(evaluations) == M, M
        assert policy == Problem(autoencoder, params, dist_d50, M).optimal[1], M


def _three_pattern_network(N):
    """N layers that repeat three (cycles, payload bits, download seconds) patterns."""
    pattern = [(1e6, 32768.0, 0.002), (3e6, 8192.0, 0.004), (2e6, 16384.0, 0.001)]
    return NetworkSpec(tuple(LayerSpec(*pattern[n % 3]) for n in range(N)), 1024.0)


def _planning_peak(N, params, law):
    """The tracemalloc peak of a Problem on the N-layer network and the three
    rule strategies run on it."""
    net = _three_pattern_network(N)
    tracemalloc.start()
    try:
        problem = Problem(net, params, law)
        for strategy in RULE_STRATEGIES:
            run_strategy(strategy, net, params, law, problem=problem)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_planning_memory_grows_linearly_with_depth(params):
    law = channel_at(50.0, params)
    small, large = _planning_peak(200, params, law), _planning_peak(400, params, law)
    assert large <= 2.5 * small, (small, large)


# -- one Problem per command ---------------------------------------------------------

def _run(tmp_path, command, **overrides):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(reference_config_dict(**overrides)))
    return main([command, "--config", str(path), "--out", str(tmp_path / command)])


def test_an_m_sweep_builds_the_one_sla_thresholds_and_their_table_once(tmp_path, monkeypatch):
    """Every M of the axis reads its optimality probability, and the 1-sla
    rows read their expected costs, off one N-stage 1-sla table."""
    builds = _counting_builds(monkeypatch, "one_sla")
    tables = _counting(monkeypatch, Problem, "stage_table")
    assert _run(tmp_path, "sweep", sweep={"variable": "M", "values": list(range(9))},
                strategies=["optimal_exhaustive", "one_sla_exhaustive"]) == 0
    assert (len(builds), len(tables)) == (1, 1)


def test_simulate_builds_one_stage_table_per_rule(tmp_path, monkeypatch):
    tables = _counting(monkeypatch, Problem, "stage_table")
    for horizon, rules in ((8, 2), (3, 2), (0, 1)):
        tables.clear()
        strategies = ["optimal_exhaustive", "one_sla_exhaustive"][:rules]
        assert _run(tmp_path, "simulate", horizon_M=horizon, strategies=strategies,
                    trials=2000) == 0
        assert len(tables) == rules


def test_each_command_builds_exactly_one_problem(tmp_path, monkeypatch):
    problems = _counting(monkeypatch, Problem, "__init__")
    for command, overrides in (("thresholds", {}), ("thresholds", {"horizon_M": 3}),
                               ("simulate", {"trials": 2000,
                                             "strategies": ["optimal_exhaustive",
                                                            "one_sla_exhaustive"]}),
                               ("place", {})):
        problems.clear()
        assert _run(tmp_path, command, **overrides) == 0, command
        assert len(problems) == 1, (command, overrides)


# -- one Problem per K sweep ---------------------------------------------------------

def test_a_problem_at_another_k_reports_what_a_fresh_one_does(monkeypatch, autoencoder, alexnet,
                                                              params):
    """K moves only psi(M). A Problem re-priced with `with_updates`, after
    every strategy has run on it, gives each strategy's report and each K-free
    result of a fresh Problem at that K, and reads no stage law anew."""
    spec = MlpSpec((128,) * 6, 8.0, 8.0, 100.0, DOWNLINK_BPS)
    law = channel_at(50.0, params)
    reads = _counting_tail_reads(monkeypatch)
    for net, mlp, strategies in ((autoencoder, None, RULE_STRATEGIES),
                                 (alexnet, None, RULE_STRATEGIES),
                                 (build_mlp(spec), spec, STRATEGIES)):
        base = Problem(net, params, law)
        for s in strategies:
            run_strategy(s, net, params, law, mlp=mlp, problem=base)
        for k in (1, 7, 50, math.inf):
            at_k = params.with_updates(k)
            other, fresh = base.with_updates(k), Problem(net, at_k, law)
            assert (other.params, other.cm) == (at_k, fresh.cm)
            for s in strategies:
                reads.clear()
                shared = _outcome(lambda s=s: run_strategy(s, net, at_k, law, mlp=mlp, problem=other))
                assert reads == [], (s, k)
                assert shared == _outcome(lambda s=s: run_strategy(s, net, at_k, law, mlp=mlp)), (s, k)
            for name in ("transmission", "optimal", "one_sla", "one_sla_table"):
                assert getattr(other, name) == getattr(fresh, name), (name, k)


def test_a_k_sweep_runs_the_top_recursion_once(tmp_path, monkeypatch):
    """A 41-point K sweep of the shipped example plans once: one recursion at
    the network's horizon and 36 threshold reads, where a Problem per point
    made 41 and 1,476."""
    recursions = _counting(monkeypatch, Problem, "recursion")
    reads = _counting_tail_reads(monkeypatch)
    assert _run(tmp_path, "sweep",
                sweep={"variable": "updates_per_model", "values": [*range(1, 41), "inf"]}) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert sum(not row.startswith("#") for row in rows) == 1 + 41 * 3
    assert sum(args[1] == 8 for args in recursions) == 1
    assert len(reads) == 36


# -- one tail table per distinct law per Problem -------------------------------------

def test_each_problem_builds_the_tail_table_of_each_distinct_law(monkeypatch, autoencoder,
                                                                  params):
    """A tail table is Problem state: two Problems on one law build one table
    each, and a 9-stage list of two distinct laws, each law rebuilt at every
    stage, builds two for all three rule strategies."""
    tables = _counting(monkeypatch, TailTable, "__init__")
    law = channel_at(50.0, params)
    first, second = Problem(autoencoder, params, law), Problem(autoencoder, params, law)
    assert first.transmission == second.transmission
    assert len(tables) == 2
    tables.clear()
    dists = [channel_at(50.0, params) for _ in range(4)] + [channel_at(80.0, params) for _ in range(5)]
    problem = Problem(autoencoder, params, dists)
    for strategy in RULE_STRATEGIES:
        run_strategy(strategy, autoencoder, params, dists, problem=problem)
    assert [args[1] for args in tables] == [dists[0], dists[4]]


def test_a_k_sweep_builds_one_tail_table(tmp_path, monkeypatch):
    """The Problem re-priced at each K hands its one table on."""
    tables = _counting(monkeypatch, TailTable, "__init__")
    assert _run(tmp_path, "sweep",
                sweep={"variable": "updates_per_model", "values": [*range(1, 41), "inf"]}) == 0
    assert len(tables) == 1


# -- each (law, threshold) read once per Problem -------------------------------------

def _counting_tail_reads(monkeypatch):
    """(table, t) for every threshold passed to `TailTable.tails`."""
    reads = []
    original = TailTable.tails

    def tails(self, thresholds):
        reads.extend((self, t) for t in thresholds)
        return original(self, thresholds)

    monkeypatch.setattr(TailTable, "tails", tails)
    return reads


def test_a_place_request_reads_each_law_at_each_threshold_once(tmp_path, monkeypatch):
    """On an equal-width MLP a stage's threshold depends only on the remaining
    horizon, bit for bit, and the 1-sla thresholds, the closed form's among them,
    are the recursion's top stages: all four strategies on 12 layers read 12
    partial panels (a suffix plus the rule from t to its panel's edge), and no
    (law, t) twice."""
    reads = _counting_tail_reads(monkeypatch)
    problems = _counting(monkeypatch, Problem, "__init__")
    mlp12 = {"mlp": {"neurons": [64] * 13, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}
    assert _run(tmp_path, "place", network=mlp12, strategies=list(STRATEGIES)) == 0
    assert len(problems) == 1
    keys = [(id(table), t) for table, t in reads]
    assert len(keys) == len(set(keys))
    assert sum(table.edges[0] < t < table.near for table, t in reads) == 12


def test_equal_stage_laws_share_their_reads(tmp_path, monkeypatch):
    """A 13-entry list of one path-loss spec is read as the shared spec is: 12
    partial panels for all four strategies on the 12-layer MLP, and the same
    placement rows."""
    mlp12 = {"mlp": {"neurons": [64] * 13, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}
    spec = reference_config_dict()["channel"]
    reads = _counting_tail_reads(monkeypatch)
    rows = {}
    for name, channel in (("shared", spec), ("list", [spec] * 13)):
        (tmp_path / name).mkdir()
        reads.clear()
        assert _run(tmp_path / name, "place", network=mlp12, channel=channel,
                    strategies=list(STRATEGIES)) == 0
        assert sum(table.edges[0] < t < table.near for table, t in reads) == 12, name
        lines = (tmp_path / name / "place" / "placement.csv").read_text().splitlines()
        rows[name] = [line for line in lines if not line.startswith("# config_sha256=")]
    assert rows["list"] == rows["shared"]


def test_a_place_request_builds_each_channel_law_once(tmp_path, monkeypatch):
    """The config builds each channel spec's law once; the CLI reads the laws it
    keeps, for the request and for each distance-sweep point."""
    spec = reference_config_dict()["channel"]
    laws = _counting(monkeypatch, config, "_law")
    for channel in (spec, [spec] * 9, [dict(spec, distance_m=10.0 * k) for k in range(1, 10)]):
        laws.clear()
        assert _run(tmp_path, "place", channel=channel) == 0
        assert len(laws) == (len(channel) if isinstance(channel, list) else 1)
    laws.clear()
    assert _run(tmp_path, "sweep", channel=[spec] * 9,
                sweep={"variable": "distance_m", "values": [20, 80]}) == 0
    assert len(laws) == 3 * 9


def test_the_one_sla_table_reads_nothing_after_the_recursion(monkeypatch, autoencoder, params,
                                                             dist_d50):
    problem = Problem(autoencoder, params, dist_d50)
    problem.optimal
    ts = sorted({t for M in range(problem.M + 1) for t in problem.policy("optimal", M).thresholds
                 if t < math.inf})
    reads = _counting_tail_reads(monkeypatch)
    below = _counting(monkeypatch, StageDistribution, "prob_below")
    problem.one_sla_table
    assert (reads, below) == ([], [])
    # what the Problem keeps is what a read of one threshold on a new Problem gives
    fresh = [Problem(autoencoder, params, dist_d50).reads(dist_d50, [t])[0] for t in ts]
    assert problem.reads(dist_d50, ts) == fresh
