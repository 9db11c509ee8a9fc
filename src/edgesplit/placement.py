"""Slow-timescale choice of how many layers to place on the device.

Four strategies, all minimizing Z(M) = beta_t * psi(M) + expected inference
cost under a stopping rule, composed by `CostModel.total_cost`:

* optimal_exhaustive  - try every M with the backward-induction rule; one
  lockstep recursion gives every V_M(1), the expected cost at M, with one
  tail read per stage, and only the best M becomes a policy.
* one_sla_exhaustive  - try every M with the 1-sla rule, whose thresholds are
  the recursion's top stages and M-independent: every Z(M) reads one stage
  table plus the forced stop at M+1, a sweep linear in N.
* mlp_closed_form     - equal-width MLPs only: every stage shares one 1-sla
  threshold, the per-M cost decrement is geometric, and the argmin is
  solved in closed form.
* hybrid              - pick M with the 1-sla sweep, then take the optimal
  rule's value at that M.

Every strategy reads one `splitting.Problem`, which owns the stage laws, the
cost model and both rules' policies; this module only turns its expected costs
into Z(M) rows. `hybrid` runs the optimal recursion at its one horizon M on read
hits once the Problem has run it, and one backward induction for M otherwise.
"""
from __future__ import annotations

import math

from .cost_model import SystemParams, uplink_rate
from .errors import NumericalError
from .model_graph import MlpSpec, NetworkSpec, build_mlp
from .records import Record
# backward_induction is reached through Problem.policy; the name stays here for
# perfbench/test_perfbench.py, which wraps edgesplit.placement.backward_induction.
from .splitting import Problem, ThresholdPolicy, backward_induction  # noqa: F401

STRATEGIES = ("optimal_exhaustive", "one_sla_exhaustive", "mlp_closed_form", "hybrid")
# The strategies that apply one stopping rule at every M, and that rule: the
# strategies that `sweep` over M and `simulate` accept.
RULE_OF_STRATEGY = {"optimal_exhaustive": "optimal", "one_sla_exhaustive": "one_sla"}


class PlacementRow(Record):
    """Z(M) = expected_etc + beta_t * psi at one placement M."""

    __slots__ = ("M", "Z", "expected_etc", "psi")

    def __init__(self, M: int, Z: float, expected_etc: float, psi: float):
        self._set(M, Z, expected_etc, psi)


class PlacementReport(Record):
    """A strategy's rows, its best M and the policy there."""

    __slots__ = ("strategy", "best_M", "rows", "policy_at_best", "diagnostics")

    def __init__(self, strategy: str, best_M: int, rows: tuple, policy_at_best: ThresholdPolicy,
                 diagnostics: dict | None = None):
        self._set(strategy, best_M, rows, policy_at_best, {} if diagnostics is None else diagnostics)

    def row(self, M: int) -> PlacementRow:
        for r in self.rows:
            if r.M == M:
                return r
        raise KeyError(f"M={M} was not evaluated")

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "best_M": self.best_M,
            "rows": [
                {"M": r.M, "Z": r.Z, "expected_etc": r.expected_etc, "psi": r.psi}
                for r in self.rows
            ],
            "policy_at_best": self.policy_at_best.to_json_dict(),
            "diagnostics": dict(self.diagnostics),
        }


def _pick_best(rows) -> int:
    """The M of the cheapest row; a row whose Z is not finite fails the plan."""
    bad = [r.M for r in rows if not math.isfinite(r.Z)]
    if bad:
        raise NumericalError(f"Z is not finite at M = {bad}")
    return min(rows, key=lambda r: r.Z).M  # min keeps the first: ties go to the smaller M


def _rows(problem: Problem, evaluate, Ms) -> tuple[PlacementRow, ...]:
    """A row per M in `Ms` with expected cost `evaluate(M)`; a NumericalError
    of any M fails the whole plan."""
    cm = problem.cm
    rows = []
    for M in Ms:
        psi = cm.placement_cost(M)
        ee = evaluate(M)
        rows.append(PlacementRow(M, cm.total_cost(M, ee), ee, psi))
    return tuple(rows)


def _one_sla_rows(problem: Problem, Ms) -> tuple[PlacementRow, ...]:
    """The 1-sla sweep's rows at each M in `Ms`: Z(M) reads the first M stages
    of the Problem's one 1-sla stage table plus the forced stop at M+1."""
    table, forced = problem.one_sla_table, problem.forced
    return _rows(problem, lambda M: table.expected_etc(M, forced[M]), Ms)


def optimize_exhaustive(problem: Problem, rule_kind: str = "optimal") -> PlacementReport:
    """Evaluate Z(M) for every M = 0..N under the requested stopping rule."""
    if rule_kind == "optimal":
        rows = _rows(problem, problem.optimal[0].__getitem__, range(problem.M + 1))
    elif rule_kind == "one_sla":
        rows = _one_sla_rows(problem, range(problem.M + 1))
    else:
        raise ValueError("rule_kind must be 'optimal' or 'one_sla'")
    best = _pick_best(rows)
    strategy = next(s for s, rule in RULE_OF_STRATEGY.items() if rule == rule_kind)
    return PlacementReport(strategy, best, rows, problem.policy(rule_kind, best))


def mlp_closed_form(problem: Problem, mlp: MlpSpec) -> PlacementReport:
    """Closed-form placement for an equal-width MLP under the 1-sla rule, on
    the Problem of its network and one law shared by every stage; an `mlp`
    whose network is not `problem.net` is a ValueError.

    All stages share the Problem's stage-1 1-sla threshold delta, so
    the cost decrement at placement M factorizes as X * F(delta)^M * g(delta)
    with g < 0 (per neuron), and Z(M) is unimodal: decreasing while the
    (geometrically shrinking) inference gain outweighs the per-layer download
    charge beta_t * psi(1). The switchover index is read off a logarithm;
    both integer neighbors are evaluated, as rows of the 1-sla sweep, and the
    cheaper one returned.
    """
    if mlp is None or not mlp.is_equal_width:
        raise ValueError("closed-form placement requires an MLP with equal widths at every layer")
    if build_mlp(mlp) != problem.net:
        raise ValueError("the closed form's mlp is not the network of its Problem")
    if any(d is not problem.dists[0] for d in problem.dists):
        raise TypeError("closed-form placement uses a single shared StageDistribution")
    dist, params, cm, N = problem.dists[0], problem.params, problem.cm, problem.M
    X = mlp.neurons[0]
    delta = problem.one_sla.thresholds[0]
    (_, einv), (cont, tail) = problem.reads(dist, [0.0, delta])
    g = g_raw = None
    if cont > 0.0:
        w, margin = cm.weight(1), cm.local_gap(1) + problem.transmission[1]
        # E[1/R; SNR < delta]: the tail is closed at delta because a tie stops
        below = einv - tail
        # bracket of the decrement, computed both ways: directly, and simplified
        # through the threshold's indifference identity w / R(delta) = margin.
        # They must agree; a gap means the truncation floor broke the identity.
        g_raw = (margin - w * below / cont) / X
        g = w * (1.0 / uplink_rate(delta, params) - below / cont) / X
        if g >= 0.0:
            raise NumericalError(
                "per-layer cost decrement is nonnegative; numerical or truncation problem",
                estimate=g)

    download_term = cm.total_cost(1, 0.0) / X  # beta_t * psi(1); 0 when K = inf
    m_real = None
    # cont = 0: the channel always clears delta, so every positive M stops at
    # stage 1 at the forced-offload cost and Z(M) = Z(0) + beta_t * psi(M)
    if cont <= 0.0:
        branch, candidates = "no_layers", [0]
    elif cont**N * g + download_term < 0.0:
        branch, candidates = "all_layers", [N]
    elif cont * g + download_term > 0.0:
        branch, candidates = "no_layers", [0]
    else:
        branch = "interior"
        m_real = math.log(download_term / -g) / math.log(cont)
        candidates = sorted({min(max(int(math.floor(m_real)), 0), N),
                             min(max(int(math.ceil(m_real)), 0), N)})

    rows = _one_sla_rows(problem, candidates)
    best = _pick_best(rows)
    return PlacementReport(
        "mlp_closed_form", best, rows, problem.policy("one_sla", best),
        diagnostics={
            "delta_threshold": delta,
            "cdf_at_delta": cont,
            "g_simplified": g,
            "g_raw": g_raw,
            "branch": branch,
            "m_real": m_real,
            "network_N": N,
        },
    )


def hybrid(problem: Problem) -> PlacementReport:
    """Pick M with the 1-sla sweep, then report the optimal rule's value there,
    which can only improve on the sweep's own."""
    rows = _one_sla_rows(problem, range(problem.M + 1))
    M = _pick_best(rows)
    policy = problem.policy("optimal", M)
    refined = _rows(problem, lambda _: policy.value_table[0], [M])[0]
    return PlacementReport("hybrid", M, tuple(refined if r.M == M else r for r in rows), policy,
                           diagnostics={"one_sla_Z_at_best": rows[M].Z})


def run_strategy(strategy: str, net: NetworkSpec, params: SystemParams, dists,
                 mlp: MlpSpec | None = None, problem: Problem | None = None) -> PlacementReport:
    """Dispatch a strategy by name; one request's strategies share `problem`."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    problem = problem or Problem(net, params, dists)
    if strategy == "mlp_closed_form":
        return mlp_closed_form(problem, mlp)
    if strategy == "hybrid":
        return hybrid(problem)
    return optimize_exhaustive(problem, RULE_OF_STRATEGY[strategy])
