"""Slow-timescale choice of how many layers to place on the device.

Four strategies, all minimizing Z(M) = beta_t * psi(M) + expected inference
cost under a stopping rule, composed by `CostModel.total_cost`:

* optimal_exhaustive  - try every M with the backward-induction rule; one
  lockstep recursion gives every V_M(1), the expected cost at M, with one
  tail read per stage, and only the best M becomes a policy.
* one_sla_exhaustive  - try every M with the 1-sla rule; thresholds are
  M-independent, so every Z(M) reads the first M stages of one stage table
  for the N-stage policy plus the forced stop at M+1: the whole sweep is
  linear in N.
* mlp_closed_form     - equal-width MLPs only: the per-M cost decrement has
  a geometric form, so the argmin is solved in closed form.
* hybrid              - pick M with the 1-sla sweep, then take the optimal
  rule's value at that M.

All but the closed form read one `Problem`; `hybrid` reads row M of its optimal
recursion once built, and runs one backward induction for M otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .channel import StageDistribution, inv_rate_expectation, inv_rate_table, per_stage
from .cost_model import LN2, SystemParams, cost_model
from .errors import NumericalError
from .model_graph import MlpSpec, NetworkSpec, build_mlp
# backward_induction is reached through build_policy; the name stays here for
# perfbench/test_perfbench.py, which wraps edgesplit.placement.backward_induction.
from .splitting import (
    ThresholdPolicy,
    backward_induction,  # noqa: F401
    build_policy,
    expected_etc,
    forced_offload_policy,
    forced_stop_cost,
    one_sla_thresholds,
    optimal_recursion,
    stage_table,
)

STRATEGIES = ("optimal_exhaustive", "one_sla_exhaustive", "mlp_closed_form", "hybrid")


@dataclass(frozen=True)
class PlacementRow:
    M: int
    Z: float
    expected_etc: float
    psi: float
    error: str | None = None


@dataclass
class PlacementReport:
    strategy: str
    best_M: int
    rows: tuple[PlacementRow, ...]
    policy_at_best: ThresholdPolicy
    diagnostics: dict = field(default_factory=dict)

    def row(self, M: int) -> PlacementRow:
        for r in self.rows:
            if r.M == M:
                return r
        raise KeyError(f"M={M} was not evaluated")

    @property
    def best_Z(self) -> float:
        return self.row(self.best_M).Z

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "best_M": self.best_M,
            "rows": [
                {"M": r.M, "Z": r.Z, "expected_etc": r.expected_etc, "psi": r.psi,
                 **({"error": r.error} if r.error else {})}
                for r in self.rows
            ],
            "policy_at_best": self.policy_at_best.to_json_dict(),
            "diagnostics": dict(self.diagnostics),
        }

    def to_csv_rows(self) -> list[str]:
        """Rows `strategy,M,Z,expected_etc,psi,best` (12 significant digits)."""
        out = []
        for r in self.rows:
            if r.error:
                out.append(f"{self.strategy},{r.M},nan,nan,{r.psi:.12g},0")
                continue
            best = 1 if r.M == self.best_M else 0
            out.append(f"{self.strategy},{r.M},{r.Z:.12g},{r.expected_etc:.12g},{r.psi:.12g},{best}")
        return out


def _pick_best(rows) -> int:
    best_m, best_z = None, math.inf
    for r in rows:
        if r.error is not None or math.isnan(r.Z):
            continue
        if r.Z < best_z:  # strict: ties keep the smaller M seen first
            best_m, best_z = r.M, r.Z
    if best_m is None:
        raise NumericalError("no placement could be evaluated")
    return best_m


class Problem:
    """One placement problem: a network, its constants and its N+1 stage laws.

    Built per `place` request or sweep point, it holds the cost model and
    builds on first use the forced-stop costs, the 1-sla sweep and the
    optimal recursion. Nothing is kept across Problems."""

    def __init__(self, net: NetworkSpec, params: SystemParams, dists):
        self.net, self.params = net, params
        self.dists = per_stage(dists, net.N + 1)
        self.cm = cost_model(net, params)

    @cached_property
    def forced(self) -> list[float]:
        """Expected cost of the forced stop at stage M+1, for M = 0..N."""
        return [forced_stop_cost(self.cm, M + 1, d) for M, d in enumerate(self.dists)]

    @cached_property
    def optimal(self) -> tuple:
        """Threshold and value matrices of `optimal_recursion` over M = 0..N."""
        return optimal_recursion(range(self.net.N + 1), self.net, self.params, self.dists)

    def optimal_policy(self, M: int) -> ThresholdPolicy:
        """Row M of the recursion once it has run, else one backward induction."""
        if "optimal" not in vars(self):  # where cached_property keeps it
            return build_policy("optimal", M, self.net, self.params, self.dists)
        thresholds, values = self.optimal
        return ThresholdPolicy("optimal", M, thresholds[M, :M], values[M, :M + 1])

    @cached_property
    def one_sla(self) -> tuple:
        """The N-stage 1-sla policy and its sweep's rows: the thresholds do not
        depend on M, so Z(M) reads the first M stages of one stage table."""
        full = one_sla_thresholds(self.net.N, self.net, self.params, self.dists)
        table, forced = stage_table(full, self.dists, self.cm), self.forced
        return full, self.rows(lambda M: table.expected_etc(M, forced[M]))

    def rows(self, evaluate) -> tuple[PlacementRow, ...]:
        """A row per M = 0..N; a NumericalError of `evaluate(M)` fails its row."""
        rows = []
        for M in range(self.net.N + 1):
            psi = self.cm.placement_cost(M)
            try:
                ee = evaluate(M)
            except NumericalError as exc:
                rows.append(PlacementRow(M, math.nan, math.nan, psi, error=str(exc)))
                continue
            rows.append(PlacementRow(M, self.cm.total_cost(M, ee), ee, psi))
        return tuple(rows)


def optimize_exhaustive(problem: Problem, rule_kind: str = "optimal") -> PlacementReport:
    """Evaluate Z(M) for every M = 0..N under the requested stopping rule."""
    if rule_kind == "optimal":
        values = problem.optimal[1]
        rows, policy_at = problem.rows(lambda M: float(values[M, 0])), problem.optimal_policy
    elif rule_kind == "one_sla":
        full, rows = problem.one_sla
        policy_at = lambda M: ThresholdPolicy("one_sla", M, full.thresholds[:M])  # noqa: E731
    else:
        raise ValueError("rule_kind must be 'optimal' or 'one_sla'")
    best = _pick_best(rows)
    return PlacementReport(f"{rule_kind}_exhaustive", best, rows, policy_at(best))


def theta_one_sla(M: int, net: NetworkSpec, params: SystemParams, dists) -> float:
    """Expected-cost decrement of the 1-sla rule when placement grows M-1 -> M.

    Uses the product form: only histories that decline to stop at every stage
    before M are affected by the extra layer, and for those the change swaps
    a forced stop at M for one more look. Always negative (more layers can
    only help the splitter) unless stage M is unreachable.
    """
    if not 1 <= M <= net.N:
        raise ValueError(f"M must lie in [1, {net.N}]")
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    policy = one_sla_thresholds(M, net, params, ds)
    table = stage_table(policy, ds)

    reach = float(table.reach[M])
    if reach <= 0.0:
        return 0.0
    forced = forced_stop_cost(cm, M + 1, ds[M])
    # E[1/R; SNR < t]: the tail is closed at t because a tie stops
    below = (inv_rate_table(ds[M - 1], params.bandwidth_hz).full
             - inv_rate_expectation(ds[M - 1], policy.thresholds[M - 1], params.bandwidth_hz))
    return reach * (forced - cm.omega(M) - cm.weight(M) * below / float(table.continue_prob[M - 1]))


def mlp_closed_form(mlp: MlpSpec, params: SystemParams, dist: StageDistribution) -> PlacementReport:
    """Closed-form placement for an equal-width MLP under the 1-sla rule.

    All stages share one threshold delta, so the cost decrement at placement
    M factorizes as X * F(delta)^M * g(delta) with g < 0, and Z(M) is
    unimodal: decreasing while the (geometrically shrinking) inference gain
    outweighs the constant per-layer download charge. The switchover index is
    read off a logarithm; both integer neighbors are evaluated and the
    cheaper one returned.
    """
    if not mlp.is_equal_width:
        raise ValueError("closed-form placement requires equal widths at every layer")
    if not isinstance(dist, StageDistribution):
        raise TypeError("closed-form placement uses a single shared StageDistribution")
    net = build_mlp(mlp)
    N = net.N
    X = mlp.neurons[0]
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz

    lam_bits = 8.0 * mlp.bytes_per_activation
    weight_per_bit = params.beta_t + params.beta_e * params.tx_power_w
    unit_gap = (
        params.beta_t * (1.0 / params.local_freq_hz - 1.0 / params.edge_freq_hz)
        + params.beta_e * params.kappa * params.local_freq_hz**2
    )
    alpha_x = mlp.cycles_per_macc * X
    einv = inv_rate_table(dist, bandwidth).full

    exponent = (weight_per_bit * lam_bits) / (
        bandwidth * (lam_bits * weight_per_bit * einv + unit_gap * alpha_x)
    )
    delta = math.expm1(exponent * LN2)
    cont = float(dist.prob_below(delta))
    g = g_raw = None
    if cont > 0.0:
        # E[1/R; SNR < delta]: the tail is closed at delta because a tie stops
        below = einv - inv_rate_expectation(dist, delta, bandwidth)
        # bracket of the decrement, computed both ways: directly, and simplified
        # through the threshold's indifference identity. They must agree; a gap
        # means the truncation floor broke the identity.
        g_raw = alpha_x * unit_gap + weight_per_bit * lam_bits * (einv - below / cont)
        g = weight_per_bit * lam_bits * (1.0 / (bandwidth * math.log1p(delta) / LN2) - below / cont)
        if g >= 0.0:
            raise NumericalError(
                "per-layer cost decrement is nonnegative; numerical or truncation problem",
                estimate=g)

    K = params.updates_per_model
    download_term = 0.0 if math.isinf(K) else (
        params.beta_t * 8.0 * mlp.bytes_per_parameter * (X + 1) / (K * mlp.downlink_rate_bps)
    )

    m_real = None
    # cont = 0: the channel always clears delta, so every M >= 1 stops at
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

    rows = []
    policies = {}
    for M in candidates:
        policy = (ThresholdPolicy("one_sla", M, (delta,) * M) if M > 0
                  else forced_offload_policy("one_sla", net, params, dist))
        ee = expected_etc(policy, net, params, dist)
        rows.append(PlacementRow(M, cm.total_cost(M, ee), ee, cm.placement_cost(M)))
        policies[M] = policy
    best = _pick_best(rows)
    return PlacementReport(
        "mlp_closed_form", best, tuple(rows), policies[best],
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
    rows = problem.one_sla[1]
    M = _pick_best(rows)
    policy = problem.optimal_policy(M)
    ee = policy.value_table[0]
    refined = PlacementRow(M, problem.cm.total_cost(M, ee), ee, problem.cm.placement_cost(M))
    return PlacementReport("hybrid", M, tuple(refined if r.M == M else r for r in rows), policy,
                           diagnostics={"one_sla_Z_at_best": rows[M].Z})


def run_strategy(strategy: str, net: NetworkSpec, params: SystemParams, dists,
                 mlp: MlpSpec | None = None, problem: Problem | None = None) -> PlacementReport:
    """Dispatch a strategy by name; one request's strategies share `problem`."""
    if strategy == "mlp_closed_form":
        if mlp is None:
            raise ValueError("mlp_closed_form needs an MLP network (equal widths)")
        if isinstance(dists, (list, tuple)):
            unique = set(dists)
            if len(unique) != 1:
                raise ValueError("mlp_closed_form needs one shared stage distribution")
            dists = next(iter(unique))
        return mlp_closed_form(mlp, params, dists)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    problem = problem or Problem(net, params, dists)
    if strategy == "hybrid":
        return hybrid(problem)
    return optimize_exhaustive(problem, "optimal" if strategy == "optimal_exhaustive" else "one_sla")
