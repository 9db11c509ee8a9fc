"""Slow-timescale choice of how many layers to place on the device.

Four strategies, all minimizing Z(M) = beta_t * psi(M) + expected inference
cost under a stopping rule:

* optimal_exhaustive  - try every M with the backward-induction rule.
* one_sla_exhaustive  - try every M with the 1-sla rule; thresholds are
  M-independent so the whole sweep is linear in N.
* mlp_closed_form     - equal-width MLPs only: the per-M cost decrement has
  a geometric form, so the argmin is solved in closed form.
* hybrid              - pick M with the 1-sla sweep, then run the optimal
  stopping rule at that M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import StageDistribution, inv_rate_expectation, per_stage
from .cost_model import SystemParams, cost_model
from .errors import NumericalError
from .model_graph import MlpSpec, NetworkSpec, build_mlp
# This module reaches backward_induction only through build_policy; the name
# stays importable here because perfbench/test_perfbench.py wraps and checks
# edgesplit.placement.backward_induction.
from .splitting import (
    ThresholdPolicy,
    backward_induction,  # noqa: F401
    build_policy,
    expected_etc,
    forced_offload_policy,
    one_sla_thresholds,
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


def optimize_exhaustive(net: NetworkSpec, params: SystemParams, dists,
                        rule_kind: str = "optimal") -> PlacementReport:
    """Evaluate Z(M) for every M = 0..N under the requested stopping rule."""
    if rule_kind not in ("optimal", "one_sla"):
        raise ValueError("rule_kind must be 'optimal' or 'one_sla'")
    N = net.N
    ds = per_stage(dists, N + 1)
    cm = cost_model(net, params)

    shared_one_sla = one_sla_thresholds(N, net, params, ds) if rule_kind == "one_sla" else None
    rows = []
    policies = {}
    for M in range(N + 1):
        if shared_one_sla is not None and M > 0:
            policy = ThresholdPolicy("one_sla", M, shared_one_sla.thresholds[:M])
        else:
            policy = build_policy(rule_kind, M, net, params, ds)
        psi = cm.placement_cost(M)
        try:
            ee = expected_etc(policy, net, params, ds)
        except NumericalError as exc:
            rows.append(PlacementRow(M, math.nan, math.nan, psi, error=str(exc)))
            continue
        rows.append(PlacementRow(M, params.beta_t * psi + ee, ee, psi))
        policies[M] = policy
    best = _pick_best(rows)
    strategy = "optimal_exhaustive" if rule_kind == "optimal" else "one_sla_exhaustive"
    return PlacementReport(strategy, best, tuple(rows), policies[best])


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
    bandwidth = params.bandwidth_hz
    policy = one_sla_thresholds(M, net, params, ds)

    reach = 1.0
    for n in range(1, M + 1):
        reach *= float(ds[n - 1].cdf(policy.thresholds[n - 1]))
    if reach <= 0.0:
        return 0.0
    t_m = policy.thresholds[M - 1]
    cont_m = float(ds[M - 1].cdf(t_m))
    bracket = (
        cm.omega(M + 1)
        + cm.weight(M + 1) * inv_rate_expectation(ds[M], 0.0, math.inf, bandwidth)
        - cm.omega(M)
        - cm.weight(M) * inv_rate_expectation(ds[M - 1], 0.0, t_m, bandwidth) / cont_m
    )
    return reach * bracket


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
    einv = inv_rate_expectation(dist, 0.0, math.inf, bandwidth)

    exponent = (weight_per_bit * lam_bits) / (
        bandwidth * (lam_bits * weight_per_bit * einv + unit_gap * alpha_x)
    )
    delta = 2.0**exponent - 1.0
    cont = float(dist.cdf(delta))
    if cont <= 0.0:
        raise NumericalError(
            "shared 1-sla threshold sits at or below the SNR floor; "
            "the geometric decrement is degenerate", estimate=delta)
    below = inv_rate_expectation(dist, 0.0, delta, bandwidth)
    # bracket of the decrement, computed both ways: directly, and simplified
    # through the threshold's indifference identity. They must agree; a gap
    # means the truncation floor broke the identity.
    g_raw = alpha_x * unit_gap + weight_per_bit * lam_bits * (einv - below / cont)
    g = weight_per_bit * lam_bits * (1.0 / (bandwidth * math.log2(1.0 + delta)) - below / cont)
    if g >= 0.0:
        raise NumericalError(
            "per-layer cost decrement is nonnegative; numerical or truncation problem",
            estimate=g)

    K = params.updates_per_model
    download_term = 0.0 if math.isinf(K) else (
        params.beta_t * 8.0 * mlp.bytes_per_parameter * (X + 1) / (K * mlp.downlink_rate_bps)
    )

    m_real = None
    if cont**N * g + download_term < 0.0:
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
        psi = cm.placement_cost(M)
        rows.append(PlacementRow(M, params.beta_t * psi + ee, ee, psi))
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


def hybrid(net: NetworkSpec, params: SystemParams, dists) -> PlacementReport:
    """Linear-cost placement via the 1-sla sweep, then the optimal rule there.

    The returned cost at the chosen M uses the backward-induction rule, so it
    can only improve on the 1-sla sweep's own value.
    """
    N = net.N
    ds = per_stage(dists, N + 1)
    base = optimize_exhaustive(net, params, ds, rule_kind="one_sla")
    M = base.best_M
    cm = cost_model(net, params)
    policy = build_policy("optimal", M, net, params, ds)
    ee = expected_etc(policy, net, params, ds)
    psi = cm.placement_cost(M)
    refined = PlacementRow(M, params.beta_t * psi + ee, ee, psi)
    rows = tuple(refined if r.M == M else r for r in base.rows)
    return PlacementReport(
        "hybrid", M, rows, policy,
        diagnostics={"one_sla_Z_at_best": base.row(M).Z},
    )


def run_strategy(strategy: str, net: NetworkSpec, params: SystemParams, dists,
                 mlp: MlpSpec | None = None) -> PlacementReport:
    """Dispatch a placement strategy by name."""
    if strategy == "optimal_exhaustive":
        return optimize_exhaustive(net, params, dists, rule_kind="optimal")
    if strategy == "one_sla_exhaustive":
        return optimize_exhaustive(net, params, dists, rule_kind="one_sla")
    if strategy == "hybrid":
        return hybrid(net, params, dists)
    if strategy == "mlp_closed_form":
        if mlp is None:
            raise ValueError("mlp_closed_form needs an MLP network (equal widths)")
        if isinstance(dists, (list, tuple)):
            unique = set(dists)
            if len(unique) != 1:
                raise ValueError("mlp_closed_form needs one shared stage distribution")
            dists = next(iter(unique))
        return mlp_closed_form(mlp, params, dists)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
