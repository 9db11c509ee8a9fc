"""Stopping rules for the online split-point decision.

With M layers on the device the split stage is chosen among 1..M+1 while the
per-stage SNRs are revealed one at a time. Both rules implemented here are
threshold rules: stop at the first stage n <= M whose observed SNR reaches
the stage threshold, otherwise stop at M+1.

* The optimal rule computes thresholds by backward induction on the expected
  cost-to-go: the stage-n threshold is the SNR at which stopping now and the
  expected cost of continuing are indifferent. One lockstep recursion serves
  every horizon M at once with one tail read per stage, on values held as
  their excess over omega: no margin is a difference of two large costs.
* The one-stage look-ahead (1-sla) rule compares stopping now against
  continuing exactly one stage and then stopping: its stage-n threshold is
  the top stage of the optimal recursion at horizon n, whatever M is.

Every E[1/R] tail is read off the law's table (`channel.inv_rate_tails`).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

from .channel import StageDistribution, inv_rate_table, inv_rate_tails, per_stage
from .cost_model import LN2, CostModel, SystemParams, cost_model, uplink_rate
from .errors import NumericalError
from .model_graph import NetworkSpec

RULE_KINDS = ("optimal", "one_sla")

# 2**x overflows float64 at x >= 1024; treat such thresholds as "never stop".
_EXP2_OVERFLOW = 1024.0


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-stage SNR thresholds plus the forced stop at stage horizon_M + 1.

    value_table (optimal rule only) holds the expected cost-to-go seen from
    each stage 1..M+1 before its SNR is observed; entry 0 is the expected
    cost of the whole policy.
    """

    rule_kind: str
    horizon_M: int
    thresholds: tuple[float, ...]
    value_table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.rule_kind not in RULE_KINDS:
            raise ValueError(f"rule_kind must be one of {RULE_KINDS}")
        if self.horizon_M < 0:
            raise ValueError("horizon_M must be nonnegative")
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if len(self.thresholds) != self.horizon_M:
            raise ValueError("need exactly one threshold per stage 1..horizon_M")
        # written so that NaN fails; a +inf threshold means "never stop there"
        if not all(-math.inf < t for t in self.thresholds):
            raise ValueError(f"thresholds must be numbers or +inf, got {self.thresholds!r}")
        if self.value_table is not None:
            object.__setattr__(self, "value_table", tuple(float(v) for v in self.value_table))
            if len(self.value_table) != self.horizon_M + 1:
                raise ValueError("value_table must cover stages 1..horizon_M+1")
            if not all(map(math.isfinite, self.value_table)):
                raise ValueError(f"value_table entries must be finite, got {self.value_table!r}")

    def to_json_dict(self) -> dict:
        d = {
            "rule_kind": self.rule_kind,
            "horizon_M": self.horizon_M,
            "thresholds": [_json_float(t) for t in self.thresholds],
        }
        if self.value_table is not None:
            d["value_table"] = list(self.value_table)
        return d


def _json_float(x: float):
    return "inf" if math.isinf(x) else x


@dataclass(frozen=True)
class SplitOutcome:
    """Realized decision on one SNR sequence."""

    stage: int
    snr_at_stop: float
    realized_etc: float


def _indifference_threshold(weight: float, bandwidth_hz: float, margin: float) -> float:
    """SNR at which weight / R(snr) equals margin; inf when no SNR suffices."""
    if margin <= 0:
        return math.inf
    exponent = weight / (bandwidth_hz * margin)
    if exponent >= _EXP2_OVERFLOW:
        return math.inf
    return math.expm1(exponent * LN2)


def optimal_recursion(horizons, transmission, net: NetworkSpec, params: SystemParams,
                      dists) -> tuple[list[list[float]], list[list[float]]]:
    """Backward induction for the distinct ascending `horizons` in lockstep.

    One pass from the top stage down to stage 1 carries the value of every
    horizon M >= n as its excess over omega(n). Horizon M joins at its forced
    stop, stage M+1, with excess `transmission[h]`, weight * E[1/R] there.
    Going on from stage n costs margin = excess + local_gap(n) over omega(n);
    the threshold is the indifference SNR of that margin (+inf: stopping never
    wins), the new excess weight * tail + margin * P{no stop}, from one
    `prob_below` call and one tail read over all finite thresholds. Row h
    belongs to M = horizons[h]: thresholds[h][:M] and values[h][:M+1].
    """
    Ms = list(horizons)
    top = Ms[-1]
    ds = per_stage(dists, top + 1)
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz
    thresholds = [[math.inf] * top for _ in Ms]
    values = [[0.0] * (top + 1) for _ in Ms]
    excess = [0.0] * len(Ms)
    live = len(Ms)  # rows live[:] are the horizons M >= n
    for n in range(top, -1, -1):
        if live and Ms[live - 1] == n:
            live -= 1
            excess[live] = transmission[live]
            values[live][n] = cm.omega(n + 1) + excess[live]
        if n == 0:
            break
        omega, weight, gap = cm.omega(n), cm.weight(n), cm.local_gap(n)
        stop = []
        for h in range(live, len(Ms)):
            excess[h] = margin = excess[h] + gap
            thresholds[h][n - 1] = t = _indifference_threshold(weight, bandwidth, margin)
            values[h][n - 1] = omega + margin
            if t < math.inf:
                stop.append((h, t))
        if stop:
            ts = [t for _, t in stop]
            for (h, _), cont, tail in zip(stop, ds[n - 1].prob_below(ts),
                                          inv_rate_tails(ds[n - 1], ts, bandwidth)):
                excess[h] = weight * tail + excess[h] * cont
                values[h][n - 1] = omega + excess[h]
    if not all(math.isfinite(v) for row in values for v in row):  # NaN would also give NaN thresholds
        raise NumericalError(f"the optimal recursion's values are not finite: {values!r}")
    return thresholds, values


def backward_induction(M: int, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """Optimal stopping rule for horizon M+1: `optimal_recursion` for M alone.
    M = 0 is the forced offload at stage 1."""
    if not 0 <= M <= net.N:
        raise ValueError(f"M must lie in [0, {net.N}]")
    ds = per_stage(dists, M + 1)
    transmission = transmission_cost(cost_model(net, params), M + 1, ds[M])
    thresholds, values = optimal_recursion([M], [transmission], net, params, ds)
    return ThresholdPolicy("optimal", M, thresholds[0], values[0])


def one_sla_thresholds(M: int, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """One-stage look-ahead thresholds for stages 1..M.

    Stage n stops iff stopping now costs no more than the expected cost of
    computing layer n locally and stopping at stage n+1: the margin
    local_gap(n) + weight(n+1) * E[1/R_{n+1}], which is the top stage of
    `optimal_recursion` at horizon n. So each threshold is independent of M.
    """
    if not 0 <= M <= net.N:
        raise ValueError(f"M must lie in [0, {net.N}]")
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz
    thresholds = []
    for n in range(1, M + 1):
        # local_gap(n) + transmission_cost(cm, n + 1, ds[n]), the same two floats
        margin = cm.local_gap(n) + cm.weight(n + 1) * inv_rate_table(ds[n], bandwidth).full
        thresholds.append(_indifference_threshold(cm.weight(n), bandwidth, margin))
    return ThresholdPolicy("one_sla", M, tuple(thresholds))


def forced_offload_policy(rule_kind: str, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """M = 0 policy: no layers on device, offload at stage 1 unconditionally."""
    return build_policy(rule_kind, 0, net, params, dists)


def build_policy(rule_kind: str, M: int, net: NetworkSpec, params: SystemParams,
                 dists) -> ThresholdPolicy:
    """Threshold policy of rule "optimal" or "one_sla" with M layers on the
    device; at M = 0 both are the forced offload at stage 1."""
    if rule_kind not in RULE_KINDS:
        raise ValueError(f"rule_kind must be one of {RULE_KINDS}")
    if rule_kind == "optimal":
        return backward_induction(M, net, params, dists)
    return one_sla_thresholds(M, net, params, dists)


def apply_rule(policy: ThresholdPolicy, snr_seq, net: NetworkSpec, params: SystemParams) -> SplitOutcome:
    """First stage whose SNR meets its threshold (ties stop), else M+1.

    Every SNR it reads, up to the stop, must be positive and finite; another
    raises ValueError naming its stage.
    """
    M = policy.horizon_M
    seq = list(snr_seq)
    if len(seq) < M + 1:
        raise ValueError(f"need {M + 1} SNR observations, got {len(seq)}")
    thresholds = policy.thresholds
    for stage, snr in enumerate(seq[:M + 1], 1):
        if not 0.0 < snr < math.inf:  # also rejects NaN
            raise ValueError(f"the SNR at stage {stage} must be positive and finite, got {snr!r}")
        if stage > M or snr >= thresholds[stage - 1]:
            break
    snr = float(snr)
    cm = cost_model(net, params)
    cost = cm.omega(stage) + cm.weight(stage) / uplink_rate(snr, params)
    return SplitOutcome(stage=stage, snr_at_stop=snr, realized_etc=cost)


@dataclass(frozen=True, eq=False)
class StageTable:
    """Stop statistics of a threshold policy at its threshold stages 1..M.

    continue_prob[n-1] is P{SNR_n < t_n}, exactly 1 where t_n = +inf. reach[k]
    is the probability of no stop at stages 1..k (k = 0..M), their sequential
    product, and stop_prob[n-1] = reach[n-1] * (1 - continue_prob[n-1]).
    stop_cost[n-1] is the expected cost given a stop at stage n, 0 where
    that never happens; a table built without a cost model has none. A tail
    read that fails raises its NumericalError before any table exists.
    """

    continue_prob: list[float]
    reach: list[float]
    stop_prob: list[float]
    stop_cost: list[float] | None = None

    def expected_etc(self, M: int, forced_cost: float) -> float:
        """Expected cost of the policy cut to stages 1..M with a forced stop,
        at forced_cost, at stage M+1: the correctly rounded sum of the stop
        probabilities times the stop costs."""
        return math.fsum(map(operator.mul, [*self.stop_prob[:M], self.reach[M]],
                             [*self.stop_cost[:M], forced_cost]))


def stage_table(policy: ThresholdPolicy, dists, cm: CostModel | None = None) -> StageTable:
    """Stop statistics of `policy`, with stop costs when a cost model is given.

    The continue probabilities take one `prob_below` call and the stop costs
    one tail read per distinct law over all of its finite thresholds.
    """
    M = policy.horizon_M
    ds = per_stage(dists, M + 1)
    stages_of = {}  # finite-threshold stages of each distinct law
    for n, t in enumerate(policy.thresholds):
        if t != math.inf:
            stages_of.setdefault(id(ds[n]), []).append(n)
    thresholds = policy.thresholds
    cont = [1.0] * M
    for stages in stages_of.values():
        for n, p in zip(stages, ds[stages[0]].prob_below([thresholds[n] for n in stages])):
            cont[n] = p
    reach = [1.0, *accumulate(cont, operator.mul)]
    stop_prob = [r * (1.0 - c) for r, c in zip(reach, cont)]
    if cm is None:
        return StageTable(cont, reach, stop_prob)

    costs = [0.0] * M
    for stages in stages_of.values():
        tails = inv_rate_tails(ds[stages[0]], [thresholds[n] for n in stages], cm.params.bandwidth_hz)
        for n, tail in zip(stages, tails):
            if cont[n] < 1.0:
                costs[n] = cm.omega(n + 1) + cm.weight(n + 1) * tail / (1.0 - cont[n])
    return StageTable(cont, reach, stop_prob, costs)


def transmission_cost(cm: CostModel, stage: int, dist: StageDistribution) -> float:
    """weight * E[1/R]: the forced stop at `stage` costs omega(stage) plus this."""
    return cm.weight(stage) * inv_rate_table(dist, cm.params.bandwidth_hz).full


def stop_probabilities(policy: ThresholdPolicy, dists) -> list[float]:
    """Probability of stopping at each stage 1..M+1."""
    table = stage_table(policy, dists)
    return [*table.stop_prob, table.reach[-1]]


def expected_etc(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists) -> float:
    """Expected inference cost of a threshold policy (stop-probability mix)."""
    M = policy.horizon_M
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    forced = cm.omega(M + 1) + transmission_cost(cm, M + 1, ds[M])
    return stage_table(policy, ds, cm).expected_etc(M, forced)


def one_sla_optimality_probability(M: int, net: NetworkSpec, params: SystemParams, dists) -> float:
    """Probability that the 1-sla decision coincides with the optimal one.

    Counts the event that once the 1-sla rule first calls for a stop it keeps
    calling for stops at every later stage, summed over the stage at which
    the first stop happens (including no stop before the forced one).
    """
    table = stage_table(one_sla_thresholds(M, net, params, dists), dists)
    # reach[n] = P{no stop before stage n+1}; suffix[n] = P{stages n+1..M all stop}
    suffix = [*accumulate((1.0 - c for c in reversed(table.continue_prob)), operator.mul)][::-1]
    return math.fsum(map(operator.mul, table.reach, [*suffix, 1.0]))
