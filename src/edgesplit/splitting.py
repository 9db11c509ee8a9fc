"""Stopping rules for the online split-point decision.

With M layers on the device the split stage is chosen among 1..M+1 while the
per-stage SNRs are revealed one at a time. Both rules implemented here are
threshold rules: stop at the first stage n <= M whose observed SNR reaches
the stage threshold, otherwise stop at M+1.

* The optimal rule computes thresholds by backward induction on the expected
  cost-to-go: the stage-n threshold is the SNR at which stopping now and the
  expected cost of continuing are indifferent. One lockstep recursion serves
  every horizon M at once with one tail read per stage.
* The one-stage look-ahead (1-sla) rule compares stopping now against
  continuing exactly one stage and then stopping; its thresholds are closed
  form and do not depend on M.

Every E[1/R] tail is read off the law's table (`channel.inv_rate_tails`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import StageDistribution, inv_rate_table, inv_rate_tails, per_stage
from .cost_model import LN2, CostModel, SystemParams, cost_model
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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ThresholdPolicy":
        vt = obj.get("value_table")
        return cls(
            rule_kind=obj["rule_kind"],
            horizon_M=int(obj["horizon_M"]),
            thresholds=tuple(_parse_float(t) for t in obj["thresholds"]),
            value_table=tuple(vt) if vt is not None else None,
        )


def _json_float(x: float):
    return "inf" if math.isinf(x) else x


def _parse_float(x) -> float:
    return math.inf if x == "inf" else float(x)


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


def optimal_recursion(horizons, net: NetworkSpec, params: SystemParams,
                      dists) -> tuple[np.ndarray, np.ndarray]:
    """Backward induction for the distinct ascending `horizons` in lockstep.

    One pass from the top stage down to stage 1 carries the value of every
    horizon M >= n; horizon M joins at its forced stop, stage M+1. Stage n's
    value is E[min(stop-now cost, continuation value)] and its threshold the
    indifference SNR of the two (+inf: stopping never wins), from one
    `prob_below` call and one tail read over all finite thresholds. Row h
    belongs to M = horizons[h]: thresholds[h, :M] and values[h, :M+1].
    """
    Ms = list(horizons)
    top = Ms[-1]
    ds = per_stage(dists, top + 1)
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz
    thresholds = np.full((len(Ms), top), math.inf)
    values = np.zeros((len(Ms), top + 1))
    live = len(Ms)  # rows live[:] are the horizons M >= n
    for n in range(top, -1, -1):
        if live and Ms[live - 1] == n:
            live -= 1
            values[live, n] = forced_stop_cost(cm, n + 1, ds[n])
        if n == 0:
            break
        omega, weight = cm.omega(n), cm.weight(n)
        ev = values[live:, n].tolist()
        thresholds[live:, n - 1] = [_indifference_threshold(weight, bandwidth, e - omega) for e in ev]
        values[live:, n - 1] = ev
        stop = [h for h in range(live, len(Ms)) if thresholds[h, n - 1] < math.inf]
        if stop:
            ts = thresholds[stop, n - 1]
            cont = ds[n - 1].prob_below(ts)
            values[stop, n - 1] = (omega * (1.0 - cont) + weight * inv_rate_tails(ds[n - 1], ts, bandwidth)
                                   + values[stop, n] * cont)
    return thresholds, values


def backward_induction(M: int, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """Optimal stopping rule for horizon M+1: `optimal_recursion` for M alone."""
    if not 1 <= M <= net.N:
        raise ValueError(f"M must lie in [1, {net.N}]")
    thresholds, values = optimal_recursion([M], net, params, dists)
    return ThresholdPolicy("optimal", M, thresholds[0], values[0])


def one_sla_thresholds(M: int, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """One-stage look-ahead thresholds for stages 1..M.

    Stage n stops iff stopping now costs no more than the expected cost of
    computing layer n locally and stopping at stage n+1. Each threshold
    depends only on layer n's workload, the two payloads I_n and I_{n+1},
    and the next stage's E[1/R]; in particular it is independent of M.
    """
    if not 1 <= M <= net.N:
        raise ValueError(f"M must lie in [1, {net.N}]")
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz
    inv_f_gap = 1.0 / params.local_freq_hz - 1.0 / params.edge_freq_hz

    thresholds = []
    for n in range(1, M + 1):
        cycles = net.layers[n - 1].workload_cycles
        margin = (
            cm.weight(n + 1) * inv_rate_table(ds[n], bandwidth).full
            + params.beta_t * cycles * inv_f_gap
            + params.beta_e * params.kappa * cycles * params.local_freq_hz**2
        )
        thresholds.append(_indifference_threshold(cm.weight(n), bandwidth, margin))
    return ThresholdPolicy("one_sla", M, tuple(thresholds))


def forced_offload_policy(rule_kind: str, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """M = 0 policy: no layers on device, offload at stage 1 unconditionally."""
    value = forced_stop_cost(cost_model(net, params), 1, per_stage(dists, 1)[0])
    table = (value,) if rule_kind == "optimal" else None
    return ThresholdPolicy(rule_kind, 0, (), table)


def build_policy(rule_kind: str, M: int, net: NetworkSpec, params: SystemParams,
                 dists) -> ThresholdPolicy:
    """Threshold policy of rule "optimal" or "one_sla" with M layers on the device.

    M = 0 is the forced offload at stage 1; otherwise the optimal rule comes
    from backward induction and the 1-sla rule from its closed form.
    """
    if rule_kind not in RULE_KINDS:
        raise ValueError(f"rule_kind must be one of {RULE_KINDS}")
    if M == 0:
        return forced_offload_policy(rule_kind, net, params, dists)
    if rule_kind == "optimal":
        return backward_induction(M, net, params, dists)
    return one_sla_thresholds(M, net, params, dists)


def apply_rule(policy: ThresholdPolicy, snr_seq, net: NetworkSpec, params: SystemParams) -> SplitOutcome:
    """First stage whose SNR meets its threshold (ties stop), else M+1."""
    M = policy.horizon_M
    seq = list(snr_seq)
    if len(seq) < M + 1:
        raise ValueError(f"need {M + 1} SNR observations, got {len(seq)}")
    stage = M + 1
    for n in range(1, M + 1):
        if seq[n - 1] >= policy.thresholds[n - 1]:
            stage = n
            break
    snr = float(seq[stage - 1])
    cm = cost_model(net, params)
    return SplitOutcome(stage=stage, snr_at_stop=snr, realized_etc=cm.etc(stage, snr).etc)


@dataclass(frozen=True, eq=False)
class StageTable:
    """Stop statistics of a threshold policy at its threshold stages 1..M.

    continue_prob[n-1] is P{SNR_n < t_n}, exactly 1 where t_n = +inf. reach[k]
    is the probability of no stop at stages 1..k (k = 0..M), their sequential
    product, and stop_prob[n-1] = reach[n-1] * (1 - continue_prob[n-1]).
    stop_cost[n-1] is the expected cost given a stop at stage n, 0 where
    that never happens. When the tail read of a law fails, stop_cost ends
    before the first stage of that law and error holds its NumericalError. A
    table built without a cost model has no stop costs.
    """

    continue_prob: np.ndarray
    reach: np.ndarray
    stop_prob: np.ndarray
    stop_cost: np.ndarray | None = None
    error: NumericalError | None = None

    def expected_etc(self, M: int, forced_cost: float) -> float:
        """Expected cost of the policy cut to stages 1..M with a forced stop,
        at forced_cost, at stage M+1; raises the first failure among 1..M."""
        if M > len(self.stop_cost):
            raise self.error
        probs = np.append(self.stop_prob[:M], self.reach[M])
        return float(np.dot(probs, np.append(self.stop_cost[:M], forced_cost)))


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
    thresholds = np.array(policy.thresholds)
    cont = np.ones(M)
    for stages in stages_of.values():
        cont[stages] = ds[stages[0]].prob_below(thresholds[stages])
    reach = np.concatenate(([1.0], np.cumprod(cont)))
    stop_prob = reach[:-1] * (1.0 - cont)
    if cm is None:
        return StageTable(cont, reach, stop_prob)

    tails, failed, error = np.zeros(M), M, None
    for stages in stages_of.values():  # the laws in the order of their first stage
        try:
            tails[stages] = inv_rate_tails(ds[stages[0]], thresholds[stages], cm.params.bandwidth_hz)
        except NumericalError as exc:
            failed, error = stages[0], exc
            break
    omega, weight = (np.array([f(n) for n in range(1, M + 1)]) for f in (cm.omega, cm.weight))
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = np.where(cont < 1.0, omega + weight * tails / (1.0 - cont), 0.0)
    return StageTable(cont, reach, stop_prob, costs[:failed], error)


def forced_stop_cost(cm: CostModel, stage: int, dist: StageDistribution) -> float:
    """Expected cost of stopping at `stage` whatever its SNR."""
    return cm.omega(stage) + cm.weight(stage) * inv_rate_table(dist, cm.params.bandwidth_hz).full


def stop_probabilities(policy: ThresholdPolicy, dists) -> np.ndarray:
    """Probability of stopping at each stage 1..M+1."""
    table = stage_table(policy, dists)
    return np.append(table.stop_prob, table.reach[-1])


def _costed_table(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists):
    """The policy's stage table and the cost of its forced stop at M+1.

    A failed stage tail raises before the final stage is evaluated.
    """
    ds = per_stage(dists, policy.horizon_M + 1)
    cm = cost_model(net, params)
    table = stage_table(policy, ds, cm)
    if table.error is not None:
        raise table.error
    return table, forced_stop_cost(cm, policy.horizon_M + 1, ds[-1])


def stop_conditional_etc(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists) -> np.ndarray:
    """Expected cost given a stop at each stage 1..M+1.

    At stages n <= M the SNR is conditioned on clearing the threshold; the
    final stage is unconditional. Stages that are never reached with positive
    probability report 0 (they carry zero weight in the total).
    """
    table, final = _costed_table(policy, net, params, dists)
    return np.append(table.stop_cost, final)


def expected_etc(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists) -> float:
    """Expected inference cost of a threshold policy (stop-probability mix)."""
    table, final = _costed_table(policy, net, params, dists)
    return table.expected_etc(policy.horizon_M, final)


def one_sla_optimality_probability(M: int, net: NetworkSpec, params: SystemParams, dists) -> float:
    """Probability that the 1-sla decision coincides with the optimal one.

    Counts the event that once the 1-sla rule first calls for a stop it keeps
    calling for stops at every later stage, summed over the stage at which
    the first stop happens (including no stop before the forced one).
    """
    if M < 0:
        raise ValueError("M must be nonnegative")
    if M == 0:
        return 1.0
    table = stage_table(one_sla_thresholds(M, net, params, dists), dists)
    # reach[n] = P{no stop before stage n+1}; suffix[n] = P{stages n+1..M all stop}
    suffix = np.concatenate((np.cumprod((1.0 - table.continue_prob)[::-1])[::-1], [1.0]))
    return float(np.dot(table.reach, suffix))
