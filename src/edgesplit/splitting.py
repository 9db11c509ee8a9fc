"""Stopping rules for the online split-point decision.

With M layers on the device the split stage is chosen among 1..M+1 while the
per-stage SNRs are revealed one at a time. Both rules implemented here are
threshold rules: stop at the first stage n <= M whose observed SNR reaches
the stage threshold, otherwise stop at M+1.

* The optimal rule computes thresholds by backward induction on the expected
  cost-to-go: the stage-n threshold is the SNR at which stopping now and the
  expected cost of continuing are indifferent.
* The one-stage look-ahead (1-sla) rule compares stopping now against
  continuing exactly one stage and then stopping; its thresholds are closed
  form and do not depend on M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import inv_rate_expectation, per_stage
from .cost_model import SystemParams, cost_model
from .model_graph import NetworkSpec

RULE_KINDS = ("optimal", "one_sla", "custom")

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
        if self.value_table is not None:
            object.__setattr__(self, "value_table", tuple(float(v) for v in self.value_table))
            if len(self.value_table) != self.horizon_M + 1:
                raise ValueError("value_table must cover stages 1..horizon_M+1")

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
    return 2.0**exponent - 1.0


def backward_induction(M: int, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """Optimal stopping rule for horizon M+1 via backward induction.

    Starting from the forced stop at stage M+1, each earlier stage's expected
    cost-to-go is E[min(stop-now cost, cost-to-go of continuing)] and the
    stage threshold is the indifference SNR between the two. A threshold of
    +inf marks stages where stopping can never beat continuing.
    """
    if not 1 <= M <= net.N:
        raise ValueError(f"M must lie in [1, {net.N}]")
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz

    ev = cm.omega(M + 1) + cm.weight(M + 1) * inv_rate_expectation(ds[M], 0.0, math.inf, bandwidth)
    values = [ev]
    thresholds = []
    for n in range(M, 0, -1):
        t = _indifference_threshold(cm.weight(n), bandwidth, ev - cm.omega(n))
        if math.isinf(t):
            ev_n = ev  # stage n never stops
        else:
            dist = ds[n - 1]
            continue_prob = dist.cdf(t)
            ev_n = (
                cm.omega(n) * (1.0 - continue_prob)
                + cm.weight(n) * inv_rate_expectation(dist, t, math.inf, bandwidth)
                + ev * continue_prob
            )
        thresholds.append(t)
        values.append(ev_n)
        ev = ev_n
    thresholds.reverse()
    values.reverse()
    return ThresholdPolicy("optimal", M, tuple(thresholds), tuple(values))


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
            cm.weight(n + 1) * inv_rate_expectation(ds[n], 0.0, math.inf, bandwidth)
            + params.beta_t * cycles * inv_f_gap
            + params.beta_e * params.kappa * cycles * params.local_freq_hz**2
        )
        thresholds.append(_indifference_threshold(cm.weight(n), bandwidth, margin))
    return ThresholdPolicy("one_sla", M, tuple(thresholds))


def forced_offload_policy(rule_kind: str, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """M = 0 policy: no layers on device, offload at stage 1 unconditionally."""
    ds = per_stage(dists, 1)
    cm = cost_model(net, params)
    einv = inv_rate_expectation(ds[0], 0.0, math.inf, params.bandwidth_hz)
    value = cm.omega(1) + cm.weight(1) * einv
    table = (value,) if rule_kind == "optimal" else None
    return ThresholdPolicy(rule_kind, 0, (), table)


def build_policy(rule_kind: str, M: int, net: NetworkSpec, params: SystemParams,
                 dists) -> ThresholdPolicy:
    """Threshold policy of rule "optimal" or "one_sla" with M layers on the device.

    M = 0 is the forced offload at stage 1; otherwise the optimal rule comes
    from backward induction and the 1-sla rule from its closed form.
    """
    if rule_kind not in ("optimal", "one_sla"):
        raise ValueError("rule_kind must be 'optimal' or 'one_sla'")
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


def stop_probabilities(policy: ThresholdPolicy, dists) -> np.ndarray:
    """Probability of stopping at each stage 1..M+1."""
    M = policy.horizon_M
    if M == 0:
        return np.array([1.0])
    ds = per_stage(dists, M + 1)
    probs = np.empty(M + 1)
    reach = 1.0
    for n in range(1, M + 1):
        cont = float(ds[n - 1].cdf(policy.thresholds[n - 1])) if not math.isinf(policy.thresholds[n - 1]) else 1.0
        probs[n - 1] = reach * (1.0 - cont)
        reach *= cont
    probs[M] = reach
    return probs


def stop_conditional_etc(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists) -> np.ndarray:
    """Expected cost given a stop at each stage 1..M+1.

    At stages n <= M the SNR is conditioned on clearing the threshold; the
    final stage is unconditional. Stages that are never reached with positive
    probability report 0 (they carry zero weight in the total).
    """
    M = policy.horizon_M
    cm = cost_model(net, params)
    bandwidth = params.bandwidth_hz
    ds = per_stage(dists, M + 1)
    out = np.empty(M + 1)
    for n in range(1, M + 1):
        t = policy.thresholds[n - 1]
        dist = ds[n - 1]
        survive = 1.0 - float(dist.cdf(t)) if not math.isinf(t) else 0.0
        if survive <= 0.0:
            out[n - 1] = 0.0
        else:
            tail = inv_rate_expectation(dist, t, math.inf, bandwidth)
            out[n - 1] = cm.omega(n) + cm.weight(n) * tail / survive
    einv = inv_rate_expectation(ds[M], 0.0, math.inf, bandwidth)
    out[M] = cm.omega(M + 1) + cm.weight(M + 1) * einv
    return out


def expected_etc(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists) -> float:
    """Expected inference cost of a threshold policy (stop-probability mix)."""
    probs = stop_probabilities(policy, dists)
    conds = stop_conditional_etc(policy, net, params, dists)
    return float(np.dot(probs, conds))


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
    policy = one_sla_thresholds(M, net, params, dists)
    ds = per_stage(dists, M + 1)
    cont = np.array([float(ds[n].cdf(policy.thresholds[n])) for n in range(M)])
    # prefix[n] = P{no stop before stage n+1}; suffix[n] = P{stages n+1..M all stop}
    prefix = np.concatenate(([1.0], np.cumprod(cont)))
    suffix = np.concatenate((np.cumprod((1.0 - cont)[::-1])[::-1], [1.0]))
    return float(np.dot(prefix, suffix))
