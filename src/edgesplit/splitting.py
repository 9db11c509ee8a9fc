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

`Problem` owns the stopping problem: it turns a network, its constants and the
stage laws into the cost model, each law's E[1/R] tail table, the policies of
both rules at every horizon and their stage tables. The module-level builders
are one `Problem` each. Every read of a stage law at a threshold, P{SNR < t}
and the tail off the law's table, goes through `Problem.reads`, which reads
each (law, t) once per Problem. The model-update period K moves only psi(M),
so `Problem.with_updates` re-prices a Problem on all it holds.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import cached_property
from itertools import accumulate

from .channel import StageDistribution, TailTable, inv_rate_table, per_stage
from .cost_model import LN2, SystemParams, cost_model, uplink_rate
from .errors import NumericalError
from .model_graph import NetworkSpec
from .records import Record

RULE_KINDS = ("optimal", "one_sla")

# 2**x overflows float64 at x >= 1024; treat such thresholds as "never stop".
_EXP2_OVERFLOW = 1024.0


class ThresholdPolicy(Record):
    """Per-stage SNR thresholds plus the forced stop at stage horizon_M + 1.

    value_table (optimal rule only) holds the expected cost-to-go seen from
    each stage 1..M+1 before its SNR is observed; entry 0 is the expected
    cost of the whole policy.
    """

    __slots__ = ("rule_kind", "horizon_M", "thresholds", "value_table")

    def __init__(self, rule_kind: str, horizon_M: int, thresholds, value_table=None):
        if rule_kind not in RULE_KINDS:
            raise ValueError(f"rule_kind must be one of {RULE_KINDS}")
        if horizon_M < 0:
            raise ValueError("horizon_M must be nonnegative")
        thresholds = tuple(float(t) for t in thresholds)
        if len(thresholds) != horizon_M:
            raise ValueError("need exactly one threshold per stage 1..horizon_M")
        # written so that NaN fails; a +inf threshold means "never stop there"
        if not all(-math.inf < t for t in thresholds):
            raise ValueError(f"thresholds must be numbers or +inf, got {thresholds!r}")
        if value_table is not None:
            value_table = tuple(float(v) for v in value_table)
            if len(value_table) != horizon_M + 1:
                raise ValueError("value_table must cover stages 1..horizon_M+1")
            if not all(map(math.isfinite, value_table)):
                raise ValueError(f"value_table entries must be finite, got {value_table!r}")
        self._set(rule_kind, horizon_M, thresholds, value_table)

    def to_json_dict(self) -> dict:
        d = {
            "rule_kind": self.rule_kind,
            "horizon_M": self.horizon_M,
            "thresholds": list(self.thresholds),
        }
        if self.value_table is not None:
            d["value_table"] = list(self.value_table)
        return d


# Realized decision on one SNR sequence; a tuple, as one is built per online decision.
SplitOutcome = namedtuple("SplitOutcome", ("stage", "snr_at_stop", "realized_etc"))


def _indifference_threshold(weight: float, bandwidth_hz: float, margin: float) -> float:
    """SNR at which weight / R(snr) equals margin; inf when no SNR suffices."""
    if margin <= 0:
        return math.inf
    exponent = weight / (bandwidth_hz * margin)
    if exponent >= _EXP2_OVERFLOW:
        return math.inf
    return math.expm1(exponent * LN2)


def backward_induction(M: int, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """Optimal stopping rule for horizon M+1: the policy of the recursion of
    the Problem at horizon M. M = 0 is the forced offload at stage 1."""
    return Problem(net, params, dists, M).policy("optimal", M)


def one_sla_thresholds(M: int, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """One-stage look-ahead thresholds for stages 1..M (`Problem.one_sla`)."""
    return Problem(net, params, dists, M).policy("one_sla", M)


def forced_offload_policy(rule_kind: str, net: NetworkSpec, params: SystemParams, dists) -> ThresholdPolicy:
    """M = 0 policy: no layers on device, offload at stage 1 unconditionally."""
    return Problem(net, params, dists, 0).policy(rule_kind, 0)


def expected_etc(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists) -> float:
    """Expected inference cost of a threshold policy (stop-probability mix)."""
    problem = Problem(net, params, dists, policy.horizon_M)
    return problem.stage_table(policy).expected_etc(policy.horizon_M, problem.forced[-1])


def apply_rule(policy: ThresholdPolicy, snr_seq, net: NetworkSpec, params: SystemParams) -> SplitOutcome:
    """First stage whose SNR meets its threshold (ties stop), else M+1.

    Every SNR it reads, up to the stop, must be positive and finite; another
    raises ValueError naming its stage. A policy whose horizon exceeds the
    network's N is a ValueError.
    """
    M = policy.horizon_M
    if M > net.N:
        raise ValueError(f"policy horizon_M = {M} exceeds the network's N = {net.N}")
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


class StageTable(Record):
    """Stop statistics of a threshold policy at its threshold stages 1..M.

    continue_prob[n-1] is P{SNR_n < t_n}, exactly 1 where t_n = +inf. reach[k]
    is the probability of no stop at stages 1..k (k = 0..M), their sequential
    product, and stop_prob[n-1] = reach[n-1] * (1 - continue_prob[n-1]).
    stop_cost[n-1] is the expected cost given a stop at stage n, 0 where
    that never happens. A tail read that fails raises its NumericalError
    before any table exists.
    """

    __slots__ = ("continue_prob", "reach", "stop_prob", "stop_cost")

    def __init__(self, continue_prob: list, reach: list, stop_prob: list, stop_cost: list):
        self._set(continue_prob, reach, stop_prob, stop_cost)

    def expected_etc(self, M: int, forced_cost: float) -> float:
        """Expected cost of the policy cut to stages 1..M with a forced stop,
        at forced_cost, at stage M+1: the correctly rounded sum of the stop
        probabilities times the stop costs."""
        return math.fsum(map(operator.mul, [*self.stop_prob[:M], self.reach[M]],
                             [*self.stop_cost[:M], forced_cost]))


class Problem:
    """One stopping problem: a network, its constants and the laws of stages
    1..M+1, for every horizon 0..M (M = N when not given). The laws are one
    law shared by every stage or a sequence of at most N + 1 laws, one per
    stage, which `per_stage` merges: from then on laws are told apart by identity.

    It is the one place where (net, params, dists) become the stage laws, one
    object per distinct law, the cost model and the policies of both rules.
    Built per command, `place` request or distance-sweep point, it builds on
    first use, and keeps on the instance only, O(M) numbers but for its tail
    tables and reads: the transmission costs, V_M(1) of every horizon 0..M
    with the optimal policy at M, and the 1-sla policy with its stage table.
    `with_updates` hands them to the Problem at another K; nothing they keep
    outlives the command.
    """

    def __init__(self, net: NetworkSpec, params: SystemParams, dists, M: int | None = None):
        M = net.N if M is None else M
        if not 0 <= M <= net.N:
            raise ValueError(f"M must lie in [0, {net.N}]")
        self.net, self.params, self.M = net, params, M
        self.dists = per_stage(dists, M + 1, net.N + 1)  # equal laws share one object, and its reads
        self.cm = cost_model(net, params)
        self._reads = {}  # id(law) -> {t: (P{SNR < t}, E[1/R; SNR >= t])}

    def reads(self, law: StageDistribution, thresholds) -> list[tuple[float, float]]:
        """(P{SNR < t}, E[1/R; SNR >= t]) of `law`, one of `self.dists`, at each t.

        The thresholds this Problem has not read yet take one `prob_below` call
        and one tail read, and are kept. The same (law, t) recurs across
        horizons and rules: on an equal-width network every stage with the same
        remaining horizon has the same threshold bit for bit, and the 1-sla
        thresholds are the recursion's top stages. Both reads work element by
        element, so a kept value is the one a fresh read would give.
        """
        known = self._reads.setdefault(id(law), {})
        new = [t for t in dict.fromkeys(thresholds) if t not in known]
        if new:
            known.update(zip(new, zip(law.prob_below(new), self.tables[id(law)].tails(new))))
        return [known[t] for t in thresholds]

    def with_updates(self, updates_per_model: float) -> Problem:
        """This Problem at another K, which moves only psi(M), the amortized
        download: the new Problem takes over this one's tables, reads and K-free results."""
        other = Problem(self.net, self.params.with_updates(updates_per_model), self.dists, self.M)
        kept = ("tables", "_reads", "transmission", "optimal", "one_sla", "one_sla_table")  # none reads K
        vars(other).update((name, v) for name, v in vars(self).items() if name in kept)
        return other

    @cached_property
    def tables(self) -> dict[int, TailTable]:
        """The E[1/R] tail table of each distinct law of `self.dists`, by id."""
        bandwidth = self.params.bandwidth_hz
        return {key: inv_rate_table(d, bandwidth) for key, d in {id(d): d for d in self.dists}.items()}

    @cached_property
    def transmission(self) -> list[float]:
        """weight * E[1/R] of the forced stop at stage M+1, for M = 0..self.M."""
        return [self.cm.weight(M + 1) * self.tables[id(d)].full for M, d in enumerate(self.dists)]

    @property
    def forced(self) -> list[float]:
        """Expected cost of the forced stop at stage M+1, for M = 0..self.M."""
        return [self.cm.omega(M + 1) + t for M, t in enumerate(self.transmission)]

    def recursion(self, top: int, low: int = 0) -> tuple[list[float], ThresholdPolicy]:
        """Backward induction for every horizon M = low..top in lockstep: V_M(1)
        for each such M, and the optimal policy at horizon top.

        One pass from stage top down to stage 1 carries the value of every
        horizon M >= max(n, low) as its excess over omega(n). Horizon M joins at its
        forced stop, stage M+1, with excess `transmission[M]`, weight * E[1/R] there.
        Going on from stage n costs margin = excess + local_gap(n) over omega(n);
        the threshold is the indifference SNR of that margin (+inf: stopping never
        wins), the new excess weight * tail + margin * P{no stop}, from one
        `reads` over all finite thresholds. The policy takes each stage's
        threshold and value at horizon top: O(top (top - low + 1)) time, O(top)
        memory. No horizon reads another's values, so low moves none of them.
        """
        ds, cm, bandwidth = self.dists, self.cm, self.params.bandwidth_hz
        excess = self.transmission[:top + 1]
        thresholds, values = [math.inf] * top, [0.0] * top + [cm.omega(top + 1) + excess[top]]
        for n in range(top, 0, -1):
            omega, weight, gap = cm.omega(n), cm.weight(n), cm.local_gap(n)
            stop = []
            for h in range(max(n, low), top + 1):
                excess[h] = margin = excess[h] + gap
                t = _indifference_threshold(weight, bandwidth, margin)
                if t < math.inf:
                    stop.append((h, t))
            if stop:
                for (h, _), (cont, tail) in zip(stop, self.reads(ds[n - 1], [t for _, t in stop])):
                    excess[h] = weight * tail + excess[h] * cont
            thresholds[n - 1], values[n - 1] = t, omega + excess[top]
        costs = [cm.omega(1) + e for e in excess[low:]]  # a non-finite value stays so down to stage 1
        if not all(map(math.isfinite, costs + values)):  # NaN would also give NaN thresholds
            raise NumericalError(f"the optimal recursion's values are not finite: {costs!r}, {values!r}")
        return costs, ThresholdPolicy("optimal", top, thresholds, values)

    @cached_property
    def optimal(self) -> tuple[list[float], ThresholdPolicy]:
        """V_M(1) for M = 0..self.M and the optimal policy at self.M."""
        return self.recursion(self.M)

    @cached_property
    def one_sla(self) -> ThresholdPolicy:
        """The 1-sla policy at horizon self.M.

        Stage n stops iff stopping now costs no more than the expected cost of
        computing layer n locally and stopping at stage n+1: the margin
        local_gap(n) + transmission[n], which is the top stage of the
        recursion at horizon n. So no threshold depends on M, and the policy
        at M is the first M of them.
        """
        cm, bandwidth = self.cm, self.params.bandwidth_hz
        return ThresholdPolicy("one_sla", self.M, [
            _indifference_threshold(cm.weight(n), bandwidth, cm.local_gap(n) + self.transmission[n])
            for n in range(1, self.M + 1)])

    @cached_property
    def one_sla_table(self) -> StageTable:
        """The stage table of `one_sla`: every horizon's 1-sla statistics are
        a prefix of it."""
        return self.stage_table(self.one_sla)

    def policy(self, rule_kind: str, M: int) -> ThresholdPolicy:
        """Threshold policy of rule "optimal" or "one_sla" with M layers on the
        device; at M = 0 both are the forced offload at stage 1.

        The optimal policy at M = self.M is the one `optimal` keeps. Below that
        it is the single-horizon pass `recursion(M, M)`, on reads that all hit,
        once `optimal` has run, and one `backward_induction(M)` before it: the
        same numbers bit for bit.
        """
        if rule_kind not in RULE_KINDS:
            raise ValueError(f"rule_kind must be one of {RULE_KINDS}")
        if not 0 <= M <= self.M:
            raise ValueError(f"M must lie in [0, {self.M}]")
        if rule_kind == "one_sla":
            return ThresholdPolicy("one_sla", M, self.one_sla.thresholds[:M])
        if M < self.M and "optimal" not in vars(self):  # where cached_property keeps it
            # perfbench/test_perfbench.py counts this call; ROADMAP item 1a removes it
            return backward_induction(M, self.net, self.params, self.dists)
        return (self.optimal if M == self.M else self.recursion(M, M))[1]

    def stage_table(self, policy: ThresholdPolicy) -> StageTable:
        """Stop statistics and stop costs of a policy at a horizon up to self.M.

        The continue probabilities and the stop costs take one `reads` per
        distinct law over all of its finite thresholds.
        """
        M = policy.horizon_M
        if M > self.M:
            raise ValueError(f"a policy at horizon {M} needs a Problem at horizon {M} or more")
        ds, cm, thresholds = self.dists, self.cm, policy.thresholds
        stages_of = {}  # finite-threshold stages of each distinct law
        for n, t in enumerate(thresholds):
            if t != math.inf:
                stages_of.setdefault(id(ds[n]), []).append(n)
        cont, costs = [1.0] * M, [0.0] * M
        for stages in stages_of.values():
            for n, (c, tail) in zip(stages, self.reads(ds[stages[0]], [thresholds[n] for n in stages])):
                cont[n] = c
                if c < 1.0:
                    costs[n] = cm.omega(n + 1) + cm.weight(n + 1) * tail / (1.0 - c)
        reach = [1.0, *accumulate(cont, operator.mul)]
        stop_prob = [r * (1.0 - c) for r, c in zip(reach, cont)]
        return StageTable(cont, reach, stop_prob, costs)

    def optimality_probability(self, M: int) -> float:
        """Probability of the monotone-case event at horizon M, read off the
        first M stages of `one_sla_table`: once the 1-sla rule first calls for a
        stop, it calls for a stop at every later stage up to M, summed over the
        stage of the first call (no call before the forced stop included). Where
        it is 1 the 1-sla rule is optimal. The two rules stopping at the same
        stage is another event: `coincidence_probability`.
        """
        if not 0 <= M <= self.M:
            raise ValueError(f"M must lie in [0, {self.M}]")
        table = self.one_sla_table
        # reach[n] = P{no stop before stage n+1}; suffix[n] = P{stages n+1..M all stop}
        suffix = [*accumulate((1.0 - c for c in reversed(table.continue_prob[:M])), operator.mul)][::-1]
        return math.fsum(map(operator.mul, table.reach[:M + 1], [*suffix, 1.0]))

    def coincidence_probability(self, M: int) -> float:
        """Probability that the 1-sla and optimal rules at horizon M stop at the
        same stage, read off the continue probabilities of both stage tables.

        With a_n and b_n the two thresholds, the rules agree at stage n <= M when
        neither stopped before, SNR_j < min(a_j, b_j) for j < n, and both stop at
        n, SNR_n >= max(a_n, b_n); they agree at the forced stage M+1 when neither
        ever stops. P{SNR < t} rises with t, so its value at min(a, b) is the
        smaller of the two rules' reads, and at max(a, b) the larger.
        """
        if not 0 <= M <= self.M:
            raise ValueError(f"M must lie in [0, {self.M}]")
        optimal = self.stage_table(self.policy("optimal", M)).continue_prob
        one_sla = self.one_sla_table.continue_prob[:M]
        reach = [1.0, *accumulate(map(min, optimal, one_sla), operator.mul)]
        return math.fsum([*(r * (1.0 - max(a, b)) for r, a, b in zip(reach, optimal, one_sla)),
                          reach[M]])
