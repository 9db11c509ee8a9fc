"""Monte Carlo policy evaluation and an exact discrete oracle.

The simulator draws uniforms from one PCG64 stream in trial-major order, in
blocks of at most _CHUNK_TRIALS trials whose size no result depends on, and
applies a threshold policy one stage
at a time: a stage's inverse CDF runs only on the uniforms of the trials that
have not stopped yet.

The oracle solves the stopping problem exactly on discrete (atom) channel
laws by direct recursion on the value function. It shares the cost
primitives but none of the threshold logic, so agreement with the
backward-induction path is a genuine cross-check rather than a tautology.
"""
from __future__ import annotations

import hashlib
import json
import math

from .channel import per_stage
from .cost_model import SystemParams, cost_model
from .model_graph import NetworkSpec
from .records import Record
from .splitting import ThresholdPolicy, backward_induction, network_laws, one_sla_thresholds

RNG_ALGORITHM = "numpy-pcg64"
# the most trials drawn and evaluated in one block of uniforms
_CHUNK_TRIALS = 1 << 17


class SimResult(Record):
    """Mean cost of a policy over `trials` seeded draws, and its stop-stage frequencies."""

    __slots__ = ("trials", "mean_etc", "std_error", "stop_histogram", "seed")

    def __init__(self, trials: int, mean_etc: float, std_error: float, stop_histogram: tuple, seed: int):
        self._set(trials, mean_etc, std_error, stop_histogram, seed)


class OracleResult(Record):
    """The exact optimal thresholds and value on discrete laws of `grid_points` atoms."""

    __slots__ = ("grid_points", "thresholds", "expected_cost")

    def __init__(self, grid_points: int, thresholds: tuple, expected_cost: float):
        self._set(grid_points, thresholds, expected_cost)


def _uniform_blocks(trials: int, stages: int, seed: int):
    """(rows, stages) blocks of uniforms, at most _CHUNK_TRIALS rows each.

    They come from one PCG64 stream in trial-major order, so the draws do not
    depend on the block size. Fewer than one trial is a ValueError.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    return (rng.random((min(_CHUNK_TRIALS, trials - start), stages))
            for start in range(0, trials, _CHUNK_TRIALS))


def _first_crossings(u, ds, thresholds):
    """1-based stop stage of each row of a uniform block, and the SNR it stops on.

    A row stops at its first SNR at or above the stage's threshold, else at the
    forced stage M + 1, M = len(thresholds). Every row reaches stage 1, which
    reads its column whole; stage j > 1 runs its quantile only on the uniforms
    of the rows still live at j.
    """
    import numpy as np

    M = len(thresholds)
    gammas = ds[0].quantile(u[:, 0])
    if not M:
        return np.full(len(u), 1), gammas
    hit = gammas >= thresholds[0]
    stages = np.where(hit, 1, M + 1)
    live = np.flatnonzero(~hit)
    for j in range(1, M):
        snrs = ds[j].quantile(u[live, j])
        hit = snrs >= thresholds[j]
        stop = np.flatnonzero(hit)
        rows = live[stop]
        stages[rows] = j + 1
        gammas[rows] = snrs[stop]
        live = live[~hit]
    gammas[live] = ds[M].quantile(u[live, M])
    return stages, gammas


def _agreements(u, ds, t_a, t_b) -> int:
    """Rows of a uniform block on which two threshold rules stop at the same stage.

    A row leaves the pass at the first stage where either rule stops: the rules
    agree there if both stop, else the other one stops later. Rows that neither
    rule stops agree on the forced stage, which needs no draw. Stage 1 reads
    its column whole; later stages only the live rows.
    """
    import numpy as np

    agree = 0
    live = None  # every row, before stage 1
    for j, (a, b) in enumerate(zip(t_a, t_b)):
        snrs = ds[j].quantile(u[:, j] if live is None else u[live, j])
        hit_a, hit_b = snrs >= a, snrs >= b
        agree += int(np.count_nonzero(hit_a & hit_b))
        go_on = ~(hit_a | hit_b)
        live = np.flatnonzero(go_on) if live is None else live[go_on]
    return agree + (len(u) if live is None else len(live))


def simulate(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists,
             trials: int, seed: int) -> SimResult:
    """Average realized cost of a policy over independent SNR draws.

    The policy's horizon may not exceed the network's N, and `dists` is one
    shared law or at most N + 1 laws (`splitting.network_laws`)."""
    import numpy as np

    M = policy.horizon_M
    if M > net.N:
        raise ValueError(f"policy horizon_M = {M} exceeds the network's N = {net.N}")
    blocks = _uniform_blocks(trials, M + 1, seed)
    ds = per_stage(network_laws(net, dists), M + 1)
    cm = cost_model(net, params)

    total = 0.0
    total_sq = 0.0
    counts = np.zeros(M + 2, dtype=np.int64)  # 1-based stages
    for u in blocks:
        stages, gammas = _first_crossings(u, ds, policy.thresholds)
        etcs = cm.etc_values(stages, gammas)
        total += float(etcs.sum())
        total_sq += float(np.dot(etcs, etcs))
        counts += np.bincount(stages, minlength=M + 2)

    mean = total / trials
    if trials > 1:
        var = max(total_sq - trials * mean * mean, 0.0) / (trials - 1)
        std_error = math.sqrt(var / trials)
    else:
        std_error = 0.0
    hist = tuple(counts[1:] / trials)
    return SimResult(trials=trials, mean_etc=mean, std_error=std_error,
                     stop_histogram=hist, seed=seed)


def coincidence_rate(M: int, net: NetworkSpec, params: SystemParams, dists,
                     trials: int, seed: int) -> float:
    """Fraction of SNR sequences on which the 1-sla and optimal rules pick the
    same split stage. `dists` is one shared law or at most N + 1 laws."""
    blocks = _uniform_blocks(trials, M + 1, seed)
    ds = per_stage(network_laws(net, dists), M + 1)
    t_opt = backward_induction(M, net, params, ds).thresholds
    t_sla = one_sla_thresholds(M, net, params, ds).thresholds
    agree = sum(_agreements(u, ds, t_opt, t_sla) for u in blocks)
    return agree / trials


def oracle_dp(M: int, net: NetworkSpec, params: SystemParams, discrete_dists) -> OracleResult:
    """Exact stopping value on discrete SNR laws, by direct value recursion.

    V at the final stage is the stop cost; earlier stages take the pointwise
    min of stopping and the expected value of continuing. Pure finite sums.
    The recovered per-stage threshold is the smallest atom at which stopping
    wins (inf if none does). The laws are one shared law or at most N + 1.
    """
    import numpy as np

    if not 0 <= M <= net.N:
        raise ValueError(f"M must lie in [0, {net.N}]")
    ds = per_stage(network_laws(net, discrete_dists), M + 1)
    if any(d.kind != "discrete" for d in ds):
        raise ValueError("the oracle needs discrete stage distributions")
    cm = cost_model(net, params)

    def stage_arrays(n, dist):
        snrs, probs = dist.atom_arrays
        stop_cost = cm.etc_values(np.full(snrs.shape, n), snrs)
        return snrs, probs, stop_cost

    snrs, probs, stop_cost = stage_arrays(M + 1, ds[M])
    continue_value = float(np.dot(probs, stop_cost))
    thresholds = []
    for n in range(M, 0, -1):
        snrs, probs, stop_cost = stage_arrays(n, ds[n - 1])
        stop_wins = stop_cost <= continue_value
        switch = float(snrs[stop_wins][0]) if stop_wins.any() else math.inf
        thresholds.append(switch)
        value = np.minimum(stop_cost, continue_value)
        continue_value = float(np.dot(probs, value))
    thresholds.reverse()
    grid = max(len(d.snrs) for d in ds)
    return OracleResult(grid_points=grid, thresholds=tuple(thresholds),
                        expected_cost=continue_value)


def network_hash(net: NetworkSpec) -> str:
    blob = json.dumps(net.to_json_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def sim_report_json(result: SimResult, policy: ThresholdPolicy, net: NetworkSpec,
                    params: SystemParams, dists) -> dict:
    """Audit record: result plus everything needed to reproduce it."""
    ds = per_stage(dists, policy.horizon_M + 1)
    return {
        "trials": result.trials,
        "mean_etc": result.mean_etc,
        "std_error": result.std_error,
        "stop_histogram": list(result.stop_histogram),
        "seed": result.seed,
        "rng_algorithm": RNG_ALGORITHM,
        "policy": policy.to_json_dict(),
        "network_sha256": network_hash(net),
        "params": params.to_json_dict(),
        "stage_distributions": [d.to_json_dict() for d in ds],
    }
