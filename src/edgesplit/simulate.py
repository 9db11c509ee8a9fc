"""Monte Carlo policy evaluation and an exact discrete oracle.

The simulator draws independent per-stage SNRs (inverse-CDF from one PCG64
stream, uniforms consumed in trial-major order, so results do not depend on
chunking) and applies a threshold policy vectorized.

The oracle solves the stopping problem exactly on discrete (atom) channel
laws by direct recursion on the value function. It shares the cost
primitives but none of the threshold logic, so agreement with the
backward-induction path is a genuine cross-check rather than a tautology.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import per_stage
from .cost_model import SystemParams, cost_model
from .model_graph import NetworkSpec
from .splitting import ThresholdPolicy, backward_induction, one_sla_thresholds

RNG_ALGORITHM = "numpy-pcg64"
_CHUNK_TRIALS = 1 << 17


@dataclass(frozen=True)
class SimResult:
    trials: int
    mean_etc: float
    std_error: float
    stop_histogram: tuple[float, ...]
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


@dataclass(frozen=True)
class OracleResult:
    grid_points: int
    thresholds: tuple[float, ...]
    expected_cost: float


def _snr_chunks(ds, trials: int, seed: int, chunk: int):
    """Per-stage SNR draws of `trials` sequences, in blocks of at most `chunk` rows.

    The uniforms come from one PCG64 stream in trial-major order, so the
    draws do not depend on the chunk size.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, trials, chunk):
        u = rng.random((min(chunk, trials - start), len(ds)))
        yield np.column_stack([np.atleast_1d(d.quantile(u[:, j])) for j, d in enumerate(ds)])


def _stop_stages(snrs: np.ndarray, thresholds: np.ndarray, M: int) -> np.ndarray:
    if M == 0:
        return np.ones(snrs.shape[0], dtype=int)
    hit = snrs[:, :M] >= thresholds[None, :]
    any_hit = hit.any(axis=1)
    return np.where(any_hit, hit.argmax(axis=1) + 1, M + 1)


def simulate(policy: ThresholdPolicy, net: NetworkSpec, params: SystemParams, dists,
             trials: int, seed: int, chunk: int = _CHUNK_TRIALS) -> SimResult:
    """Average realized cost of a policy over independent SNR draws."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    M = policy.horizon_M
    ds = per_stage(dists, M + 1)
    cm = cost_model(net, params)
    thresholds = np.array(policy.thresholds, dtype=float)

    total = 0.0
    total_sq = 0.0
    counts = np.zeros(M + 2, dtype=np.int64)  # 1-based stages
    for snrs in _snr_chunks(ds, trials, seed, chunk):
        stages = _stop_stages(snrs, thresholds, M)
        gammas = snrs[np.arange(len(snrs)), stages - 1]
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
                     trials: int, seed: int, chunk: int = _CHUNK_TRIALS) -> float:
    """Fraction of SNR sequences on which the 1-sla and optimal rules pick the
    same split stage."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ds = per_stage(dists, M + 1)
    t_opt = np.array(backward_induction(M, net, params, ds).thresholds)
    t_sla = np.array(one_sla_thresholds(M, net, params, ds).thresholds)
    agree = 0
    for snrs in _snr_chunks(ds, trials, seed, chunk):
        agree += int((_stop_stages(snrs, t_opt, M) == _stop_stages(snrs, t_sla, M)).sum())
    return agree / trials


def oracle_dp(M: int, net: NetworkSpec, params: SystemParams, discrete_dists) -> OracleResult:
    """Exact stopping value on discrete SNR laws, by direct value recursion.

    V at the final stage is the stop cost; earlier stages take the pointwise
    min of stopping and the expected value of continuing. Pure finite sums.
    The recovered per-stage threshold is the smallest atom at which stopping
    wins (inf if none does).
    """
    if not 1 <= M <= net.N:
        raise ValueError(f"M must lie in [1, {net.N}]")
    ds = per_stage(discrete_dists, M + 1)
    if any(d.kind != "discrete" for d in ds):
        raise ValueError("the oracle needs discrete stage distributions")
    cm = cost_model(net, params)

    def stage_arrays(n, dist):
        snrs = np.array([s for s, _ in dist.atoms])
        probs = np.array([p for _, p in dist.atoms])
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
    grid = max(len(d.atoms) for d in ds)
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
        "rng_algorithm": result.rng_algorithm,
        "policy": policy.to_json_dict(),
        "network_sha256": network_hash(net),
        "params": params.to_json_dict(),
        "stage_distributions": [d.to_json_dict() for d in ds],
    }
