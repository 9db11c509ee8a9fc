"""Monte Carlo policy evaluation and an exact discrete oracle.

The simulator draws uniforms from one PCG64 stream in trial-major order, in
tiles of at most _TILE_ROWS trials inside blocks of at most _CHUNK_TRIALS,
and applies a threshold policy one stage at a time: a stage's inverse CDF
runs only on the uniforms of the trials that have not stopped yet, on the
laws and costs of a `splitting.Problem`, and prices a trial at stage 1, then
again where it stops. No result depends on the tile size, and none on the
block size but through the order of the per-block sums.

The first draw imports numpy.random with `_hashlib` masked: it loads no
OpenSSL, and a later `import hashlib` does. Nothing is masked on numpy < 2,
whose `import numpy` loads numpy.random, nor once `_hashlib` is loaded; and
during that import another thread's first `import hashlib` gets the fallback.

The oracle solves the stopping problem exactly on discrete (atom) channel
laws by direct recursion on the value function. It shares the cost
primitives but no Problem and none of the threshold logic, so agreement with
the backward-induction path is a genuine cross-check rather than a tautology.

`cli.py` writes the results to `sim.json`; `RNG_ALGORITHM` names the stream.
"""
from __future__ import annotations

import math
import sys

from .channel import per_stage
from .cost_model import SystemParams, cost_model
from .model_graph import NetworkSpec
from .records import Record
from .splitting import Problem, ThresholdPolicy

RNG_ALGORITHM = "numpy-pcg64"
# the most trials whose costs are summed as one array
_CHUNK_TRIALS = 1 << 17
# the most trials drawn and run through the kernel at a time: the working set
# of a call is one tile, whatever the trial count
_TILE_ROWS = 1 << 13


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


def _pcg64(seed: int):
    """`numpy.random.default_rng(seed)`; the first call imports numpy.random
    and then drops the no-OpenSSL `secrets`, `hmac` and `hashlib` it added."""
    if not {"numpy.random", "_hashlib"} & sys.modules.keys():
        added = {"hashlib", "hmac", "secrets"} - sys.modules.keys()
        sys.modules["_hashlib"] = None  # hashlib and hmac take their fallback
        try:
            import numpy.random  # noqa: F401
        finally:
            sys.modules.pop("_hashlib", None)
            for name in added:
                sys.modules.pop(name, None)
    import numpy as np

    return np.random.default_rng(seed)


def _uniform_tiles(trials: int, stages: int, seed: int):
    """(block rows, first row, tile) for each tile of (rows, stages) uniforms.

    Blocks of at most _CHUNK_TRIALS rows are cut into tiles of at most
    _TILE_ROWS rows, `first` being the tile's offset in its block. The
    uniforms come from one PCG64 stream in trial-major order, so the draws
    depend on neither size. Every tile is a view of one buffer, which the
    next tile overwrites.
    """
    import numpy as np

    rng = _pcg64(seed)
    buffer = np.empty((min(_TILE_ROWS, _CHUNK_TRIALS, trials), stages))
    for start in range(0, trials, _CHUNK_TRIALS):
        rows = min(_CHUNK_TRIALS, trials - start)
        for first in range(0, rows, _TILE_ROWS):
            yield rows, first, rng.random(out=buffer[:min(_TILE_ROWS, rows - first)])


def _price_tile(u, ds, thresholds, cm, out, counts):
    """Write each row's cost into `out` and add the rows stopping at each 1-based
    stage to `counts`. A row stops at its first SNR at or above the stage's
    threshold, else at the forced stage M + 1, M = len(thresholds). Every row
    is priced at stage 1, on its whole column; stage j > 1 draws only for the
    rows still live and prices again those that stop. No stage runs once no
    row is live."""
    import numpy as np

    limits = (*thresholds, -math.inf)  # the forced stage stops every row it reaches
    snrs = ds[0].quantile(u[:, 0])
    cm.etc_values(1, snrs, out=out)
    live = np.flatnonzero(~(snrs >= limits[0]))
    counts[1] += len(u) - live.size
    for j in range(1, len(limits)):
        if not live.size:
            break
        snrs = ds[j].quantile(u[live, j])
        hit = snrs >= limits[j]
        stop = live[hit]
        out[stop] = cm.etc_values(j + 1, snrs[hit])
        counts[j + 1] += stop.size
        live = live[~hit]


def simulate(problem: Problem, policy: ThresholdPolicy, trials: int, seed: int) -> SimResult:
    """Average realized cost of a policy over independent SNR draws from the
    stage laws of `problem`, at the costs of its cost model. Fewer than one
    trial, or a policy whose horizon exceeds the Problem's, is a ValueError."""
    import numpy as np

    M = policy.horizon_M
    if M > problem.M:
        raise ValueError(f"policy horizon_M = {M} exceeds the Problem's horizon M = {problem.M}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ds, cm = problem.dists, problem.cm

    total = total_sq = 0.0
    counts = np.zeros(M + 2, dtype=np.int64)  # 1-based stages
    etcs = np.empty(min(_CHUNK_TRIALS, trials))  # a block's costs, summed once it is full
    for rows, first, u in _uniform_tiles(trials, M + 1, seed):
        _price_tile(u, ds, policy.thresholds, cm, etcs[first:first + len(u)], counts)
        if first + len(u) == rows:
            block = etcs[:rows]
            total += float(block.sum())
            total_sq += float(np.dot(block, block))

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
    """Probability that the 1-sla and optimal rules of the Problem at horizon M
    pick the same split stage (`Problem.coincidence_probability`); `dists` as
    in `Problem`. The sum is exact and draws nothing: `trials` and `seed` are
    unused, and stay because perfbench passes them by position."""
    return Problem(net, params, dists, M).coincidence_probability(M)


def oracle_dp(M: int, net: NetworkSpec, params: SystemParams, discrete_dists) -> OracleResult:
    """Exact stopping value on discrete SNR laws, by direct value recursion.

    V at the final stage is the stop cost; earlier stages take the pointwise
    min of stopping and the expected value of continuing. Pure finite sums.
    The recovered per-stage threshold is the smallest atom at which stopping
    wins (inf if none does). The laws are one shared law or at most N + 1,
    which `per_stage` merges, so each distinct law is turned into arrays once.
    """
    import numpy as np

    if not 0 <= M <= net.N:
        raise ValueError(f"M must lie in [0, {net.N}]")
    ds = per_stage(discrete_dists, M + 1, net.N + 1)
    if any(d.kind != "discrete" for d in ds):
        raise ValueError("the oracle needs discrete stage distributions")
    cm = cost_model(net, params)
    arrays = {key: d.atom_arrays for key, d in {id(d): d for d in ds}.items()}

    def stage_arrays(n):
        snrs, probs = arrays[id(ds[n - 1])]
        stop_cost = cm.etc_values(n, snrs)
        return snrs, probs, stop_cost

    snrs, probs, stop_cost = stage_arrays(M + 1)
    continue_value = float(np.dot(probs, stop_cost))
    thresholds = []
    for n in range(M, 0, -1):
        snrs, probs, stop_cost = stage_arrays(n)
        stop_wins = stop_cost <= continue_value
        switch = float(snrs[stop_wins][0]) if stop_wins.any() else math.inf
        thresholds.append(switch)
        value = np.minimum(stop_cost, continue_value)
        continue_value = float(np.dot(probs, value))
    thresholds.reverse()
    grid = max(len(d.snrs) for d in ds)
    return OracleResult(grid_points=grid, thresholds=tuple(thresholds),
                        expected_cost=continue_value)
