"""Per-stage SNR laws: quantiles, CDF/PDF, and numerical expectation operators.

The default law is a Rayleigh-fading SNR (exponential) truncated at a small
floor gamma_min = mean * floor_ratio and renormalized. The floor models the
receiver sensitivity below which transmission is not attempted; without it
E[1/R] diverges because 1/log2(1+g) ~ 1/g near zero. Every expectation used
by the stopping rules is finite on the truncated law.

A discrete kind (weighted atoms) backs the exact dynamic-programming oracle
and degenerate test channels.
"""
from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, islice

from .cost_model import LN2, SystemParams
from .errors import NumericalError
from .records import Record

DEFAULT_FLOOR_RATIO = 1e-3

# The fixed rule behind every expectation of the exponential kind: 12-point
# Gauss-Legendre panels. Next to the floor each panel is as wide as its
# distance from SNR 0, where 1/R = 1/log1p has its pole, so the widths double
# away from it; from _STEP_MEANS means on they stay _STEP_MEANS means wide.
# Every tail runs at least _REACH_MEANS means past its threshold, where the
# law keeps e^-40 (4e-18) of the mass above it. The half-rule: the positive
# nodes on [-1, 1] and their weights.
_GL_HALF = (
    (0.1252334085114689154724414, 0.2491470458134027850005624),
    (0.3678314989981801937526915, 0.2334925365383548087608499),
    (0.5873179542866174472967024, 0.2031674267230659217490645),
    (0.7699026741943046870368938, 0.1600783285433462263346525),
    (0.9041172563704748566784659, 0.1069393259953184309602547),
    (0.9815606342467192506905491, 0.0471753363865118271946160),
)
# the 12 nodes in increasing order and their weights, mapped onto [0, 1]
_GL_NODES = tuple([0.5 - 0.5 * x for x, _ in reversed(_GL_HALF)] + [0.5 + 0.5 * x for x, _ in _GL_HALF])
_GL_WEIGHTS = tuple([0.5 * w for _, w in reversed(_GL_HALF)] + [0.5 * w for _, w in _GL_HALF])
_STEP_MEANS = 4.0
_REACH_MEANS = 40.0
# On a law with a floor of 0 the first panel is [0, 2^-60 means]; where it
# holds more than 1e-12 of the integral, the integral does not converge.
_ZERO_FLOOR_PANEL = 2.0**-60
_ZERO_FLOOR_SHARE = 1e-12
# The SNR nodes round to the grid of the floor's doubles, which moves E[1/R] by
# about ulp(floor) / mean relative. Up to a floor of 2^20 means the rule's
# E[1/R] matches 30-digit mpmath within 1e-10 (at most 5.5e-11 over 800 laws
# with floors in [2^19, 2^20] means and means from 1e-6 to 1e6; 1.5e-10 at
# 2^21.9); a law with a higher floor is rejected.
_MAX_FLOOR_MEANS = 2.0**20
# the rule as the result files record it
QUAD_RULE = {
    "quad_nodes_per_panel": len(_GL_NODES),
    "quad_panels": f"doubling from the SNR floor to {_STEP_MEANS:g} means wide; "
                   f"at least {_REACH_MEANS:g} means past each threshold",
}

LIGHTSPEED_M_S = 3e8
_FIRST, _SECOND = operator.itemgetter(0), operator.itemgetter(1)


def _each(f, x):
    """f on a number, or the list of f over a sequence of numbers."""
    if isinstance(x, (int, float)) or getattr(x, "ndim", None) == 0:
        return f(x)
    return [f(v) for v in x]


class PathLossParams(Record):
    """Large-scale attenuation between device and base station."""

    __slots__ = ("antenna_gain", "carrier_hz", "distance_m", "exponent")

    def __init__(self, antenna_gain: float, carrier_hz: float, distance_m: float, exponent: float):
        self._set(antenna_gain, carrier_hz, distance_m, exponent)
        for name in self.__slots__:
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")


def mean_snr_from_pathloss(pl: PathLossParams, params: SystemParams) -> float:
    """Average received SNR = (P / noise) * gain * (c / (4 pi f d))^exponent."""
    wavelength_factor = LIGHTSPEED_M_S / (4.0 * math.pi * pl.carrier_hz * pl.distance_m)
    return (params.tx_power_w / params.noise_w) * pl.antenna_gain * wavelength_factor**pl.exponent


class StageDistribution(Record):
    """SNR law of one decision stage.

    kind is "truncated_exponential" or "discrete". The exponential kind is
    support_lo + Exp(mean_snr): the law above the floor support_lo, which has
    no ceiling (support_lo = 0 is the untruncated law). The discrete kind
    stores its atoms as two columns, `snrs` strictly increasing and `probs`
    their probabilities, given as `snrs=` and `probs=`; its support_lo is
    the bottom atom. `discrete()` builds one from (snr, probability) pairs.
    Instances are immutable and safe to share.
    """

    __slots__ = ("kind", "mean_snr", "support_lo", "snrs", "probs")

    def __init__(self, kind: str, mean_snr: float | None = None, support_lo: float = 0.0, *,
                 snrs=None, probs=None):
        if kind == "truncated_exponential":
            if mean_snr is None or not 0 < mean_snr < math.inf:
                raise ValueError(f"mean_snr must be positive and finite, got {mean_snr!r}")
            # written so that a NaN floor fails
            if not (math.isfinite(support_lo) and support_lo >= 0):
                raise ValueError(f"need a finite SNR floor support_lo >= 0, got {support_lo!r}")
            if not support_lo <= _MAX_FLOOR_MEANS * mean_snr:
                raise ValueError(f"the SNR floor support_lo = {support_lo!r} lies more than 2^20 "
                                 f"times mean_snr = {mean_snr!r} above 0, where the fixed rule's "
                                 "nodes round to the floor's grid of doubles")
            # a tail spans 2 x _REACH_MEANS means of SNR above the floor
            if not support_lo + 2.0 * _REACH_MEANS * mean_snr < math.inf:
                raise ValueError(f"the SNR floor support_lo = {support_lo!r} and mean_snr = "
                                 f"{mean_snr!r} leave the tail no room: {2.0 * _REACH_MEANS:g} "
                                 "means above the floor overflow")
        elif kind == "discrete":
            if not snrs:
                raise ValueError("discrete law needs at least one atom")
            if len(snrs) != len(probs):
                raise ValueError("need one probability per atom SNR")
            # written so that NaN atoms fail: a NaN anywhere breaks the strict order
            if not (snrs[0] > 0 and snrs[-1] < math.inf):
                raise ValueError("atom SNRs must be positive and finite")
            if not all(map(operator.lt, snrs, islice(snrs, 1, None))):
                raise ValueError("atom SNRs must be strictly increasing")
            if not min(probs) > 0:
                raise ValueError("atom probabilities must be positive")
            # the left-to-right float sum, as over the atoms themselves
            if not abs(sum(probs) - 1.0) <= 1e-12:
                raise ValueError("atom probabilities must sum to 1")
            support_lo = snrs[0]
        else:
            raise ValueError(f"unknown distribution kind {kind!r}")
        self._set(kind, mean_snr, support_lo, snrs, probs)

    def __hash__(self):
        return hash((self.kind, self.mean_snr, self.support_lo, self.snrs, self.probs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def truncated_exponential(cls, mean_snr: float,
                              floor_ratio: float = DEFAULT_FLOOR_RATIO) -> "StageDistribution":
        """Exponential law restricted to [mean_snr * floor_ratio, inf) and renormalized."""
        mean_snr = float(mean_snr)
        lo = mean_snr * floor_ratio
        if lo <= 0:
            raise ValueError("truncation floor must be positive")
        return cls(kind="truncated_exponential", mean_snr=mean_snr, support_lo=lo)

    @classmethod
    def discrete(cls, atoms) -> "StageDistribution":
        """Discrete law; atoms are (snr, probability) pairs.

        Atoms are sorted and exact-duplicate SNRs merged, so the law is
        invariant under reordering and under splitting one atom in two. The
        merged probabilities are summed in input order. An (n, 2) array is
        taken as it is.
        """
        rows = atoms.tolist() if hasattr(atoms, "tolist") else list(atoms)
        if set(map(len, rows)) - {2}:
            raise ValueError("atoms must be (snr, probability) pairs")
        return cls._merged(list(map(float, map(_FIRST, rows))), list(map(float, map(_SECOND, rows))))

    @classmethod
    def _merged(cls, snrs: list, probs: list) -> "StageDistribution":
        """The discrete law of the atoms (snrs[k], probs[k]), sorted, with
        repeated SNRs merged in input order."""
        if not all(map(operator.lt, snrs, islice(snrs, 1, None))):  # else sorted with no repeats
            merged = {}
            for snr, prob in zip(snrs, probs):
                merged[snr] = merged.get(snr, 0.0) + prob
            snrs, probs = zip(*sorted(merged.items()))
        return cls("discrete", snrs=tuple(snrs), probs=tuple(probs))

    @classmethod
    def from_pathloss(cls, pl: PathLossParams, params: SystemParams,
                      floor_ratio: float = DEFAULT_FLOOR_RATIO) -> "StageDistribution":
        return cls.truncated_exponential(mean_snr_from_pathloss(pl, params), floor_ratio)

    # -- law ----------------------------------------------------------------

    @property
    def atom_arrays(self):
        """The atoms of a discrete law as read-only (snrs, probabilities) numpy arrays."""
        if self.kind != "discrete":
            raise ValueError("only a discrete law has atoms")
        import numpy as np

        arrays = tuple(np.fromiter(column, float, len(column)) for column in (self.snrs, self.probs))
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def pdf(self, x):
        """Density for the exponential kind; point mass for the discrete kind.

        Takes a number or a sequence of numbers, and returns a float or a list.
        """
        if self.kind == "discrete":
            snrs, probs = self.snrs, self.probs
            top = len(snrs) - 1

            def mass(v):
                i = min(bisect_left(snrs, v), top)
                return probs[i] if snrs[i] == v else 0.0

            return _each(mass, x)
        lo, mean = self.support_lo, self.mean_snr
        return _each(lambda v: math.exp(-(v - lo) / mean) / mean if v >= lo else 0.0, x)

    def cdf(self, x):
        """P{SNR <= x}, of a number or a sequence of numbers."""
        if self.kind == "discrete":
            return self._discrete_below(x, bisect_right)
        lo, mean = self.support_lo, self.mean_snr
        return _each(lambda v: 0.0 if v < lo else -math.expm1(-(v - lo) / mean), x)

    def prob_below(self, x):
        """P{SNR < x}: the probability that a rule stopping on SNR >= x goes on.

        It equals the cdf on the exponential kind and leaves out the atom at
        x on the discrete kind.
        """
        return self._discrete_below(x, bisect_left) if self.kind == "discrete" else self.cdf(x)

    def _discrete_below(self, x, bisect):
        snrs, cum = self.snrs, list(accumulate(self.probs))

        def below(v):
            i = bisect(snrs, v)
            return cum[i - 1] if i else 0.0

        return _each(below, x)

    def quantile(self, u):
        """Inverse CDF, elementwise; an array argument gets a new numpy array of its shape."""
        import numpy as np

        # one contiguous copy of the argument: checked with two reductions and,
        # on the exponential kind, turned into the result in place
        u = np.array(u, dtype=float)
        if u.size and not (u.min() >= 0 and u.max() <= 1):  # also rejects NaN
            raise ValueError("quantile argument must lie in [0, 1]")
        if self.kind == "discrete":
            snrs, probs = self.atom_arrays
            out = snrs[np.minimum(np.searchsorted(np.cumsum(probs), u, side="left"), len(snrs) - 1)]
            return float(out) if out.ndim == 0 else out
        with np.errstate(divide="ignore"):
            # lo - mean * log1p(-u)
            np.negative(u, out=u)
            np.log1p(u, out=u)
        u *= self.mean_snr
        np.subtract(self.support_lo, u, out=u)
        return float(u) if u.ndim == 0 else u

    # -- expectations --------------------------------------------------------

    def partial_expect(self, g, t: float) -> float:
        """The tail E[g(SNR); SNR >= t]: the integral of g against the law over [t, inf).

        g is called on one SNR (a float) at a time. The discrete kind sums
        over its atoms at or above t; the exponential kind runs the fixed rule
        over [max(t, floor), inf), cut 2 x _REACH_MEANS means past its start,
        and raises NumericalError where the sum is not finite. The tail at
        t = +inf is 0.
        """
        if self.kind == "discrete":
            return float(sum(p * g(s) for s, p in zip(self.snrs, self.probs) if s >= t))
        a = max(t, self.support_lo)
        return sum(reversed(self._panel_integrals(g, self._layout(a)))) if a < math.inf else 0.0

    def _layout(self, a: float) -> list[tuple[float, float]]:
        """The panels of the fixed rule from a >= floor to 2 x _REACH_MEANS
        means past a. Each panel is as wide as its distance from SNR 0 (a law
        with a floor of 0 starts with [0, 2^-60 means]) until that reaches
        _STEP_MEANS means; from there on panels are _STEP_MEANS means wide."""
        mean = self.mean_snr
        step = _STEP_MEANS * mean
        end = min(a + 2.0 * _REACH_MEANS * mean, sys.float_info.max)
        edges = [a] if a else [0.0, _ZERO_FLOOR_PANEL * mean or math.ulp(0.0)]
        while edges[-1] < step and edges[-1] < end:
            edges.append(2.0 * edges[-1])
        base = edges[-1]
        edges += [base + k * step for k in range(1, math.ceil((end - base) / step) + 1)]
        edges[-1] = min(edges[-1], end)
        return list(zip(edges, edges[1:]))

    def _panel_integrals(self, g, panels) -> list[float]:
        """The 12-point rule's integral of g * pdf over each (x0, x1) panel,
        from one `pdf` call. Raises NumericalError where their sum is not
        finite or, on a law with a floor of 0, where the first panel holds
        more than 1e-12 of it: the integral does not converge there."""
        xs = [x0 + (x1 - x0) * x for x0, x1 in panels for x in _GL_NODES]
        vals = [g(x) * p for x, p in zip(xs, self.pdf(xs))]
        n = len(_GL_NODES)
        out = [(x1 - x0) * sum(map(operator.mul, _GL_WEIGHTS, vals[k:k + n]))
               for k, (x0, x1) in zip(range(0, len(vals), n), panels)]
        total = sum(reversed(out))
        if not math.isfinite(total):
            raise NumericalError("expectation is not finite", estimate=total)
        if out and panels[0][0] == 0.0 and abs(out[0]) > _ZERO_FLOOR_SHARE * abs(total):
            raise NumericalError("expectation does not converge at an SNR floor of 0: the panel "
                                 f"[0, {panels[0][1]:g}] holds {out[0]:g} of {total:g}", estimate=total)
        return out

    def discretize(self, grid_points: int) -> "StageDistribution":
        """Equal-mass atoms at quantile midpoints (probability-matched grid)."""
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        import numpy as np

        u = (np.arange(grid_points) + 0.5) / grid_points
        return StageDistribution._merged(self.quantile(u).tolist(), [1.0 / grid_points] * grid_points)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "discrete":
            return {"kind": "discrete", "atoms": [[s, p] for s, p in zip(self.snrs, self.probs)]}
        return {"kind": self.kind, "mean_snr": self.mean_snr, "snr_floor": self.support_lo}


class TailTable:
    """Every tail E[g(SNR); SNR >= t] of one law, from one pass of the fixed rule.

    The exponential kind keeps the rule's panels over 2 x _REACH_MEANS means
    above the floor with their suffix sums. A tail at t less than
    _REACH_MEANS means above the floor is the suffix beyond t's panel plus
    the rule on [t, that panel's right edge]; a tail further out is the
    rule's own run from t, as `partial_expect` makes it. The discrete kind
    keeps exact atom suffix sums, closed at t because a tie stops. `full` is
    E[g], the tail `partial_expect` returns at the floor.
    """

    def __init__(self, dist: StageDistribution, g):
        self.dist, self.g = dist, g
        if dist.kind == "discrete":
            self.edges = dist.snrs
            terms = [p * g(s) for s, p in zip(dist.snrs, dist.probs)]
        else:
            panels = dist._layout(dist.support_lo)
            self.edges = [x0 for x0, _ in panels] + [panels[-1][1]]
            terms = dist._panel_integrals(g, panels)
            self.near = dist.support_lo + _REACH_MEANS * dist.mean_snr
        self.suffix = list(accumulate(reversed(terms)))[::-1] + [0.0]
        self.full = self.suffix[0]

    def tails(self, thresholds) -> list[float]:
        """E[g(SNR); SNR >= t] for each t of a sequence of thresholds."""
        edges, suffix = self.edges, self.suffix
        if self.dist.kind == "discrete":
            return [suffix[bisect_left(edges, t)] for t in thresholds]
        out, inner = [], []  # inner: (position in out, t, right edge of t's panel)
        for t in thresholds:
            if t <= edges[0]:
                out.append(self.full)
            elif t < self.near:
                i = bisect_right(edges, t)
                inner.append((len(out), t, edges[i]))
                out.append(suffix[i])
            else:
                out.append(self.dist.partial_expect(self.g, t))
        if inner:
            # one pdf call over the partial panels; each is its own sum
            parts = self.dist._panel_integrals(self.g, [(t, e) for _, t, e in inner])
            for (k, _, _), part in zip(inner, parts):
                out[k] += part
        return out


# Process-wide on purpose: keyed on an immutable law and a bandwidth, so every
# stage, strategy and CLI call in a process reads a law's tails off one table.
# A cold plan builds one per distinct law; 256 hold a distance sweep's laws.
@lru_cache(maxsize=256)
def inv_rate_table(dist: StageDistribution, bandwidth_hz: float) -> TailTable:
    """Tail table of 1 / R(snr) for the uplink rate R = B log2(1 + snr)."""
    def inv_rate(s):
        rate = bandwidth_hz * math.log1p(s) / LN2
        return 1.0 / rate if rate else math.inf  # a rate that underflows takes forever

    return TailTable(dist, inv_rate)


def inv_rate_tails(dist: StageDistribution, thresholds, bandwidth_hz: float) -> list[float]:
    """E[1 / R(snr); snr >= t] for each threshold t, read off the law's table."""
    return inv_rate_table(dist, bandwidth_hz).tails(thresholds)


def per_stage(dists, count: int) -> tuple[StageDistribution, ...]:
    """Normalize a shared law or a per-stage sequence to exactly `count` laws."""
    if isinstance(dists, StageDistribution):
        return (dists,) * count
    seq = tuple(dists)
    if len(seq) < count:
        raise ValueError(f"need distributions for {count} stages, got {len(seq)}")
    if not all(isinstance(d, StageDistribution) for d in seq[:count]):
        raise TypeError("per-stage entries must be StageDistribution instances")
    return seq[:count]
