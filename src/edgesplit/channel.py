"""Per-stage SNR laws: sampling, CDF/PDF, and numerical expectation operators.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .cost_model import SystemParams
from .errors import NumericalError

DEFAULT_FLOOR_RATIO = 1e-3
TAIL_MASS = 1e-12
QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8
_QUAD_LIMIT = 200

# Panel boundaries (as quantiles of the law) for piecewise quadrature. The
# adaptive rule only subdivides panels whose initial samples look rough, so a
# feature much narrower than the integration interval can be missed entirely;
# bounding every panel's probability mass keeps narrow high-mass features
# visible. The near-0/near-1 points resolve the truncation floor and the tail.
_PANEL_QUANTILES = (
    0.02, 0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95, 0.99, 0.999,
    1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-11,
)

LIGHTSPEED_M_S = 3e8


@dataclass(frozen=True)
class PathLossParams:
    """Large-scale attenuation between device and base station."""

    antenna_gain: float
    carrier_hz: float
    distance_m: float
    exponent: float

    def __post_init__(self):
        for name in ("antenna_gain", "carrier_hz", "distance_m", "exponent"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")


def mean_snr_from_pathloss(pl: PathLossParams, params: SystemParams) -> float:
    """Average received SNR = (P / noise) * gain * (c / (4 pi f d))^exponent."""
    wavelength_factor = LIGHTSPEED_M_S / (4.0 * math.pi * pl.carrier_hz * pl.distance_m)
    return (params.tx_power_w / params.noise_w) * pl.antenna_gain * wavelength_factor**pl.exponent


@dataclass(frozen=True)
class StageDistribution:
    """SNR law of one decision stage.

    kind is one of "exponential", "truncated_exponential", "discrete".
    Exponential kinds live on [support_lo, support_hi] (renormalized);
    discrete kinds carry (snr, probability) atoms with strictly increasing
    SNRs. Instances are immutable and safe to share.
    """

    kind: str
    mean_snr: float | None = None
    support_lo: float = 0.0
    support_hi: float = math.inf
    atoms: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind in ("exponential", "truncated_exponential"):
            if self.mean_snr is None or not 0 < self.mean_snr < math.inf:
                raise ValueError(f"mean_snr must be positive and finite, got {self.mean_snr!r}")
            # written so that NaN bounds fail; support_hi may be +inf
            if not (math.isfinite(self.support_lo) and 0 <= self.support_lo < self.support_hi):
                raise ValueError("need 0 <= support_lo < support_hi with a finite SNR floor "
                                 f"support_lo, got [{self.support_lo!r}, {self.support_hi!r}]")
        elif self.kind == "discrete":
            if not self.atoms:
                raise ValueError("discrete law needs at least one atom")
            snrs = [s for s, _ in self.atoms]
            probs = [p for _, p in self.atoms]
            # written so that NaN atoms fail; only the largest SNR can be inf
            if not (all(s > 0 for s in snrs) and snrs[-1] < math.inf):
                raise ValueError("atom SNRs must be positive and finite")
            if not all(s1 < s2 for s1, s2 in zip(snrs, snrs[1:])):
                raise ValueError("atom SNRs must be strictly increasing")
            if not all(p > 0 for p in probs):
                raise ValueError("atom probabilities must be positive")
            if not abs(sum(probs) - 1.0) <= 1e-12:
                raise ValueError("atom probabilities must sum to 1")
            object.__setattr__(self, "support_lo", snrs[0])
            object.__setattr__(self, "support_hi", snrs[-1])
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exponential(cls, mean_snr: float) -> "StageDistribution":
        return cls(kind="exponential", mean_snr=float(mean_snr))

    @classmethod
    def truncated_exponential(cls, mean_snr: float, floor_ratio: float = DEFAULT_FLOOR_RATIO,
                              floor: float | None = None,
                              upper: float = math.inf) -> "StageDistribution":
        """Exponential law restricted to [floor, upper] and renormalized.

        The floor defaults to mean_snr * floor_ratio.
        """
        mean_snr = float(mean_snr)
        lo = float(floor) if floor is not None else mean_snr * floor_ratio
        if lo <= 0:
            raise ValueError("truncation floor must be positive")
        return cls(kind="truncated_exponential", mean_snr=mean_snr,
                   support_lo=lo, support_hi=float(upper))

    @classmethod
    def discrete(cls, atoms) -> "StageDistribution":
        """Discrete law; atoms are (snr, probability) pairs.

        Atoms are sorted and exact-duplicate SNRs merged, so the law is
        invariant under reordering and under splitting one atom in two.
        """
        merged: dict[float, float] = {}
        for snr, prob in atoms:
            merged[float(snr)] = merged.get(float(snr), 0.0) + float(prob)
        canon = tuple(sorted(merged.items()))
        return cls(kind="discrete", atoms=canon)

    @classmethod
    def from_pathloss(cls, pl: PathLossParams, params: SystemParams,
                      floor_ratio: float = DEFAULT_FLOOR_RATIO) -> "StageDistribution":
        return cls.truncated_exponential(mean_snr_from_pathloss(pl, params), floor_ratio)

    # -- law ----------------------------------------------------------------

    @property
    def _mass_ratio(self) -> float:
        # probability mass of [lo, hi] under the untruncated exponential,
        # relative to the mass of [lo, inf)
        if math.isinf(self.support_hi):
            return 1.0
        return -math.expm1(-(self.support_hi - self.support_lo) / self.mean_snr)

    def pdf(self, x):
        """Density for the exponential kinds; point mass for the discrete kind."""
        x = np.asarray(x, dtype=float)
        if self.kind == "discrete":
            out = np.zeros_like(x)
            for snr, prob in self.atoms:
                out = np.where(x == snr, prob, out)
            return float(out) if out.ndim == 0 else out
        inside = (x >= self.support_lo) & (x <= self.support_hi)
        vals = np.exp(-(x - self.support_lo) / self.mean_snr) / (self.mean_snr * self._mass_ratio)
        out = np.where(inside, vals, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "discrete":
            snrs = np.array([s for s, _ in self.atoms])
            cum = np.cumsum([p for _, p in self.atoms])
            idx = np.searchsorted(snrs, x, side="right")
            out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
            return float(out) if out.ndim == 0 else out
        with np.errstate(over="ignore"):
            raw = -np.expm1(-(x - self.support_lo) / self.mean_snr) / self._mass_ratio
        out = np.clip(np.where(x < self.support_lo, 0.0, raw), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u < 0) | (u > 1)):
            raise ValueError("quantile argument must lie in [0, 1]")
        if self.kind == "discrete":
            cum = np.cumsum([p for _, p in self.atoms])
            snrs = np.array([s for s, _ in self.atoms])
            idx = np.minimum(np.searchsorted(cum, u, side="left"), len(snrs) - 1)
            out = snrs[idx]
            return float(out) if out.ndim == 0 else out
        with np.errstate(divide="ignore"):
            out = self.support_lo - self.mean_snr * np.log1p(-u * self._mass_ratio)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        """Inverse-CDF draw; deterministic for a given generator state."""
        return self.quantile(rng.random(size))

    # -- expectations --------------------------------------------------------

    def _upper_cutoff(self) -> float:
        if self.kind == "discrete" or not math.isinf(self.support_hi):
            return self.support_hi
        return float(self.quantile(1.0 - TAIL_MASS))

    def expect(self, g) -> float:
        """E[g(snr)] by adaptive quadrature (exact finite sum when discrete)."""
        return self.partial_expect(g, self.support_lo, self.support_hi)

    def partial_expect(self, g, lo: float, hi: float) -> float:
        """Integral of g against the law over [lo, hi].

        Regions outside the support carry no mass and are clipped away.
        Raises NumericalError (with the achieved estimate and bound) when the
        quadrature does not converge.
        """
        if lo > hi:
            raise ValueError("need lo <= hi")
        if self.kind == "discrete":
            return float(sum(p * g(s) for s, p in self.atoms if lo <= s <= hi))
        a = max(lo, self.support_lo)
        b = min(hi, self._upper_cutoff())
        if a >= b:
            return 0.0
        cuts = [float(q) for q in self.quantile(np.array(_PANEL_QUANTILES)) if a < q < b]
        edges = [a] + cuts + [b]
        per_panel_abs = QUAD_EPSABS / len(edges)

        def integrand(x):
            return g(x) * self.pdf(x)

        total = 0.0
        total_err = 0.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for x0, x1 in zip(edges, edges[1:]):
                result = integrate.quad(
                    integrand, x0, x1,
                    epsabs=per_panel_abs, epsrel=QUAD_EPSREL, limit=_QUAD_LIMIT,
                    full_output=1,
                )
                value, abserr = result[0], result[1]
                if not math.isfinite(value):
                    raise NumericalError(
                        f"integrand is not integrable on [{x0:g}, {x1:g}]",
                        estimate=total, error_bound=math.inf,
                    )
                if len(result) > 3:
                    tol = max(per_panel_abs, abs(value) * QUAD_EPSREL) * 50
                    if not (abserr <= tol):
                        raise NumericalError(
                            f"quadrature did not converge on [{x0:g}, {x1:g}]: {result[3]}",
                            estimate=total + value, error_bound=abserr,
                        )
                total += value
                total_err += abserr
        if not math.isfinite(total):
            raise NumericalError("expectation is not finite",
                                 estimate=total, error_bound=total_err)
        return float(total)

    def discretize(self, grid_points: int) -> "StageDistribution":
        """Equal-mass atoms at quantile midpoints (probability-matched grid)."""
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        u = (np.arange(grid_points) + 0.5) / grid_points
        snrs = np.atleast_1d(self.quantile(u))
        prob = 1.0 / grid_points
        return StageDistribution.discrete([(float(s), prob) for s in snrs])

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "discrete":
            return {"kind": "discrete", "atoms": [[s, p] for s, p in self.atoms]}
        d = {"kind": self.kind, "mean_snr": self.mean_snr, "snr_floor": self.support_lo}
        if not math.isinf(self.support_hi):
            d["snr_ceiling"] = self.support_hi
        return d


# Process-wide on purpose: the key is the immutable law, the bounds and the
# bandwidth, so every stage, placement, strategy and CLI call in a process
# shares one quadrature per key. A repeated `place` request takes about 9.5 ms
# in process against 92-113 ms with the caches cleared (2-core VM, Python
# 3.11). A warm planning loop touches fewer than 1k keys; a cold one never
# repeats a key, so 8192 entries bound the memory without losing reuse.
@lru_cache(maxsize=8192)
def inv_rate_expectation(dist: StageDistribution, lo: float, hi: float,
                         bandwidth_hz: float) -> float:
    """E[1 / R(snr); lo <= snr <= hi] for the uplink rate R = B log2(1 + snr)."""
    return dist.partial_expect(lambda s: 1.0 / (bandwidth_hz * math.log2(1.0 + s)), lo, hi)


def distribution_from_config(spec: dict, params: SystemParams) -> StageDistribution:
    """Build a stage law from its JSON spec.

    Kinds: truncated_exponential {mean_snr, snr_floor_ratio}, exponential
    {mean_snr}, pathloss_rayleigh {distance_m, antenna_gain, carrier_hz,
    exponent, snr_floor_ratio}, discrete {atoms}.
    """
    kind = spec.get("kind")
    if kind == "truncated_exponential":
        return StageDistribution.truncated_exponential(
            float(spec["mean_snr"]),
            floor_ratio=float(spec.get("snr_floor_ratio", DEFAULT_FLOOR_RATIO)),
        )
    if kind == "exponential":
        return StageDistribution.exponential(float(spec["mean_snr"]))
    if kind == "pathloss_rayleigh":
        pl = PathLossParams(
            antenna_gain=float(spec["antenna_gain"]),
            carrier_hz=float(spec["carrier_hz"]),
            distance_m=float(spec["distance_m"]),
            exponent=float(spec["exponent"]),
        )
        return StageDistribution.from_pathloss(
            pl, params, floor_ratio=float(spec.get("snr_floor_ratio", DEFAULT_FLOOR_RATIO))
        )
    if kind == "discrete":
        return StageDistribution.discrete([(float(s), float(p)) for s, p in spec["atoms"]])
    raise ValueError(f"unknown channel kind {kind!r}")


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
