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
from itertools import chain

import numpy as np

from .cost_model import LN2, SystemParams
from .errors import NumericalError

DEFAULT_FLOOR_RATIO = 1e-3
TAIL_MASS = 1e-12
QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8
# Bisection depth and live-panel count at which the adaptive rule gives up.
# A panel away from zero reaches the spacing of doubles within about 60
# halvings (53 bits plus log2 of its width over its distance from zero); its
# 21 nodes then round to one point, K21 equals G10, and even a jump in g
# converges. A panel still refining after 100 levels sits on a singularity at
# zero, such as 1/R under the untruncated law. The panel cap bounds memory
# for integrands that are rough everywhere.
_QUAD_MAX_LEVELS = 100
_QUAD_MAX_PANELS = 4096

# Panel boundaries (as quantiles of the law) for piecewise quadrature. The
# adaptive rule only subdivides panels whose nodes look rough, so a feature
# much narrower than the integration interval can be missed entirely;
# bounding every panel's probability mass keeps narrow high-mass features
# visible. The near-0/near-1 points resolve the truncation floor and the tail.
_PANEL_QUANTILES = (
    0.02, 0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95, 0.99, 0.999,
    1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-11,
)

# Gauss-Kronrod 10/21 rule on [-1, 1], as in QUADPACK's qk21: the
# non-negative Kronrod abscissae in decreasing order and their weights, and
# the weights of the 10-point Gauss rule, whose abscissae are the odd-indexed
# Kronrod ones. Mirrored below into the 21 nodes in increasing order.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077548996706780, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _mirror(half):
    half = np.asarray(half)
    return np.concatenate([half, half[-2::-1]])


_GK_NODES = np.concatenate([-np.asarray(_XGK), np.asarray(_XGK[-2::-1])])
# columns: Kronrod weights, Gauss weights (zero at the Kronrod-only nodes)
_GK_WEIGHTS = np.column_stack([
    _mirror(_WGK),
    _mirror([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3], 0.0, _WG[4], 0.0]),
])

LIGHTSPEED_M_S = 3e8


def _gk_adaptive(f, x0, x1, owner, tol):
    """Adaptive Gauss-Kronrod 10/21 rule for f over the panels [x0, x1].

    Each level evaluates f once on the 21 nodes of every live panel, accepts
    a panel when |K21 - G10| is within max(tol[owner] * its width,
    QUAD_EPSREL * |K21|), and bisects the rest into halves of the same owner.
    Returns the accepted panels' edges, integrals and owners, and their sum
    taken level by level. Raises NumericalError, with the estimate and bound
    so far, when the rule gives up or the sum is not finite.
    """
    parts = []  # per level: the accepted panels' edges, integrals and owners
    total = total_err = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for level in range(1, _QUAD_MAX_LEVELS + 1):
            width = x1 - x0
            half = 0.5 * width
            mid = x0 + half
            # einsum, not a BLAS matmul: a panel's sums must not depend on how
            # many other panels share the call
            kronrod, gauss = half * np.einsum("ij,jk->ki", f(mid[:, None] + half[:, None] * _GK_NODES),
                                              _GK_WEIGHTS)
            err = np.abs(kronrod - gauss)
            done = err <= np.maximum(tol[owner] * width, QUAD_EPSREL * np.abs(kronrod))
            if done.all():
                parts.append((x0, x1, kronrod, owner))
                total += float(kronrod.sum())
                break
            parts.append((x0[done], x1[done], kronrod[done], owner[done]))
            total += float(parts[-1][2].sum())
            total_err += float(err[done].sum())
            live = ~done
            x0, mid, x1, owner = x0[live], mid[live], x1[live], owner[live]
            if level == _QUAD_MAX_LEVELS or 2 * len(x0) > _QUAD_MAX_PANELS:
                raise NumericalError(
                    f"quadrature did not converge: {len(x0)} panels, the first "
                    f"[{x0[0]:g}, {x1[0]:g}], exceed the tolerance after {level} levels",
                    estimate=total + float(kronrod[live].sum()),
                    error_bound=total_err + float(err[live].sum()),
                )
            x0, x1, owner = (np.concatenate([x0, mid]), np.concatenate([mid, x1]),
                             np.concatenate([owner, owner]))
    if not math.isfinite(total):  # a NaN panel never passes, but an infinite one does
        raise NumericalError("expectation is not finite", estimate=total, error_bound=total_err)
    return (*(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))), total)


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
            if set(map(len, self.atoms)) != {2}:
                raise ValueError("atoms must be (snr, probability) pairs")
            table = np.fromiter(chain.from_iterable(self.atoms), float, 2 * len(self.atoms))
            table = np.ascontiguousarray(table.reshape(-1, 2).T)
            table.setflags(write=False)
            snrs, probs = table
            # written so that NaN atoms fail; only the largest SNR can be inf
            if not (np.all(snrs > 0) and snrs[-1] < math.inf):
                raise ValueError("atom SNRs must be positive and finite")
            if not np.all(snrs[1:] > snrs[:-1]):
                raise ValueError("atom SNRs must be strictly increasing")
            if not np.all(probs > 0):
                raise ValueError("atom probabilities must be positive")
            # the left-to-right float sum, as over the atoms themselves
            if not abs(sum(probs.tolist()) - 1.0) <= 1e-12:
                raise ValueError("atom probabilities must sum to 1")
            object.__setattr__(self, "support_lo", self.atoms[0][0])
            object.__setattr__(self, "support_hi", self.atoms[-1][0])
            object.__setattr__(self, "_table", table)
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
        invariant under reordering and under splitting one atom in two. The
        merged probabilities are summed in input order. An (n, 2) array is
        taken as it is.
        """
        pairs = np.asarray(atoms if isinstance(atoms, np.ndarray) else list(atoms), dtype=float)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("atoms must be (snr, probability) pairs")
        snrs, inverse = np.unique(pairs[:, 0], return_inverse=True)
        probs = np.bincount(inverse, weights=pairs[:, 1], minlength=len(snrs))
        return cls(kind="discrete", atoms=tuple(zip(snrs.tolist(), probs.tolist())))

    @classmethod
    def from_pathloss(cls, pl: PathLossParams, params: SystemParams,
                      floor_ratio: float = DEFAULT_FLOOR_RATIO) -> "StageDistribution":
        return cls.truncated_exponential(mean_snr_from_pathloss(pl, params), floor_ratio)

    # -- law ----------------------------------------------------------------

    @property
    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms of a discrete law as read-only (snrs, probabilities) arrays."""
        if self.kind != "discrete":
            raise ValueError("only a discrete law has atoms")
        return tuple(self._table)

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
            snrs, probs = self._table
            idx = np.minimum(np.searchsorted(snrs, x), len(snrs) - 1)
            out = np.where(snrs[idx] == x, probs[idx], 0.0)
            return float(out) if out.ndim == 0 else out
        inside = (x >= self.support_lo) & (x <= self.support_hi)
        vals = np.exp(-(x - self.support_lo) / self.mean_snr) / (self.mean_snr * self._mass_ratio)
        out = np.where(inside, vals, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        """P{SNR <= x}."""
        if self.kind == "discrete":
            return self._discrete_below(x, "right")
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            raw = -np.expm1(-(x - self.support_lo) / self.mean_snr) / self._mass_ratio
        # raw is +0 or more from the floor up, so only the top needs clipping
        out = np.minimum(np.where(x < self.support_lo, 0.0, raw), 1.0)
        return float(out) if out.ndim == 0 else out

    def prob_below(self, x):
        """P{SNR < x}: the probability that a rule stopping on SNR >= x goes on.

        It equals the cdf on the exponential kinds and leaves out the atom at
        x on the discrete kind.
        """
        return self._discrete_below(x, "left") if self.kind == "discrete" else self.cdf(x)

    def _discrete_below(self, x, side):
        snrs, probs = self._table
        idx = np.searchsorted(snrs, np.asarray(x, dtype=float), side=side)
        out = np.where(idx > 0, np.cumsum(probs)[np.maximum(idx - 1, 0)], 0.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, u):
        """Inverse CDF, elementwise; an array argument gets a new array of its shape.

        Values never leave [support_lo, support_hi]: u = 1 under a finite
        ceiling would round one ulp above it.
        """
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0) & (u <= 1)):  # also rejects NaN
            raise ValueError("quantile argument must lie in [0, 1]")
        if self.kind == "discrete":
            snrs, probs = self._table
            idx = np.minimum(np.searchsorted(np.cumsum(probs), u, side="left"), len(snrs) - 1)
            out = snrs[idx]
            return float(out) if out.ndim == 0 else out
        with np.errstate(divide="ignore"):
            # lo - mean * log1p(-u * ratio), the same roundings in one buffer
            out = np.multiply(u, -self._mass_ratio, out=np.empty_like(u))
            np.log1p(out, out=out)
        out *= self.mean_snr
        np.subtract(self.support_lo, out, out=out)
        if self.support_hi < math.inf:
            np.minimum(out, self.support_hi, out=out)
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

        g is called on a numpy array of SNRs and must return an array of the
        same shape (a scalar constant is broadcast); the discrete kind calls
        it on each atom. Regions outside the support carry no mass and are
        clipped away. The exponential kinds sum the panels `_gk_adaptive`
        accepts over probability-bounded panels of the clipped interval, and
        raise its NumericalError when the rule does not converge.
        """
        if lo > hi:
            raise ValueError("need lo <= hi")
        if self.kind == "discrete":
            return float(sum(p * g(s) for s, p in self.atoms if lo <= s <= hi))
        a = max(lo, self.support_lo)
        b = min(hi, self._upper_cutoff())
        return self._panels(lambda x: g(x) * self.pdf(x), a, b)[-1] if a < b else 0.0

    def _panels(self, f, a: float, b: float):
        """`_gk_adaptive` for the integrand f over [a, b] within the support,
        cut first at fixed quantiles of the law."""
        cuts = [float(q) for q in self.quantile(np.array(_PANEL_QUANTILES)) if a < q < b]
        edges = np.array([a] + cuts + [b])
        return _gk_adaptive(f, edges[:-1], edges[1:], np.zeros(len(cuts) + 1, dtype=np.intp),
                            np.array([QUAD_EPSABS / (b - a)]))

    def discretize(self, grid_points: int) -> "StageDistribution":
        """Equal-mass atoms at quantile midpoints (probability-matched grid)."""
        if grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        u = (np.arange(grid_points) + 0.5) / grid_points
        probs = np.full(grid_points, 1.0 / grid_points)
        return StageDistribution.discrete(np.column_stack((self.quantile(u), probs)))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == "discrete":
            return {"kind": "discrete", "atoms": [[s, p] for s, p in self.atoms]}
        d = {"kind": self.kind, "mean_snr": self.mean_snr, "snr_floor": self.support_lo}
        if not math.isinf(self.support_hi):
            d["snr_ceiling"] = self.support_hi
        return d


class TailTable:
    """Every tail E[g(SNR); SNR >= t] of one law, from one quadrature pass.

    The exponential kinds keep the panels the adaptive rule accepts over
    [support_lo, cutoff], sorted, with suffix sums; a tail adds the integral
    over [t, the right edge of t's panel], held to the acceptance test that
    `partial_expect` applies over [t, cutoff]. The discrete kind keeps exact
    atom suffix sums, closed at t because a tie stops. `full` is E[g].
    """

    def __init__(self, dist: StageDistribution, g):
        self.lo, self.cutoff, self.integrand = dist.support_lo, dist._upper_cutoff(), None
        if dist.kind == "discrete":
            self.edges, probs = dist.atom_arrays
            terms = probs * g(self.edges)
        else:
            self.integrand = lambda x: g(x) * dist.pdf(x)
            x0, _, terms, _, full = dist._panels(self.integrand, self.lo, self.cutoff)
            order = np.argsort(x0)
            self.edges, terms = np.append(x0[order], self.cutoff), terms[order]
        self.suffix = np.append(np.cumsum(terms[::-1])[::-1], 0.0)
        # the exponential kinds keep the level-by-level sum that `expect` returns
        self.full = float(self.suffix[0]) if self.integrand is None else full

    def tails(self, thresholds) -> np.ndarray:
        """E[g(SNR); SNR >= t] for each t of a 1-d array of thresholds."""
        t = np.asarray(thresholds, dtype=float)
        if self.integrand is None:
            return self.suffix[self.edges.searchsorted(t)]
        inner = (t > self.lo) & (t < self.cutoff)
        if inner.all():
            return self._inner_tails(t)
        out = np.where(t <= self.lo, self.full, 0.0)
        if inner.any():
            out[inner] = self._inner_tails(t[inner])
        return out

    def _inner_tails(self, t):
        # t lies in panel [edges[i-1], edges[i]); the suffix from i is beyond it
        i = self.edges.searchsorted(t, "right")
        _, _, sub, owner, _ = _gk_adaptive(self.integrand, t, self.edges[i], np.arange(len(t)),
                                           QUAD_EPSABS / (self.cutoff - t))
        return np.bincount(owner, sub, len(t)) + self.suffix[i]


# Process-wide on purpose: keyed on an immutable law and a bandwidth, so every
# stage, strategy and CLI call in a process reads a law's tails off one table.
# A cold plan builds one per distinct law; 256 hold a distance sweep's laws.
@lru_cache(maxsize=256)
def inv_rate_table(dist: StageDistribution, bandwidth_hz: float) -> TailTable:
    """Tail table of 1 / R(snr) for the uplink rate R = B log2(1 + snr)."""
    return TailTable(dist, lambda s: 1.0 / (bandwidth_hz * np.log1p(s) / LN2))


def inv_rate_tails(dist: StageDistribution, thresholds, bandwidth_hz: float) -> np.ndarray:
    """E[1 / R(snr); snr >= t] for each threshold t, read off the law's table."""
    return inv_rate_table(dist, bandwidth_hz).tails(thresholds)


def inv_rate_expectation(dist: StageDistribution, lo: float, bandwidth_hz: float) -> float:
    """E[1 / R(snr); snr >= lo], one read of `inv_rate_tails`."""
    return float(inv_rate_tails(dist, [lo], bandwidth_hz)[0])


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
