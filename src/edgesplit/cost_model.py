"""Deterministic cost primitives for split inference.

Splitting at stage n with uplink SNR gamma costs

    eta_n(gamma) = omega_n + (beta_t + beta_e * P) * I_n / R(gamma)

where omega_n collects every term that does not depend on the channel:
device compute time and energy for layers before the split plus edge compute
time for the rest. local_gap(n) = omega_{n+1} - omega_n comes from layer n's
cycles: it is the channel-free part of both stopping rules' margins. The
slow-timescale objective adds beta_t * psi(M), the amortized download time.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

from .model_graph import NetworkSpec
from .records import Record

# R = B log2(1 + snr) is B log1p(snr) / LN2, as 1 + snr would round a small SNR
LN2 = math.log(2.0)


class SystemParams(Record):
    """Device, server and radio constants. updates_per_model is the number of
    inferences per model refresh; math.inf is allowed."""

    __slots__ = ("tx_power_w", "noise_w", "bandwidth_hz", "local_freq_hz", "edge_freq_hz", "kappa",
                 "beta_t", "beta_e", "updates_per_model", "downlink_rate_bps")

    def __init__(self, tx_power_w: float, noise_w: float, bandwidth_hz: float, local_freq_hz: float,
                 edge_freq_hz: float, kappa: float, beta_t: float, beta_e: float,
                 updates_per_model: float, downlink_rate_bps: float):
        self._set(tx_power_w, noise_w, bandwidth_hz, local_freq_hz, edge_freq_hz, kappa,
                  beta_t, beta_e, updates_per_model, downlink_rate_bps)
        # `not lo < x < inf` also rejects NaN
        for name in ("tx_power_w", "noise_w", "bandwidth_hz", "local_freq_hz",
                     "edge_freq_hz", "kappa", "downlink_rate_bps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        for name in ("beta_t", "beta_e"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {getattr(self, name)!r}")
        if self.beta_t + self.beta_e <= 0:
            raise ValueError("at least one cost weight must be positive")
        if not self.local_freq_hz < self.edge_freq_hz:
            raise ValueError("edge_freq_hz must exceed local_freq_hz")
        k = self.updates_per_model
        if not (k == math.inf or (k >= 1 and float(k).is_integer())):
            raise ValueError("updates_per_model must be a positive integer or infinity")

    def with_updates(self, updates_per_model: float) -> "SystemParams":
        """The same constants with another updates_per_model, checked as a new SystemParams."""
        return SystemParams(**dict(self.to_json_dict(), updates_per_model=updates_per_model))

    def __hash__(self):
        return hash((self.tx_power_w, self.noise_w, self.bandwidth_hz, self.local_freq_hz,
                     self.edge_freq_hz, self.kappa, self.beta_t, self.beta_e,
                     self.updates_per_model, self.downlink_rate_bps))

    def to_json_dict(self) -> dict:
        return dict(zip(self.__slots__, self._values(self)))


def uplink_rate(gamma: float, params: SystemParams) -> float:
    """Uplink throughput in bits/s at the given SNR."""
    if not gamma > 0:  # also rejects NaN
        raise ValueError("SNR must be positive; a zero SNR has no finite transmission time")
    return params.bandwidth_hz * math.log1p(gamma) / LN2


class CostModel:
    """Prefix-summed cost tables for one (network, params) pair.

    omega and the payload weights are queried heavily by the stopping-rule
    machinery, so everything is precomputed once: O(N) setup, O(1) lookups.
    """

    def __init__(self, net: NetworkSpec, params: SystemParams):
        self.net = net
        self.params = params
        # local[n-1] = cycles of layers 1..n-1, run on the device at stage n
        cycles = [float(l.workload_cycles) for l in net.layers]
        local = [0.0, *accumulate(cycles)]
        total = local[-1]
        energy = params.beta_e * params.kappa * params.local_freq_hz**2
        self._omega = [params.beta_t * (c / params.local_freq_hz + (total - c) / params.edge_freq_hz)
                       + energy * c for c in local]
        # no difference of two omegas; f_e - f_l is exact when the clocks are close
        slower = (params.edge_freq_hz - params.local_freq_hz) / params.edge_freq_hz
        self._gap = [params.beta_t * (c * slower / params.local_freq_hz) + energy * c for c in cycles]
        per_bit = params.beta_t + params.beta_e * params.tx_power_w
        self._weight = [per_bit * float(net.input_bits(n)) for n in range(1, net.N + 2)]
        self._download_cum = [0.0, *accumulate(float(l.download_seconds) for l in net.layers)]
        # each constant is finite, but their products can overflow (float ** raises
        # OverflowError); NetworkSpec keeps the download prefix sums finite
        for name, table in (("omega", self._omega), ("weight", self._weight), ("local gap", self._gap)):
            if not all(map(math.isfinite, table)):
                raise ValueError(f"the {name} cost table overflows: {table!r}")

    def _check_stage(self, n: int):
        if not 1 <= n <= self.net.N + 1:
            raise ValueError(f"stage {n} out of range [1, {self.net.N + 1}]")

    def omega(self, n: int) -> float:
        self._check_stage(n)
        return self._omega[n - 1]

    def local_gap(self, n: int) -> float:
        """omega(n+1) - omega(n): the cost of running layer n on the device, not the edge."""
        if not 1 <= n <= self.net.N:
            raise ValueError(f"layer {n} out of range [1, {self.net.N}]")
        return self._gap[n - 1]

    def weight(self, n: int) -> float:
        """(beta_t + beta_e * P) * I_n, the channel-cost multiplier at stage n."""
        self._check_stage(n)
        return self._weight[n - 1]

    def etc_values(self, stages, gammas):
        """Vectorized eta over numpy arrays of 1-based stage indices and matching
        SNRs: omega + weight / (B log1p(snr) / ln 2), the rate and then the cost
        written into one output array."""
        import numpy as np

        idx = np.asarray(stages, dtype=np.intp) - 1
        out = np.log1p(np.asarray(gammas, dtype=float))
        np.multiply(self.params.bandwidth_hz, out, out=out)
        out /= LN2
        with np.errstate(divide="ignore", over="ignore"):  # a rate that underflows costs +inf
            np.divide(np.take(self._weight, idx), out, out=out)
        out += np.take(self._omega, idx)
        return out

    def placement_cost(self, M: int) -> float:
        if not 0 <= M <= self.net.N:
            raise ValueError(f"placement {M} out of range [0, {self.net.N}]")
        if math.isinf(self.params.updates_per_model):
            return 0.0
        return self._download_cum[M] / self.params.updates_per_model

    def total_cost(self, M: int, expected_etc: float) -> float:
        return self.params.beta_t * self.placement_cost(M) + expected_etc


@lru_cache(maxsize=128)
def cost_model(net: NetworkSpec, params: SystemParams) -> CostModel:
    return CostModel(net, params)
