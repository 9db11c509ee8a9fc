"""Deterministic cost primitives for split inference.

Splitting at stage n with uplink SNR gamma costs

    eta_n(gamma) = omega_n + (beta_t + beta_e * P) * I_n / R(gamma)

where omega_n collects every term that does not depend on the channel:
device compute time and energy for layers before the split plus edge compute
time for the rest. The slow-timescale objective adds the amortized parameter
download time psi(M) weighted by beta_t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model_graph import NetworkSpec

# R = B log2(1 + snr) is B log1p(snr) / LN2, as 1 + snr would round a small SNR
LN2 = math.log(2.0)


@dataclass(frozen=True)
class SystemParams:
    """Device, server and radio constants."""

    tx_power_w: float
    noise_w: float
    bandwidth_hz: float
    local_freq_hz: float
    edge_freq_hz: float
    kappa: float
    beta_t: float
    beta_e: float
    updates_per_model: float  # inferences per model refresh; math.inf allowed
    downlink_rate_bps: float

    def __post_init__(self):
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

    def to_json_dict(self) -> dict:
        d = {
            "tx_power_w": self.tx_power_w,
            "noise_w": self.noise_w,
            "bandwidth_hz": self.bandwidth_hz,
            "local_freq_hz": self.local_freq_hz,
            "edge_freq_hz": self.edge_freq_hz,
            "kappa": self.kappa,
            "beta_t": self.beta_t,
            "beta_e": self.beta_e,
            "updates_per_model": "inf" if math.isinf(self.updates_per_model) else self.updates_per_model,
            "downlink_rate_bps": self.downlink_rate_bps,
        }
        return d

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SystemParams":
        required = ("tx_power_w", "noise_w", "bandwidth_hz", "local_freq_hz",
                    "edge_freq_hz", "kappa", "beta_t", "beta_e",
                    "updates_per_model", "downlink_rate_bps")
        missing = [k for k in required if k not in obj]
        if missing:
            raise ValueError(f"params missing field(s): {', '.join(missing)}")
        k = obj["updates_per_model"]
        if isinstance(k, str):
            if k.lower() != "inf":
                raise ValueError("updates_per_model must be a number or 'inf'")
            k = math.inf
        return cls(
            tx_power_w=float(obj["tx_power_w"]),
            noise_w=float(obj["noise_w"]),
            bandwidth_hz=float(obj["bandwidth_hz"]),
            local_freq_hz=float(obj["local_freq_hz"]),
            edge_freq_hz=float(obj["edge_freq_hz"]),
            kappa=float(obj["kappa"]),
            beta_t=float(obj["beta_t"]),
            beta_e=float(obj["beta_e"]),
            updates_per_model=float(k),
            downlink_rate_bps=float(obj["downlink_rate_bps"]),
        )


@dataclass(frozen=True)
class CostBreakdown:
    """Weighted cost of stopping at `stage` with the observed SNR."""

    stage: int
    etc: float
    omega: float
    uplink_seconds: float
    uplink_joules: float


def uplink_rate(gamma: float, params: SystemParams) -> float:
    """Uplink throughput in bits/s at the given SNR."""
    if gamma <= 0:
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
        n_layers = net.N
        cycles = np.array([l.workload_cycles for l in net.layers], dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(cycles)))  # cum[k] = cycles of layers 1..k
        stages = np.arange(1, n_layers + 2)
        local_cycles = cum[stages - 1]
        edge_cycles = cum[n_layers] - cum[stages - 1]
        self._omega = (
            params.beta_t * (local_cycles / params.local_freq_hz + edge_cycles / params.edge_freq_hz)
            + params.beta_e * params.kappa * params.local_freq_hz**2 * local_cycles
        )
        payload = np.array([net.input_bits(int(n)) for n in stages], dtype=float)
        self._payload_bits = payload
        self._weight = (params.beta_t + params.beta_e * params.tx_power_w) * payload
        downloads = np.array([l.download_seconds for l in net.layers], dtype=float)
        self._download_cum = np.concatenate(([0.0], np.cumsum(downloads)))

    def _check_stage(self, n: int):
        if not 1 <= n <= self.net.N + 1:
            raise ValueError(f"stage {n} out of range [1, {self.net.N + 1}]")

    def omega(self, n: int) -> float:
        self._check_stage(n)
        return float(self._omega[n - 1])

    def weight(self, n: int) -> float:
        """(beta_t + beta_e * P) * I_n, the channel-cost multiplier at stage n."""
        self._check_stage(n)
        return float(self._weight[n - 1])

    def etc(self, n: int, gamma: float) -> CostBreakdown:
        self._check_stage(n)
        rate = uplink_rate(gamma, self.params)
        payload = float(self._payload_bits[n - 1])
        tx_seconds = payload / rate
        tx_joules = self.params.tx_power_w * tx_seconds
        return CostBreakdown(
            stage=n,
            etc=float(self._omega[n - 1] + self._weight[n - 1] / rate),
            omega=float(self._omega[n - 1]),
            uplink_seconds=tx_seconds,
            uplink_joules=tx_joules,
        )

    def etc_values(self, stages: np.ndarray, gammas: np.ndarray) -> np.ndarray:
        """Vectorized eta over 1-based stage indices and matching SNRs."""
        idx = np.asarray(stages, dtype=int) - 1
        rates = self.params.bandwidth_hz * np.log1p(np.asarray(gammas, dtype=float)) / LN2
        return self._omega[idx] + self._weight[idx] / rates

    def placement_cost(self, M: int) -> float:
        if not 0 <= M <= self.net.N:
            raise ValueError(f"placement {M} out of range [0, {self.net.N}]")
        if math.isinf(self.params.updates_per_model):
            return 0.0
        return float(self._download_cum[M]) / self.params.updates_per_model

    def total_cost(self, M: int, expected_etc: float) -> float:
        return self.params.beta_t * self.placement_cost(M) + expected_etc


@lru_cache(maxsize=128)
def cost_model(net: NetworkSpec, params: SystemParams) -> CostModel:
    return CostModel(net, params)
