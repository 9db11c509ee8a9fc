"""Sequential task-graph view of a layered DNN.

A network is a chain of N computational layers bracketed by two virtual
subtasks: the entry (always on the device, it produces the raw input) and
the exit (always on the edge server, it consumes the final output). The
virtual subtasks carry zero workload and never appear in `layers`; splitting
at stage n means layers 1..n-1 run on the device and the input payload of
layer n (or of the exit, for n = N+1) is transmitted.

All payloads are stored in bits and all download times in seconds. Byte
constants from presets are converted once, at construction.
"""
from __future__ import annotations

import math

from .records import Record

BITS_PER_BYTE = 8

# Autoencoder preset: input width, seven hidden widths, output width.
AUTOENCODER_NEURONS = (784, 128, 64, 32, 10, 32, 64, 128, 784)
PRESET_BYTES_PER_ACTIVATION = 8.0
PRESET_BYTES_PER_PARAMETER = 8.0
PRESET_CYCLES_PER_MACC = 100.0

# AlexNet-shaped preset, frozen constants per layer:
# (multiply-accumulate count, input feature count, parameter count).
# Derived from the standard grouped-convolution architecture with a
# 227x227x3 input and 1000 output classes; see docs/alexnet_preset.md and
# scripts/derive_alexnet.py for the arithmetic.
ALEXNET_TABLE = (
    (105415200, 154587, 34944),
    (223948800, 69984, 307456),
    (149520384, 43264, 885120),
    (112140288, 64896, 663936),
    (74760192, 64896, 442624),
    (37748736, 9216, 37752832),
    (16777216, 4096, 16781312),
    (4096000, 4096, 4097000),
)
ALEXNET_EXIT_VALUES = 1000


class LayerSpec(Record):
    """One computational layer.

    workload_cycles: CPU cycles to execute the layer.
    input_bits: payload transmitted if inference is offloaded at this layer.
    download_seconds: time to download the layer's parameters to the device.
    """

    __slots__ = ("workload_cycles", "input_bits", "download_seconds")

    def __init__(self, workload_cycles: float, input_bits: float, download_seconds: float):
        # `not lo < x < inf` also rejects NaN
        if not 0 <= workload_cycles < math.inf:
            raise ValueError(f"workload_cycles must be nonnegative and finite, got {workload_cycles!r}")
        if not 0 < input_bits < math.inf:
            raise ValueError(f"input_bits must be positive and finite, got {input_bits!r}")
        if not 0 <= download_seconds < math.inf:
            raise ValueError(f"download_seconds must be nonnegative and finite, got {download_seconds!r}")
        self._set(workload_cycles, input_bits, download_seconds)

    def __hash__(self):
        return hash((self.workload_cycles, self.input_bits, self.download_seconds))


class NetworkSpec(Record):
    """Ordered layers 1..N plus the exit payload (stage N+1)."""

    __slots__ = ("layers", "exit_input_bits")

    def __init__(self, layers, exit_input_bits: float):
        if not layers:
            raise ValueError("network needs at least one layer")
        if not 0 < exit_input_bits < math.inf:
            raise ValueError(f"exit_input_bits must be positive and finite, got {exit_input_bits!r}")
        layers = tuple(layers)
        # the cost model's prefix sums; a sum of finite values can overflow
        for name in ("workload_cycles", "download_seconds"):
            if not math.isfinite(sum(getattr(l, name) for l in layers)):
                raise ValueError(f"the layers' total {name} must be finite")
        self._set(layers, exit_input_bits)

    def __hash__(self):
        return hash((self.layers, self.exit_input_bits))

    @property
    def N(self) -> int:
        return len(self.layers)

    def input_bits(self, n: int) -> float:
        """Payload offloaded when splitting at stage n, 1 <= n <= N+1."""
        if not 1 <= n <= self.N + 1:
            raise ValueError(f"stage {n} out of range [1, {self.N + 1}]")
        if n == self.N + 1:
            return self.exit_input_bits
        return self.layers[n - 1].input_bits

    def to_json_dict(self) -> dict:
        return {
            "layers": [
                {
                    "workload_cycles": l.workload_cycles,
                    "input_bits": l.input_bits,
                    "download_seconds": l.download_seconds,
                }
                for l in self.layers
            ],
            "exit_input_bits": self.exit_input_bits,
        }


class MlpSpec(Record):
    """Fully-connected MLP described by its widths.

    neurons[0] is the input width; layer i maps neurons[i-1] -> neurons[i].
    bytes_per_activation and bytes_per_parameter are converted to bits when
    the network is built.
    """

    __slots__ = ("neurons", "bytes_per_activation", "bytes_per_parameter", "cycles_per_macc",
                 "downlink_rate_bps")

    def __init__(self, neurons, bytes_per_activation: float, bytes_per_parameter: float,
                 cycles_per_macc: float, downlink_rate_bps: float):
        neurons = tuple(neurons)
        if len(neurons) < 2:
            raise ValueError("neurons must list the input width plus at least one layer")
        if not all(isinstance(x, int) and x >= 1 for x in neurons):
            raise ValueError(f"every layer width must be an integer >= 1, got {neurons!r}")
        self._set(neurons, bytes_per_activation, bytes_per_parameter, cycles_per_macc, downlink_rate_bps)
        for name in ("bytes_per_activation", "bytes_per_parameter", "cycles_per_macc", "downlink_rate_bps"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def is_equal_width(self) -> bool:
        return len(set(self.neurons)) == 1


def build_mlp(spec: MlpSpec) -> NetworkSpec:
    """Translate MLP widths into per-layer payload, workload and download time.

    Layer i: payload 8*lambda*X_{i-1} bits, workload alpha*X_{i-1}*X_i cycles,
    parameters (X_{i-1}+1)*X_i downloading at the given rate. The exit payload
    is the final activation vector.
    """
    lam_bits = BITS_PER_BYTE * spec.bytes_per_activation
    mu_bits = BITS_PER_BYTE * spec.bytes_per_parameter
    layers = []
    for i in range(1, len(spec.neurons)):
        x_prev, x_cur = spec.neurons[i - 1], spec.neurons[i]
        layers.append(
            LayerSpec(
                workload_cycles=spec.cycles_per_macc * x_prev * x_cur,
                input_bits=lam_bits * x_prev,
                download_seconds=mu_bits * (x_prev + 1) * x_cur / spec.downlink_rate_bps,
            )
        )
    return NetworkSpec(tuple(layers), exit_input_bits=lam_bits * spec.neurons[-1])


def build_autoencoder_preset(downlink_rate_bps: float) -> NetworkSpec:
    """784-128-64-32-10-32-64-128-784 MLP with 8-byte values and 100 cycles/MACC."""
    return build_mlp(autoencoder_mlp_spec(downlink_rate_bps))


def autoencoder_mlp_spec(downlink_rate_bps: float) -> MlpSpec:
    return MlpSpec(
        neurons=AUTOENCODER_NEURONS,
        bytes_per_activation=PRESET_BYTES_PER_ACTIVATION,
        bytes_per_parameter=PRESET_BYTES_PER_PARAMETER,
        cycles_per_macc=PRESET_CYCLES_PER_MACC,
        downlink_rate_bps=downlink_rate_bps,
    )


def build_alexnet_preset(downlink_rate_bps: float) -> NetworkSpec:
    """Eight-layer AlexNet-shaped network from the frozen constant table."""
    lam_bits = BITS_PER_BYTE * PRESET_BYTES_PER_ACTIVATION
    mu_bits = BITS_PER_BYTE * PRESET_BYTES_PER_PARAMETER
    layers = tuple(
        LayerSpec(
            workload_cycles=PRESET_CYCLES_PER_MACC * maccs,
            input_bits=lam_bits * in_values,
            download_seconds=mu_bits * params / downlink_rate_bps,
        )
        for maccs, in_values, params in ALEXNET_TABLE
    )
    return NetworkSpec(layers, exit_input_bits=lam_bits * ALEXNET_EXIT_VALUES)
