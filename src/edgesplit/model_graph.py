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
from dataclasses import dataclass

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


@dataclass(frozen=True)
class LayerSpec:
    """One computational layer.

    workload_cycles: CPU cycles to execute the layer.
    input_bits: payload transmitted if inference is offloaded at this layer.
    download_seconds: time to download the layer's parameters to the device.
    """

    workload_cycles: float
    input_bits: float
    download_seconds: float

    def __post_init__(self):
        # `not lo < x < inf` also rejects NaN
        if not 0 <= self.workload_cycles < math.inf:
            raise ValueError("workload_cycles must be nonnegative and finite, "
                             f"got {self.workload_cycles!r}")
        if not 0 < self.input_bits < math.inf:
            raise ValueError(f"input_bits must be positive and finite, got {self.input_bits!r}")
        if not 0 <= self.download_seconds < math.inf:
            raise ValueError("download_seconds must be nonnegative and finite, "
                             f"got {self.download_seconds!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layers 1..N plus the exit payload (stage N+1)."""

    layers: tuple[LayerSpec, ...]
    exit_input_bits: float

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if not 0 < self.exit_input_bits < math.inf:
            raise ValueError("exit_input_bits must be positive and finite, "
                             f"got {self.exit_input_bits!r}")
        object.__setattr__(self, "layers", tuple(self.layers))

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

    def workload_cycles(self, i: int) -> float:
        """Cycles of subtask i, 0 <= i <= N+1; the virtual endpoints cost 0."""
        if not 0 <= i <= self.N + 1:
            raise ValueError(f"subtask {i} out of range [0, {self.N + 1}]")
        if i == 0 or i == self.N + 1:
            return 0.0
        return self.layers[i - 1].workload_cycles

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


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected MLP described by its widths.

    neurons[0] is the input width; layer i maps neurons[i-1] -> neurons[i].
    bytes_per_activation and bytes_per_parameter are converted to bits when
    the network is built.
    """

    neurons: tuple[int, ...]
    bytes_per_activation: float
    bytes_per_parameter: float
    cycles_per_macc: float
    downlink_rate_bps: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "neurons", tuple(int(x) for x in self.neurons))
        except (ValueError, OverflowError) as exc:  # int() of NaN or inf
            raise ValueError(f"neurons must be finite integers: {exc}") from exc
        if len(self.neurons) < 2:
            raise ValueError("neurons must list the input width plus at least one layer")
        if any(x < 1 for x in self.neurons):
            raise ValueError("every layer width must be >= 1")
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


def network_from_json(obj: dict) -> NetworkSpec:
    """Load a network from its explicit layer list
    {"layers": [{"workload_cycles":..,"input_bits":..,"download_seconds":..}],
     "exit_input_bits":..}.

    The {"mlp": {...}} shorthand of the config file is parsed by
    `edgesplit.config`, which resolves its downlink rate against the params.
    """
    if "layers" not in obj or "exit_input_bits" not in obj:
        raise ValueError("network JSON needs 'layers' and 'exit_input_bits'")
    layers = tuple(
        LayerSpec(
            workload_cycles=float(l["workload_cycles"]),
            input_bits=float(l["input_bits"]),
            download_seconds=float(l["download_seconds"]),
        )
        for l in obj["layers"]
    )
    return NetworkSpec(layers, exit_input_bits=float(obj["exit_input_bits"]))


def mlp_spec_from_json(obj: dict) -> MlpSpec:
    try:
        return MlpSpec(
            neurons=tuple(obj["neurons"]),
            bytes_per_activation=float(obj["lambda_bytes"]),
            bytes_per_parameter=float(obj["mu_bytes"]),
            cycles_per_macc=float(obj["alpha"]),
            downlink_rate_bps=float(obj["downlink_bps"]),
        )
    except KeyError as exc:
        raise ValueError(f"mlp shorthand missing key {exc.args[0]!r}") from exc
