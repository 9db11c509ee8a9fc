"""Task-graph construction and presets."""
import json

import pytest

from edgesplit import build_autoencoder_preset, load_config
from edgesplit.cost_model import cost_model
from edgesplit.model_graph import (
    ALEXNET_EXIT_VALUES,
    ALEXNET_TABLE,
    AUTOENCODER_NEURONS,
    LayerSpec,
    MlpSpec,
    NetworkSpec,
    build_alexnet_preset,
    build_mlp,
)

from conftest import DOWNLINK_BPS, make_params, reference_config_dict


def test_unit_width_mlp_arithmetic():
    net = build_mlp(MlpSpec(neurons=(1, 1), bytes_per_activation=1,
                            bytes_per_parameter=1, cycles_per_macc=1, downlink_rate_bps=8))
    layer = net.layers[0]
    assert layer.input_bits == 8.0
    assert layer.workload_cycles == 1.0
    assert layer.download_seconds == 2.0  # 8*1*(1+1)*1/8
    assert net.exit_input_bits == 8.0


def test_autoencoder_preset_shape_and_layer1():
    net = build_autoencoder_preset(DOWNLINK_BPS)
    assert net.N == 8
    assert AUTOENCODER_NEURONS[-1] == 784
    assert net.layers[0].workload_cycles == 100 * 784 * 128
    # layer 4 sees the 32-wide activation of layer 3
    assert net.layers[3].input_bits == 8 * 8 * 32
    assert net.exit_input_bits == 8 * 8 * 784


def test_equal_width_mlp_layers_identical():
    net = build_mlp(MlpSpec((64,) * 6, 8, 8, 100, 1e7))
    assert all(layer == net.layers[0] for layer in net.layers)


def test_downlink_rate_scales_downloads_exactly():
    spec = dict(neurons=(784, 128, 64), bytes_per_activation=8,
                bytes_per_parameter=8, cycles_per_macc=100)
    slow = build_mlp(MlpSpec(downlink_rate_bps=1e7, **spec))
    fast = build_mlp(MlpSpec(downlink_rate_bps=2e7, **spec))
    for a, b in zip(slow.layers, fast.layers):
        assert a.download_seconds == 2 * b.download_seconds
        assert a.input_bits == b.input_bits
        assert a.workload_cycles == b.workload_cycles


def test_virtual_subtasks_carry_no_workload():
    # the entry and the exit are not layers: a split at stage 1 runs nothing
    # on the device, and one at stage N+1 runs nothing on the edge server
    net = build_autoencoder_preset(DOWNLINK_BPS)
    energy_only = make_params(beta_t=0.0, beta_e=1.0)
    assert cost_model(net, energy_only).omega(1) == 0.0
    time_only = make_params(beta_t=1.0, beta_e=0.0)
    cycles = sum(layer.workload_cycles for layer in net.layers)
    assert cost_model(net, time_only).omega(net.N + 1) == cycles / time_only.local_freq_hz


def test_input_bits_covers_exit_stage():
    net = build_autoencoder_preset(DOWNLINK_BPS)
    assert net.input_bits(net.N + 1) == net.exit_input_bits
    with pytest.raises(ValueError):
        net.input_bits(0)
    with pytest.raises(ValueError):
        net.input_bits(net.N + 2)


@pytest.mark.parametrize("bad", [
    dict(neurons=()),
    dict(neurons=(4,)),
    dict(neurons=(4, 0)),
    dict(bytes_per_activation=0.0),
    dict(bytes_per_parameter=-1.0),
    dict(cycles_per_macc=0.0),
    dict(downlink_rate_bps=0.0),
])
def test_mlp_spec_rejects_bad_inputs(bad):
    base = dict(neurons=(4, 4), bytes_per_activation=8.0, bytes_per_parameter=8.0,
                cycles_per_macc=100.0, downlink_rate_bps=1e7)
    base.update(bad)
    with pytest.raises(ValueError):
        MlpSpec(**base)


def test_layer_spec_invariants():
    with pytest.raises(ValueError):
        LayerSpec(workload_cycles=-1, input_bits=1, download_seconds=0)
    with pytest.raises(ValueError):
        LayerSpec(workload_cycles=0, input_bits=0, download_seconds=0)
    with pytest.raises(ValueError):
        LayerSpec(workload_cycles=0, input_bits=1, download_seconds=-1)


# -- AlexNet preset ----------------------------------------------------------

def _alexnet_architecture():
    """Recompute the frozen table from the architecture description.

    Grouped-convolution variant: 227x227x3 input, conv kernels
    (size, stride, pad, out_channels, groups), 3x3/2 max-pool after
    conv 1, 2 and 5, then 4096-4096-1000 fully connected.
    """
    convs = [
        (11, 4, 0, 96, 1),
        (5, 1, 2, 256, 2),
        (3, 1, 1, 384, 1),
        (3, 1, 1, 384, 2),
        (3, 1, 1, 256, 2),
    ]
    pooled_after = {1, 2, 5}
    side, channels = 227, 3
    rows = []
    for idx, (k, stride, pad, out_ch, groups) in enumerate(convs, start=1):
        in_values = side * side * channels
        out_side = (side + 2 * pad - k) // stride + 1
        fan_in = k * k * (channels // groups)
        maccs = out_side * out_side * out_ch * fan_in
        params = out_ch * (fan_in + 1)
        rows.append((maccs, in_values, params))
        side, channels = out_side, out_ch
        if idx in pooled_after:
            side = (side - 3) // 2 + 1
    width = side * side * channels
    for out_width in (4096, 4096, 1000):
        rows.append((width * out_width, width, width * out_width + out_width))
        width = out_width
    return rows, width


def test_alexnet_table_matches_architecture():
    rows, exit_values = _alexnet_architecture()
    assert tuple(rows) == ALEXNET_TABLE
    assert exit_values == ALEXNET_EXIT_VALUES


def test_alexnet_preset_shape():
    net = build_alexnet_preset(DOWNLINK_BPS)
    assert net.N == 8
    # conv workloads dominate the fully-connected ones
    conv = sum(l.workload_cycles for l in net.layers[:5])
    fc = sum(l.workload_cycles for l in net.layers[5:])
    assert conv > 5 * fc
    # payloads shrink monotonically once the fully-connected stack starts
    tail = [net.input_bits(n) for n in range(6, net.N + 2)]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_alexnet_total_parameter_bytes_order():
    total_param_bytes = sum(p for _, _, p in ALEXNET_TABLE) * 8
    assert 1e8 <= total_param_bytes < 1e9


# -- JSON loading ------------------------------------------------------------

def _load_network(obj):
    return load_config(reference_config_dict(network=obj)).network


def test_network_json_roundtrip():
    net = build_autoencoder_preset(DOWNLINK_BPS)
    again = _load_network(json.loads(json.dumps(net.to_json_dict())))
    assert again == net


def test_network_json_mlp_shorthand():
    obj = {"neurons": [784, 128], "lambda_bytes": 8, "mu_bytes": 8,
           "alpha": 100, "downlink_bps": DOWNLINK_BPS}
    net = _load_network({"mlp": obj})
    assert net.N == 1
    assert net.layers[0].input_bits == 8 * 8 * 784
    del obj["downlink_bps"]  # the shorthand takes the params' downlink rate
    assert _load_network({"mlp": obj}) == net


def test_network_json_missing_keys():
    with pytest.raises(ValueError):
        _load_network({"layers": []})
    with pytest.raises(ValueError, match="layers"):
        _load_network({"exit_input_bits": 64})
    with pytest.raises(ValueError, match="alpha"):
        _load_network({"mlp": {"neurons": [4, 4], "lambda_bytes": 8, "mu_bytes": 8}})
    with pytest.raises(ValueError, match="download_seconds"):
        _load_network({"layers": [{"workload_cycles": 1e6, "input_bits": 4096}],
                       "exit_input_bits": 1024})


@pytest.mark.parametrize("name", ["workload_cycles", "download_seconds"])
def test_network_totals_must_be_finite(name):
    # the cost model's prefix sums: three finite layers can sum to inf
    big = LayerSpec(**{"workload_cycles": 1e6, "input_bits": 4096, "download_seconds": 0.01,
                       name: 1e308})
    assert NetworkSpec((big,) * 1, 1024).N == 1
    with pytest.raises(ValueError, match=name):
        NetworkSpec((big,) * 3, 1024)
