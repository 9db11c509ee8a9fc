"""Task-graph construction and presets."""
import json

import pytest

from edgesplit import (
    LayerSpec,
    MlpSpec,
    NetworkSpec,
    build_alexnet_preset,
    build_autoencoder_preset,
    build_mlp,
    network_from_json,
)
from edgesplit.model_graph import (
    ALEXNET_EXIT_VALUES,
    ALEXNET_TABLE,
    AUTOENCODER_NEURONS,
    mlp_spec_from_json,
)

from conftest import DOWNLINK_BPS


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
    net = build_autoencoder_preset(DOWNLINK_BPS)
    assert net.workload_cycles(0) == 0.0
    assert net.workload_cycles(net.N + 1) == 0.0


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

def test_network_json_roundtrip():
    net = build_autoencoder_preset(DOWNLINK_BPS)
    again = network_from_json(json.loads(json.dumps(net.to_json_dict())))
    assert again == net


def test_network_json_mlp_shorthand():
    obj = {"neurons": [784, 128], "lambda_bytes": 8, "mu_bytes": 8,
           "alpha": 100, "downlink_bps": 1e7}
    net = build_mlp(mlp_spec_from_json(obj))
    assert net.N == 1
    assert net.layers[0].input_bits == 8 * 8 * 784


def test_network_json_missing_keys():
    with pytest.raises(ValueError):
        network_from_json({"layers": []})
    with pytest.raises(ValueError, match="layers"):
        network_from_json({"mlp": {"neurons": [4, 4], "lambda_bytes": 8, "mu_bytes": 8,
                                   "alpha": 100, "downlink_bps": 1e7}})
    with pytest.raises(ValueError, match="downlink_bps"):
        mlp_spec_from_json({"neurons": [4, 4], "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100})
