"""Config parsing and the four CLI commands, including file formats and exit codes."""
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesplit import ConfigError, NumericalError, load_config
from edgesplit import cli
from edgesplit.channel import TailTable
from edgesplit.cli import main
from edgesplit.config import MAX_TRIALS
from edgesplit.cost_model import cost_model
from edgesplit.splitting import Problem, StageTable, ThresholdPolicy

from conftest import reference_config_dict


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# -- config loading ----------------------------------------------------------

def test_load_config_reference():
    cfg = load_config(reference_config_dict())
    assert cfg.network.N == 8
    assert cfg.mlp is not None  # the preset is an MLP; closed form is possible
    dists = cfg.stage_dists(9)
    assert len(dists) == 9 and len(set(dists)) == 1


def test_load_config_missing_param_names_field():
    raw = reference_config_dict()
    del raw["params"]["noise_w"]
    with pytest.raises(ConfigError, match="noise_w"):
        load_config(raw)


def test_load_config_unknown_strategy():
    raw = reference_config_dict(strategies=["gradient_descent"])
    with pytest.raises(ConfigError, match="strategy"):
        load_config(raw)


def test_an_empty_strategy_list_is_a_config_error(tmp_path, capsys):
    raw = reference_config_dict(strategies=[])
    with pytest.raises(ConfigError) as info:
        load_config(raw)
    assert info.value.field == "strategies"
    assert main(["place", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert "(field: strategies)" in capsys.readouterr().err
    assert not (tmp_path / "placement.csv").exists()


@pytest.mark.parametrize("by_flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("command", ["thresholds", "place", "sweep", "simulate"])
def test_a_repeated_strategy_is_a_config_error(tmp_path, capsys, command, by_flag):
    """A strategy named twice, in the config or by a repeated --strategy, exits 2
    naming `strategies` and the strategy, and writes nothing."""
    twice = ["optimal_exhaustive", "one_sla_exhaustive", "optimal_exhaustive"]
    raw = reference_config_dict(strategies=twice[:2] if by_flag else twice,
                                sweep={"variable": "M", "values": [0, 2]})
    flags = [arg for s in twice for arg in ("--strategy", s)] if by_flag else []
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, raw), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "(field: strategies)" in err and "'optimal_exhaustive' is listed more than once" in err
    assert not out.exists()  # the config is checked before --out is made


def test_load_config_inf_updates_and_m_sweep():
    raw = reference_config_dict(sweep={"variable": "updates_per_model",
                                       "values": [10, 50, "inf"]})
    cfg = load_config(raw)
    assert cfg.sweep.values == (10.0, 50.0, math.inf)
    raw = reference_config_dict(sweep={"variable": "M", "values": [0, 4, 99]})
    with pytest.raises(ConfigError, match="sweep"):
        load_config(raw)


def test_load_config_per_stage_channel():
    raw = reference_config_dict(channel=[{"kind": "truncated_exponential",
                                          "mean_snr": 0.5 + 0.1 * n} for n in range(9)])
    cfg = load_config(raw)
    dists = cfg.stage_dists(9)
    assert len({d.mean_snr for d in dists}) == 9
    with pytest.raises(ConfigError) as err:
        cfg.stage_dists(10)
    assert err.value.field == "channel"


def test_a_short_per_stage_channel_is_a_channel_error(tmp_path, capsys):
    raw = reference_config_dict(channel=[{"kind": "truncated_exponential", "mean_snr": 0.6}] * 8)
    assert main(["place", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert "(field: channel)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["thresholds", "place", "sweep", "simulate"])
def test_a_per_stage_channel_longer_than_the_stages_is_a_channel_error(tmp_path, capsys, command):
    """N + 1 = 9 laws at most: the tenth and later were once read by no stage
    and dropped without a word."""
    law = {"kind": "truncated_exponential", "mean_snr": 0.6}
    for count in (10, 20):
        raw = reference_config_dict(channel=[law] * count,
                                    sweep={"variable": "M", "values": [0, 8]},
                                    strategies=["optimal_exhaustive", "one_sla_exhaustive"])
        with pytest.raises(ConfigError, match="9") as err:
            load_config(raw)
        assert err.value.field == "channel"
        assert main([command, "--config", write_config(tmp_path, raw), "--out",
                     str(tmp_path / "out")]) == 2
        assert "(field: channel)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
    raw["channel"] = [law] * 9
    assert len(load_config(raw).stage_dists(9)) == 9


def test_load_config_custom_layers():
    raw = reference_config_dict(network={
        "layers": [{"workload_cycles": 1e6, "input_bits": 4096, "download_seconds": 0.01}],
        "exit_input_bits": 1024,
    })
    cfg = load_config(raw)
    assert cfg.network.N == 1
    assert cfg.mlp is None


def test_load_config_mlp_downlink_consistency():
    raw = reference_config_dict(network={"mlp": {
        "neurons": [64, 64], "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100,
        "downlink_bps": 123.0}})
    with pytest.raises(ConfigError, match="downlink"):
        load_config(raw)


# -- non-finite input and byte reproducibility ----------------------------------

NAN, INF = float("nan"), float("inf")
LAYERS = {"layers": [{"workload_cycles": 1e6, "input_bits": 4096, "download_seconds": 0.01}],
          "exit_input_bits": 1024}
MLP = {"neurons": [64, 64], "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}


def _with(raw, path, value):
    """Copy of `raw` with the entry at `path` (keys and list indices) set to `value`."""
    raw = json.loads(json.dumps(raw))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


@pytest.mark.parametrize("network,path,value,field", [
    (None, ("params", "tx_power_w"), NAN, "tx_power_w"),
    (None, ("params", "bandwidth_hz"), INF, "bandwidth_hz"),
    (None, ("params", "beta_e"), NAN, "beta_e"),
    (None, ("params", "beta_t"), -INF, "beta_t"),
    (None, ("params", "updates_per_model"), NAN, "updates_per_model"),
    (None, ("params", "updates_per_model"), -INF, "updates_per_model"),
    (None, ("channel", "distance_m"), NAN, "distance_m"),
    (None, ("channel", "snr_floor_ratio"), NAN, "support_lo"),
    (None, ("channel",), {"kind": "truncated_exponential", "mean_snr": NAN}, "mean_snr"),
    (None, ("channel",), {"kind": "discrete", "atoms": [[NAN, 1.0]]}, "atom"),
    (LAYERS, ("network", "layers", 0, "workload_cycles"), NAN, "workload_cycles"),
    (LAYERS, ("network", "layers", 0, "download_seconds"), INF, "download_seconds"),
    (LAYERS, ("network", "exit_input_bits"), INF, "exit_input_bits"),
    ({"mlp": MLP}, ("network", "mlp", "lambda_bytes"), NAN, "bytes_per_activation"),
    ({"mlp": MLP}, ("network", "mlp", "alpha"), INF, "cycles_per_macc"),
    ({"mlp": MLP}, ("network", "mlp", "neurons", 1), INF, "neurons"),
    (None, ("trials",), NAN, "trials"),
    (None, ("horizon_M",), INF, "horizon_M"),
    (None, ("sweep",), {"variable": "updates_per_model", "values": [10, NAN]}, "sweep.values"),
    (None, ("sweep",), {"variable": "M", "values": [-INF]}, "sweep.values"),
])
def test_non_finite_input_is_a_named_config_error(tmp_path, capsys, network, path, value, field):
    raw = reference_config_dict(**({"network": network} if network else {}))
    raw = _with(raw, path, value)
    with pytest.raises(ConfigError, match=field):
        load_config(raw)
    cfg = write_config(tmp_path, raw)
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


# -- values of the wrong JSON type ----------------------------------------------------

_SHAPE_BASES = {
    "example": reference_config_dict(horizon_M=4, sweep={"variable": "M", "values": [0, 4]}),
    "mlp": reference_config_dict(network={"mlp": MLP},
                                 channel={"kind": "truncated_exponential", "mean_snr": 0.6}),
    "layers": reference_config_dict(network=LAYERS,
                                    channel={"kind": "discrete", "atoms": [[0.5, 0.5], [2.0, 0.5]]}),
}
_JSON_TYPES = (type(None), bool, (int, float), str, list, dict)  # bool before int
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5)


def _json_type(value):
    return next(i for i, t in enumerate(_JSON_TYPES) if isinstance(value, t))


def _value_paths(node, path=()):
    """The path (keys and list indices) of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _value_paths(value, path + (key,))


@st.composite
def _replacements(draw):
    """A base config, the path of one of its values, and a value of another JSON type."""
    base = draw(st.sampled_from(sorted(_SHAPE_BASES)))
    path = draw(st.sampled_from(list(_value_paths(_SHAPE_BASES[base]))))
    old = _SHAPE_BASES[base]
    for key in path:
        old = old[key]
    return base, path, draw(_JSON.filter(lambda v: _json_type(v) != _json_type(old)))


@settings(max_examples=200)
@given(case=_replacements())
@example(case=("example", ("params",), 5))
@example(case=("example", ("channel",), 5))
@example(case=("example", ("channel",), [5]))
@example(case=("example", ("channel", "distance_m"), None))
@example(case=("example", ("sweep",), 5))
@example(case=("example", ("strategies",), 5))
@example(case=("example", ("network",), {"mlp": 5}))
@example(case=("example", ("network",), {"layers": 5}))
@example(case=("example", ("network",), {"layers": [5], "exit_input_bits": 1}))
@example(case=("example", ("params", "tx_power_w"), None))
@example(case=("example", ("params", "tx_power_w"), [1]))
@example(case=("example", ("params", "updates_per_model"), [1]))
@example(case=("example", ("trials",), None))
@example(case=("mlp", ("channel", "mean_snr"), None))
@example(case=("mlp", ("network", "mlp", "neurons"), 5))
@example(case=("mlp", ("network", "mlp", "neurons", 0), None))
@example(case=("layers", ("channel", "atoms"), 5))
@example(case=("layers", ("channel", "atoms"), [[None, 1]]))
@example(case=("layers", ("channel", "atoms"), [5]))
@example(case=("layers", ("network", "exit_input_bits"), None))
@example(case=("layers", ("network", "layers", 0), 5))
@example(case=("example", ("params", "beta_t"), True))
@example(case=("example", ("seed",), True))
@example(case=("mlp", ("network", "mlp", "neurons", 0), 64.7))
def test_a_value_of_another_json_type_fails_by_name(tmp_path_factory, case):
    base, path, value = case
    tmp_path = tmp_path_factory.mktemp("shape")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["place", "--config", write_config(tmp_path, _with(_SHAPE_BASES[base], path, value)),
                     "--out", str(tmp_path)])
    assert code in (0, 2, 3)
    if code == 2:
        field = re.search(r"\(field: ([^)]+)\)", err.getvalue()).group(1).split(".")
        assert field == [k for k in path if isinstance(k, str)][:len(field)], (field, err.getvalue())


@pytest.mark.parametrize("path,value", [(("seed",), 1.5), (("trials",), 2.5), (("horizon_M",), 1.5),
                                        (("sweep", "values", 1), 1.5)])
def test_a_fractional_integer_is_a_config_error(tmp_path, capsys, path, value):
    raw = _with(_SHAPE_BASES["example"], path, value)
    assert main(["place", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert f"(field: {'.'.join(k for k in path if isinstance(k, str))})" in capsys.readouterr().err


@pytest.mark.parametrize("base,path,value,field", [
    ("example", ("params", "beta_t"), True, "beta_t"),
    ("example", ("seed",), True, "seed"),
    ("example", ("trials",), True, "trials"),
    ("example", ("horizon_M",), True, "horizon_M"),
    ("example", ("channel", "distance_m"), True, "distance_m"),
    ("mlp", ("network", "mlp", "neurons", 0), 64.7, "neurons"),
    ("mlp", ("network", "mlp", "neurons", 1), True, "neurons"),
    ("layers", ("channel", "atoms", 0, 1), True, "atoms"),
])
def test_a_boolean_or_a_fractional_width_is_a_named_config_error(tmp_path, capsys, base, path,
                                                                  value, field):
    # bool is an int in Python, and int() truncates: neither may pass as a number
    raw = _with(_SHAPE_BASES[base], path, value)
    with pytest.raises(ConfigError, match=field):
        load_config(raw)
    assert main(["place", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("neurons", ["6464", {"64": 1, "32": 2}, 64], ids=["string", "object", "number"])
def test_widths_that_are_not_a_list_are_a_network_error(tmp_path, capsys, neurons):
    # a string or an object iterates too: "6464" would plan widths (6, 4, 6, 4)
    raw = _with(_SHAPE_BASES["mlp"], ("network", "mlp", "neurons"), neurons)
    with pytest.raises(ConfigError, match="neurons") as err:
        load_config(raw)
    assert err.value.field == "network"
    assert main(["place", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert "(field: network)" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [{"variable": "distance_m", "values": [10, True]},
                                   {"variable": "updates_per_model", "values": [True]},
                                   {"variable": "M", "values": [True]}])
def test_a_boolean_sweep_value_is_a_config_error(tmp_path, capsys, sweep):
    raw = reference_config_dict(sweep=sweep)
    assert main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)]) == 2
    assert "(field: sweep.values)" in capsys.readouterr().err


_OVERRIDES = ["--updates", "inf", "--seed", "3", "--trials", "9", "--strategy", "hybrid"]


@pytest.mark.parametrize("flags", [[], _OVERRIDES], ids=["plain", "overrides"])
@pytest.mark.parametrize("doc", [[], 5, "x", None, reference_config_dict(params=5)])
def test_a_config_or_params_that_is_not_an_object_is_a_config_error(tmp_path, capsys, doc, flags):
    cfg = write_config(tmp_path, doc)
    assert main(["place", "--config", cfg, "--out", str(tmp_path), *flags]) == 2
    assert "must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "placement.csv").exists()


def test_load_config_takes_only_the_dict_of_a_json_document(tmp_path):
    for source in (json.dumps(reference_config_dict()), write_config(tmp_path, reference_config_dict())):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_config(source)


@pytest.mark.parametrize("bad", [NAN, INF, -5.0])
def test_bad_sweep_distance_fails_before_any_work(tmp_path, monkeypatch, capsys, bad):
    raw = reference_config_dict(sweep={"variable": "distance_m", "values": [20, bad, 100]})
    with pytest.raises(ConfigError) as err:
        load_config(raw)
    assert err.value.field == "sweep.values"
    cfg = write_config(tmp_path, raw)
    tables, build = [], TailTable.__init__
    monkeypatch.setattr(TailTable, "__init__", lambda self, *args: tables.append(args) or build(self, *args))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "sweep.values" in capsys.readouterr().err
    assert tables == []
    assert not (tmp_path / "sweep.csv").exists()


_TRUNC = {"kind": "truncated_exponential", "mean_snr": 0.58, "snr_floor_ratio": 1e-3}


@pytest.mark.parametrize("channel", [
    _TRUNC,
    [_TRUNC] * 9,
    [reference_config_dict()["channel"]] * 8 + [_TRUNC],
], ids=["shared", "list", "mixed_list"])
def test_distance_sweep_needs_pathloss_on_every_stage(tmp_path, capsys, channel):
    raw = reference_config_dict(channel=channel,
                                sweep={"variable": "distance_m", "values": [10, 100]})
    with pytest.raises(ConfigError) as err:
        load_config(raw)
    assert err.value.field == "channel.kind"
    cfg = write_config(tmp_path, raw)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "channel.kind" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_distance_sweep_over_pathloss_list_moves_every_stage(tmp_path):
    raw = reference_config_dict(channel=[reference_config_dict()["channel"]] * 9,
                                strategies=["optimal_exhaustive"],
                                sweep={"variable": "distance_m", "values": [10, 100]})
    cfg = load_config(raw)
    near, far = cfg.sweep.laws
    assert all(n.mean_snr > f.mean_snr for n, f in zip(near, far))
    assert main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 2 and rows[0][3] != rows[1][3]  # Z differs between distances


def test_infinite_updates_and_ceiling_stay_legal():
    cfg = load_config(_with(reference_config_dict(), ("params", "updates_per_model"), INF))
    assert cfg.params.updates_per_model == INF
    assert cfg.stage_dists(1)[0].quantile(1.0) == INF  # no SNR ceiling


@pytest.mark.parametrize("command,result", [
    ("thresholds", "thresholds.csv"),
    ("place", "placement.csv"),
    ("place", "placement.json"),
    ("sweep", "sweep.csv"),
])
def test_a_rerun_writes_the_same_bytes(tmp_path, command, result):
    """A second run in the process, on the cost models the first one cached,
    writes the first run's bytes."""
    raw = reference_config_dict(sweep={"variable": "distance_m", "values": [20, 60, 100]})
    cfg = write_config(tmp_path, raw)
    cost_model.cache_clear()
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    assert main([command, "--config", cfg, "--out", str(cold)]) == 0
    assert main([command, "--config", cfg, "--out", str(warm)]) == 0
    assert (cold / result).read_bytes() == (warm / result).read_bytes()


# -- thresholds command ----------------------------------------------------------

def test_cmd_thresholds_horizon_one_rules_agree(tmp_path):
    cfg = write_config(tmp_path, reference_config_dict(horizon_M=1))
    assert main(["thresholds", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "thresholds.csv")
    assert header == ["stage", "rule", "threshold_snr", "value_table"]
    by_rule = {}
    for stage, rule, t, _v in rows:
        if stage == "1":
            by_rule[rule] = float(t)
    assert by_rule["optimal"] == pytest.approx(by_rule["one_sla"], abs=1e-8)


def test_cmd_thresholds_equal_width_rows_constant(tmp_path):
    raw = reference_config_dict(network={"mlp": {
        "neurons": [128] * 9, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}})
    cfg = write_config(tmp_path, raw)
    assert main(["thresholds", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "thresholds.csv")
    sla = [float(t) for _s, rule, t, _v in rows if rule == "one_sla" and t]
    assert len(sla) == 8
    assert max(sla) - min(sla) <= 1e-10 * max(sla)


def test_cmd_thresholds_missing_field_exit_code(tmp_path, capsys):
    raw = reference_config_dict()
    del raw["params"]["noise_w"]
    cfg = write_config(tmp_path, raw)
    assert main(["thresholds", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "noise_w" in capsys.readouterr().err


@pytest.mark.parametrize("command,results", [("thresholds", ["thresholds.csv"]),
                                             ("simulate", ["sim.csv", "sim.json"])])
def test_horizon_zero_reads_one_stage_law(tmp_path, command, results):
    """At M = 0 only stage 1 is observed: a one-law list is enough, and a shared
    law, a one-law list and a longer list write the same results."""
    law = reference_config_dict()["channel"]
    written = []
    for name, channel in (("shared", law), ("one", [law]), ("two", [law, dict(law, distance_m=80)])):
        raw = reference_config_dict(horizon_M=0, channel=channel,
                                    strategies=["optimal_exhaustive", "one_sla_exhaustive"])
        out = tmp_path / name
        assert main([command, "--config", write_config(tmp_path, raw, f"{name}.json"),
                     "--out", str(out)]) == 0
        written.append([re.sub(r"(config_sha256\W+)[0-9a-f]{64}", r"\1", (out / r).read_text())
                        for r in results])
    assert written[0] == written[1] == written[2]


# -- place command -----------------------------------------------------------------

def test_cmd_place_outputs(tmp_path):
    cfg = write_config(tmp_path, reference_config_dict())
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 0
    meta, header, rows = read_csv(tmp_path / "placement.csv")
    assert header == ["strategy", "M", "Z", "expected_etc", "psi", "best"]
    assert meta["tool"] == "edgesplit"
    assert "config_sha256" in meta and "snr_floor" in meta
    strategies = {r[0] for r in rows}
    assert strategies == {"optimal_exhaustive", "one_sla_exhaustive", "hybrid"}
    assert len(rows) == 27
    doc = json.loads((tmp_path / "placement.json").read_text())
    assert {rep["strategy"] for rep in doc["reports"]} == strategies


def test_cmd_place_csv_rows_of_one_report(tmp_path):
    cfg = write_config(tmp_path, reference_config_dict(strategies=["optimal_exhaustive"]))
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 0
    csv_rows = [",".join(row) for row in read_csv(tmp_path / "placement.csv")[2]]
    assert len(csv_rows) == 9
    assert sum(row.endswith(",1") for row in csv_rows) == 1
    assert all(row.startswith("optimal_exhaustive,") for row in csv_rows)


def test_cmd_place_inf_updates_all_layers(tmp_path):
    raw = reference_config_dict()
    raw["params"]["updates_per_model"] = "inf"
    cfg = write_config(tmp_path, raw)
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "placement.csv")
    best = {r[0]: int(r[1]) for r in rows if r[5] == "1"}
    assert set(best.values()) == {8}


def test_cmd_place_updates_flag_override(tmp_path):
    cfg = write_config(tmp_path, reference_config_dict())
    assert main(["place", "--config", cfg, "--out", str(tmp_path), "--updates", "inf"]) == 0
    _, _, rows = read_csv(tmp_path / "placement.csv")
    best = {r[0]: int(r[1]) for r in rows if r[5] == "1"}
    assert set(best.values()) == {8}


def test_the_updates_flag_adds_no_params_to_a_config_without_them(tmp_path, capsys):
    """`--updates` sets the key of a `params` object that is there: a config
    without one still fails on the missing field, not on a key of an empty
    object made up for the override."""
    raw = reference_config_dict()
    del raw["params"]
    cfg = write_config(tmp_path, raw)
    assert main(["place", "--config", cfg, "--out", str(tmp_path), "--updates", "5"]) == 2
    assert "(field: params): missing required field 'params'" in capsys.readouterr().err
    assert not (tmp_path / "placement.csv").exists()


def test_config_sha256_hashes_the_config_as_the_flags_overrode_it(tmp_path):
    """config_sha256 is the SHA-256 of the sorted-key JSON of the config that
    ran: the file's document with `--seed` and `--updates` applied."""
    raw = reference_config_dict()
    cfg = write_config(tmp_path, raw)
    assert main(["place", "--config", cfg, "--out", str(tmp_path), "--seed", "11",
                 "--updates", "inf"]) == 0
    ran = dict(raw, seed=11, params=dict(raw["params"], updates_per_model="inf"))
    want = hashlib.sha256(json.dumps(ran, sort_keys=True).encode()).hexdigest()
    assert read_csv(tmp_path / "placement.csv")[0]["config_sha256"] == want
    assert json.loads((tmp_path / "placement.json").read_text())["metadata"]["config_sha256"] == want
    assert want != hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("text, value", [("5", 5), ("5.0", 5.0), ('"5"', "5"), ("inf", "inf")])
def test_the_updates_flag_writes_the_bytes_of_the_config_key(tmp_path, text, value):
    """`--updates TEXT` runs, and hashes, the config whose `updates_per_model`
    is the JSON value TEXT spells; text that is not JSON, as "inf", is the
    string a config holds."""
    raw = reference_config_dict()
    assert raw["params"]["updates_per_model"] != value
    flag, key = tmp_path / "flag", tmp_path / "key"
    assert main(["place", "--config", write_config(tmp_path, raw), "--out", str(flag),
                 "--updates", text]) == 0
    keyed = write_config(tmp_path, dict(raw, params=dict(raw["params"], updates_per_model=value)),
                         "keyed.json")
    assert main(["place", "--config", keyed, "--out", str(key)]) == 0
    for name in ("placement.csv", "placement.json"):
        assert (flag / name).read_bytes() == (key / name).read_bytes()


# `place` with CPython's builtin SHA-256 modules blocked, so that the CLI binds
# hashlib's; it prints the module its `sha256` came from.
_HASHLIB_PLACE = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from edgesplit import cli
assert cli.main(sys.argv[1:]) == 0
print(cli.sha256.__module__)
"""


def test_the_hashlib_fallback_writes_the_bytes_of_the_builtin_hash(tmp_path):
    """An interpreter without its builtin hash modules hashes through hashlib,
    and a `place` run there writes the same result files, SHA-256 fields
    included, as one through the builtin module."""
    cfg = write_config(tmp_path, reference_config_dict())
    builtin, fallback = tmp_path / "builtin", tmp_path / "fallback"
    assert main(["place", "--config", cfg, "--out", str(builtin)]) == 0
    assert cli.sha256.__module__ in ("_sha2", "_sha256")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _HASHLIB_PLACE, "place", "--config", cfg,
                           "--out", str(fallback)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "_hashlib"
    names = sorted(os.listdir(builtin))
    assert names == sorted(os.listdir(fallback)) == ["placement.csv", "placement.json"]
    for name in names:
        assert (fallback / name).read_bytes() == (builtin / name).read_bytes(), name


def test_cmd_place_closed_form_on_non_mlp_errors(tmp_path, capsys):
    raw = reference_config_dict(network={
        "layers": [{"workload_cycles": 1e6, "input_bits": 4096, "download_seconds": 0.01}],
        "exit_input_bits": 1024,
    }, strategies=["mlp_closed_form"])
    cfg = write_config(tmp_path, raw)
    code = main(["place", "--config", cfg, "--out", str(tmp_path)])
    assert code in (2, 3)
    assert code == 2  # reported as an unsupported-strategy config problem


def test_cmd_place_closed_form_on_unequal_mlp_errors(tmp_path):
    cfg = write_config(tmp_path, reference_config_dict(strategies=["mlp_closed_form"]))
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_cmd_place_closed_form_on_equal_mlp(tmp_path):
    raw = reference_config_dict(network={"mlp": {
        "neurons": [128] * 9, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}},
        strategies=["mlp_closed_form", "one_sla_exhaustive"])
    cfg = write_config(tmp_path, raw)
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "placement.csv")
    best = {r[0]: int(r[1]) for r in rows if r[5] == "1"}
    assert best["mlp_closed_form"] == best["one_sla_exhaustive"]


_MLP6 = {"mlp": {"neurons": [128] * 7, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}
_ALL_STRATEGIES = ["optimal_exhaustive", "one_sla_exhaustive", "mlp_closed_form", "hybrid"]


@pytest.mark.parametrize("command, flags", [("place", ["--strategy", "hybrid"]),
                                            ("simulate", ["--strategy", "one_sla_exhaustive"])])
def test_a_shorter_rerun_into_one_directory_leaves_the_bytes_of_a_fresh_run(tmp_path, command,
                                                                            flags):
    """A shorter result written over a longer one leaves no stale tail, and a
    rewritten file keeps its mode."""
    strategies = _ALL_STRATEGIES if command == "place" else _ALL_STRATEGIES[:2]
    cfg = write_config(tmp_path, reference_config_dict(network=_MLP6, strategies=strategies,
                                                       trials=2000))
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert main([command, "--config", cfg, "--out", str(shared)]) == 0
    first = {p.name: p.read_bytes() for p in shared.iterdir()}
    for p in shared.iterdir():
        p.chmod(0o600)
    assert main([command, "--config", cfg, "--out", str(shared), *flags]) == 0
    assert main([command, "--config", cfg, "--out", str(fresh), *flags]) == 0
    rerun = {p.name: p.read_bytes() for p in shared.iterdir()}
    assert rerun == {p.name: p.read_bytes() for p in fresh.iterdir()}
    assert set(rerun) == set(first) and all(len(rerun[n]) < len(first[n]) for n in rerun)
    assert {p.stat().st_mode & 0o777 for p in shared.iterdir()} == {0o600}


def test_an_out_that_names_a_file_is_an_out_error(tmp_path, capsys):
    """`--out` naming a file, or a path under one, exits 2 naming `--out` and
    writes nothing."""
    cfg = write_config(tmp_path, reference_config_dict())
    taken = tmp_path / "afile"
    taken.write_text("kept\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    for out in (taken, taken / "x"):
        assert main(["place", "--config", cfg, "--out", str(out)]) == 2
        assert "config error (field: --out)" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert taken.read_text() == "kept\n"


# a result file: the command that writes it, and the result files written before it
_WRITTEN_BEFORE = {"thresholds.csv": ("thresholds", []), "placement.json": ("place", ["placement.csv"]),
                   "sim.csv": ("simulate", ["sim.json"])}


@pytest.mark.parametrize("blocked", list(_WRITTEN_BEFORE))
def test_a_result_file_that_cannot_be_written_is_an_out_error(tmp_path, capsys, blocked):
    """A directory where a result file goes exits 2 naming `--out`; the result
    files written before it stay."""
    command, written = _WRITTEN_BEFORE[blocked]
    raw = reference_config_dict(trials=2000, strategies=["optimal_exhaustive", "one_sla_exhaustive"])
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([command, "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
    assert "config error (field: --out)" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == written


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_a_new_result_file_gets_the_mode_of_open_w(tmp_path, umask):
    old = os.umask(umask)
    try:
        cli._write_text(tmp_path / "new.csv", "a,b\n\u00e9\n")
        with open(tmp_path / "reference.csv", "w", encoding="utf-8") as fh:
            fh.write("a,b\n\u00e9\n")
    finally:
        os.umask(old)
    new, reference = (tmp_path / "new.csv").stat(), (tmp_path / "reference.csv").stat()
    assert new.st_mode == reference.st_mode == 0o100666 & ~umask
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_closed_form_on_per_stage_laws_is_a_strategies_error(tmp_path, capsys):
    pathloss = reference_config_dict()["channel"]
    laws = [pathloss, dict(pathloss, distance_m=80)] * 3
    raw = reference_config_dict(
        network={"mlp": {"neurons": [64] * 6, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}},
        channel=laws, strategies=["one_sla_exhaustive", "mlp_closed_form"])
    assert main(["place", "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "place")]) == 2
    assert "(field: strategies)" in capsys.readouterr().err
    assert not (tmp_path / "place" / "placement.csv").exists()
    # a distance sweep moves every stage to the swept distance: one law per point
    sweep = {"variable": "distance_m", "values": [20, 80]}
    argv = ["sweep", "--config", write_config(tmp_path, dict(raw, sweep=sweep), "sweep.json"),
            "--out", str(tmp_path / "sweep")]
    assert main(argv) == 0
    # unless the stages differ in more than their distance
    laws[1] = dict(laws[1], exponent=2)
    argv[2] = write_config(tmp_path, dict(raw, channel=laws, sweep=sweep), "exponent.json")
    assert main(argv) == 2
    assert "(field: strategies)" in capsys.readouterr().err
    # one law listed once per stage is one shared law
    raw["channel"] = [pathloss] * 6
    assert main(["place", "--config", write_config(tmp_path, raw, "shared.json"),
                 "--out", str(tmp_path / "shared")]) == 0
    _, _, rows = read_csv(tmp_path / "shared" / "placement.csv")
    best = {r[0]: int(r[1]) for r in rows if r[5] == "1"}
    assert best["mlp_closed_form"] == best["one_sla_exhaustive"]


@pytest.mark.parametrize("distance", [0.5, 1.0, 2.5, 5.0])
def test_cmd_place_closed_form_on_a_short_link(tmp_path, distance):
    # so short that the channel always clears the shared 1-sla threshold
    raw = reference_config_dict(
        network={"mlp": {"neurons": [64] * 13, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}},
        strategies=["optimal_exhaustive", "one_sla_exhaustive", "mlp_closed_form", "hybrid"])
    raw["channel"]["distance_m"] = distance
    cfg = write_config(tmp_path, raw)
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 0
    reports = {rep["strategy"]: rep for rep in
               json.loads((tmp_path / "placement.json").read_text())["reports"]}
    best_z = {s: next(r["Z"] for r in rep["rows"] if r["M"] == rep["best_M"])
              for s, rep in reports.items()}
    assert best_z["mlp_closed_form"] == best_z["one_sla_exhaustive"]
    diag = reports["mlp_closed_form"]["diagnostics"]
    assert diag["branch"] == "no_layers" and diag["g_simplified"] is None


_MLP12 = {"mlp": {"neurons": [64] * 13, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}


def _non_finite_numbers(node, key=None):
    """Paths of the non-finite numbers in a result document; the writer
    spells them "inf", "-inf" and "nan". A +inf threshold (never stop at
    that stage) is a legal policy value."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _non_finite_numbers(v, k)]
    if isinstance(node, list):
        return [p for v in node for p in _non_finite_numbers(v, key)]
    if node in ("inf", "-inf", "nan") and not (key == "thresholds" and node == "inf"):
        return [key]
    return []


@settings(max_examples=60)
@given(log_distance=st.floats(-2.0, 7.0), k=st.sampled_from([10, 50, 200, "inf"]),
       network=st.sampled_from(["autoencoder", "alexnet", "mlp12"]))
def test_cmd_place_at_extreme_distances_writes_only_finite_costs(tmp_path_factory, log_distance,
                                                                 k, network):
    tmp_path = tmp_path_factory.mktemp("extreme")
    strategies = ["optimal_exhaustive", "one_sla_exhaustive", "hybrid"]
    if network == "mlp12":
        network, strategies = _MLP12, strategies + ["mlp_closed_form"]
    raw = reference_config_dict(network=network, strategies=strategies)
    raw["params"]["updates_per_model"] = k
    raw["channel"]["distance_m"] = 10.0**log_distance
    code = main(["place", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)])
    assert code in (0, 3)
    if code == 3:
        assert not (tmp_path / "placement.csv").exists()
        return
    doc = json.loads((tmp_path / "placement.json").read_text())
    assert _non_finite_numbers(doc) == []
    for rep in doc["reports"]:
        assert all("error" not in row and math.isfinite(row["Z"]) for row in rep["rows"])
    _, _, rows = read_csv(tmp_path / "placement.csv")
    assert all(math.isfinite(float(x)) for row in rows for x in row[1:])


# -- sweep command -----------------------------------------------------------------

def test_cmd_sweep_distance_monotone(tmp_path):
    raw = reference_config_dict(sweep={"variable": "distance_m",
                                       "values": [10, 30, 50, 70, 90]})
    cfg = write_config(tmp_path, raw)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["axis_value", "strategy", "best_M", "Z", "expected_etc", "optimality_prob"]
    for strategy in ("optimal_exhaustive", "one_sla_exhaustive", "hybrid"):
        ms = [int(r[2]) for r in rows if r[1] == strategy]
        assert len(ms) == 5
        assert all(a <= b for a, b in zip(ms, ms[1:]))


def test_cmd_sweep_m_axis(tmp_path):
    raw = reference_config_dict(
        strategies=["optimal_exhaustive", "one_sla_exhaustive"],
        sweep={"variable": "M", "values": list(range(9))})
    raw["params"]["updates_per_model"] = "inf"
    cfg = write_config(tmp_path, raw)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "sweep.csv")
    for strategy in ("optimal_exhaustive", "one_sla_exhaustive"):
        zs = [float(r[3]) for r in rows if r[1] == strategy]
        assert len(zs) == 9
        assert all(a >= b - 1e-12 for a, b in zip(zs, zs[1:]))
    probs = [float(r[5]) for r in rows if r[1] == "one_sla_exhaustive"]
    assert probs[1] == pytest.approx(1.0, abs=1e-12)  # M = 1
    assert all(a >= b - 1e-12 for a, b in zip(probs[1:], probs[2:]))


@pytest.mark.parametrize("values", [list(range(9)), [6, 0, 3]])
def test_cmd_sweep_m_axis_reads_the_placement_rows(tmp_path, values):
    strategies = ["optimal_exhaustive", "one_sla_exhaustive"]
    raw = reference_config_dict(strategies=strategies, sweep={"variable": "M", "values": values})
    cfg = write_config(tmp_path, raw)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, sweep = read_csv(tmp_path / "sweep.csv")
    _, _, place = read_csv(tmp_path / "placement.csv")
    placed = {(r[0], int(r[1])): r[2:4] for r in place}
    assert [(int(r[0]), r[1]) for r in sweep] == [(M, s) for M in values for s in strategies]
    for r in sweep:
        assert r[3:5] == placed[r[1], int(r[0])]


@settings(max_examples=40)
@given(network=st.sampled_from(["autoencoder", "alexnet"]), distance=st.floats(10.0, 150.0),
       updates=st.sampled_from([10, 50, "inf"]), data=st.data())
def test_cmd_simulate_analytic_means_read_the_placement_rows(network, distance, updates, data):
    """`simulate`'s analytic mean at horizon_M is `place`'s expected_etc at that
    M for the same rule: the same stage table for 1-sla, and for the optimal
    rule the stage table against the value table, which agree to rounding."""
    base = reference_config_dict()
    raw = reference_config_dict(network=network, strategies=["optimal_exhaustive", "one_sla_exhaustive"],
                                params=dict(base["params"], updates_per_model=updates),
                                channel=dict(base["channel"], distance_m=distance), trials=2)
    raw["horizon_M"] = M = data.draw(st.integers(0, load_config(raw).network.N), label="horizon_M")
    cfg = load_config(raw)
    _, placed = cli.cmd_place(cfg)
    _, simulated = cli.cmd_simulate(cfg)
    rows = {rep["strategy"]: rep["rows"][M] for rep in json.loads(placed["placement.json"])["reports"]}
    means = {e["rule"]: e["analytic_mean_etc"] for e in json.loads(simulated["sim.json"])["results"]}
    assert rows["optimal_exhaustive"]["M"] == rows["one_sla_exhaustive"]["M"] == M
    assert means["one_sla"] == rows["one_sla_exhaustive"]["expected_etc"]
    assert math.isclose(means["optimal"], rows["optimal_exhaustive"]["expected_etc"], rel_tol=1e-13,
                        abs_tol=0.0)


_PER_STAGE = [{"kind": "truncated_exponential", "mean_snr": 0.5 + 0.1 * n} for n in range(9)]


def _fail_the_stage_4_tail(monkeypatch):
    """Make every tail read of the stage-4 law raise, as a quadrature that
    does not converge would."""
    original = TailTable.tails

    def stage_4_tail_fails(table, thresholds):
        if table.dist.mean_snr == _PER_STAGE[3]["mean_snr"] and any(t > 0.0 for t in thresholds):
            raise NumericalError("stage 4 tail failed", estimate=1.0)
        return original(table, thresholds)

    monkeypatch.setattr(TailTable, "tails", stage_4_tail_fails)


@pytest.mark.parametrize("values", [[0, 1, 3], [2, 5]])
def test_cmd_sweep_m_axis_fails_on_a_listed_row_that_failed(tmp_path, monkeypatch, capsys, values):
    raw = reference_config_dict(channel=_PER_STAGE, strategies=["one_sla_exhaustive"],
                                sweep={"variable": "M", "values": values})
    _fail_the_stage_4_tail(monkeypatch)
    cfg = write_config(tmp_path, raw)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "stage 4 tail failed" in err and "estimate 1.0" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("strategies", [["optimal_exhaustive"], ["one_sla_exhaustive"], ["hybrid"],
                                        ["optimal_exhaustive", "one_sla_exhaustive", "hybrid"]])
def test_cmd_place_fails_whole_on_a_failing_stage_tail(tmp_path, monkeypatch, capsys, strategies):
    raw = reference_config_dict(channel=_PER_STAGE, strategies=strategies)
    _fail_the_stage_4_tail(monkeypatch)
    cfg = write_config(tmp_path, raw)
    assert main(["place", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "stage 4 tail failed" in err and "estimate 1.0" in err
    assert not any(tmp_path.glob("placement.*"))


def test_cmd_sweep_updates_axis(tmp_path):
    raw = reference_config_dict(sweep={"variable": "updates_per_model",
                                       "values": [10, 50, 100, "inf"]},
                                strategies=["one_sla_exhaustive"])
    cfg = write_config(tmp_path, raw)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "sweep.csv")
    ms = [int(r[2]) for r in rows]
    assert all(a <= b for a, b in zip(ms, ms[1:]))
    assert ms[-1] == 8


def test_cmd_sweep_requires_section(tmp_path):
    cfg = write_config(tmp_path, reference_config_dict())
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_cmd_sweep_m_axis_rejects_hybrid(tmp_path):
    raw = reference_config_dict(sweep={"variable": "M", "values": [1, 2]},
                                strategies=["hybrid"])
    cfg = write_config(tmp_path, raw)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


# -- simulate command ------------------------------------------------------------------

def test_cmd_simulate_outputs_and_determinism(tmp_path):
    raw = reference_config_dict(strategies=["optimal_exhaustive", "one_sla_exhaustive"],
                                trials=20000, seed=7)
    cfg = write_config(tmp_path, raw)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sim.json").read_bytes() == (out2 / "sim.json").read_bytes()
    assert (out1 / "sim.csv").read_bytes() == (out2 / "sim.csv").read_bytes()
    doc = json.loads((out1 / "sim.json").read_text())
    assert doc["all_checks_passed"] is True
    assert {r["rule"] for r in doc["results"]} == {"optimal", "one_sla"}
    for r in doc["results"]:
        assert r["checks"]["mean_within_3_sigma"]
        assert r["checks"]["histogram_within_3_sigma"]
    _, _, rows = read_csv(out1 / "sim.csv")
    assert len(rows) == 18  # 9 stages x 2 rules


def test_sim_json_echoes_the_config(tmp_path):
    raw = reference_config_dict(strategies=["optimal_exhaustive"], horizon_M=2, trials=1000, seed=4)
    assert main(["simulate", "--config", write_config(tmp_path, raw), "--out", str(tmp_path)]) == 0
    (entry,) = json.loads((tmp_path / "sim.json").read_text())["results"]
    network = load_config(raw).network.to_json_dict()
    want = hashlib.sha256(json.dumps(network, sort_keys=True).encode()).hexdigest()
    assert entry["network_sha256"] == want
    assert entry["seed"] == 4
    assert entry["rng_algorithm"] == "numpy-pcg64"
    assert len(entry["stage_distributions"]) == 3
    assert entry["policy"]["horizon_M"] == 2


def test_cmd_simulate_trials_zero_rejected(tmp_path):
    raw = reference_config_dict(trials=0)
    cfg = write_config(tmp_path, raw)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_trials_above_the_cap_are_a_trials_error(tmp_path, capsys):
    # simulate draws about 1e7 trials a second: 1e18 would never end
    assert load_config(reference_config_dict(trials=MAX_TRIALS)).trials == MAX_TRIALS
    for trials in (MAX_TRIALS + 1, 1e18):
        with pytest.raises(ConfigError) as err:
            load_config(reference_config_dict(trials=trials))
        assert err.value.field == "trials"
    cfg = write_config(tmp_path, reference_config_dict(trials=1e18))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "config")]) == 2
    assert "(field: trials)" in capsys.readouterr().err
    assert not (tmp_path / "config" / "sim.csv").exists()
    cfg = write_config(tmp_path, reference_config_dict(), "flag.json")
    for command in ("simulate", "place"):
        argv = [command, "--config", cfg, "--out", str(tmp_path / command), "--trials", str(MAX_TRIALS + 1)]
        assert main(argv) == 2
        assert "(field: trials)" in capsys.readouterr().err


def test_cmd_simulate_seed_flag_changes_output(tmp_path):
    raw = reference_config_dict(strategies=["one_sla_exhaustive"], trials=5000)
    cfg = write_config(tmp_path, raw)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
    a = json.loads((out1 / "sim.json").read_text())
    b = json.loads((out2 / "sim.json").read_text())
    assert a["results"][0]["mean_etc"] != b["results"][0]["mean_etc"]


def test_cmd_simulate_rejects_a_null_seed(tmp_path, capsys):
    # numpy would seed itself from OS entropy, so no two runs would write the same
    # bytes; the commands that draw nothing still take a null seed
    raw = reference_config_dict(strategies=["optimal_exhaustive"], trials=100, seed=None)
    cfg = write_config(tmp_path, raw)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert "(field: seed)" in capsys.readouterr().err
    assert not (tmp_path / "sim" / "sim.csv").exists()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "flag"), "--seed", "3"]) == 0
    for command in ("place", "thresholds"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    swept = write_config(tmp_path, dict(raw, sweep={"variable": "M", "values": [1, 2]}), "sweep.json")
    assert main(["sweep", "--config", swept, "--out", str(tmp_path / "sweep")]) == 0
    assert "# seed=None" in (tmp_path / "place" / "placement.csv").read_text()


# The draws stay true while the analytic side is moved: at seed 3 and 20,000
# trials both rules pass unpatched (mean within 0.6 sigma, every bin within
# 1.3 sigma), and each patch below puts one check's worst miss between 3 and 6
# sigma, so a verdict read at 6 sigma, or an exit 0 on a miss, fails the test.
_MISS_CONFIG = {"strategies": ["optimal_exhaustive", "one_sla_exhaustive"], "trials": 20000, "seed": 3}


def _simulate_with_analytic(tmp_path, monkeypatch, table):
    """Exit code and sim.json of `simulate` with `Problem.stage_table` replaced."""
    monkeypatch.setattr(Problem, "stage_table", table)
    cfg = write_config(tmp_path, reference_config_dict(**_MISS_CONFIG))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    return rc, json.loads((tmp_path / "sim.json").read_text())


def test_a_mean_miss_exits_4(tmp_path, monkeypatch):
    # stop costs 1.5% high move the analytic mean 4.6 and 4.5 sigma off the draws
    stage_table = Problem.stage_table

    def costlier(self, policy):
        t = stage_table(self, policy)
        return StageTable(t.continue_prob, t.reach, t.stop_prob, [c * 1.015 for c in t.stop_cost])

    rc, doc = _simulate_with_analytic(tmp_path, monkeypatch, costlier)
    assert rc == 4 and doc["all_checks_passed"] is False
    for r in doc["results"]:
        assert 3 < -r["mean_delta"] / r["std_error"] < 6
        assert r["checks"] == {"mean_within_3_sigma": False, "histogram_within_3_sigma": True}


def test_a_histogram_miss_exits_4(tmp_path, monkeypatch):
    # the stop probabilities of thresholds 5% higher miss a bin by 4.5 and 3.9 sigma
    stage_table = Problem.stage_table

    def higher(self, policy):
        moved = [t * 1.05 for t in policy.thresholds]
        return stage_table(self, ThresholdPolicy(policy.rule_kind, policy.horizon_M, moved))

    rc, doc = _simulate_with_analytic(tmp_path, monkeypatch, higher)
    assert rc == 4 and doc["all_checks_passed"] is False
    for r in doc["results"]:
        n = r["trials"]
        misses = [(abs(f - p) - 1.0 / n) / math.sqrt(p * (1.0 - p) / n)
                  for f, p in zip(r["stop_histogram"], r["analytic_stop_probabilities"]) if 0 < p < 1]
        assert 3 < max(misses) < 6
        assert r["checks"] == {"mean_within_3_sigma": True, "histogram_within_3_sigma": False}


def test_main_twice_in_one_process_with_different_flags(tmp_path):
    cfg = write_config(tmp_path, reference_config_dict())
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["place", "--config", cfg, "--out", str(first), "--updates", "inf",
                 "--strategy", "hybrid", "--strategy", "one_sla_exhaustive"]) == 0
    assert main(["place", "--config", cfg, "--out", str(second)]) == 0
    _, _, rows = read_csv(first / "placement.csv")
    assert [r[0] for r in rows] == ["hybrid"] * 9 + ["one_sla_exhaustive"] * 9
    assert {r[1] for r in rows if r[5] == "1"} == {"8"}
    _, _, rows = read_csv(second / "placement.csv")
    assert {r[0] for r in rows} == {"optimal_exhaustive", "one_sla_exhaustive", "hybrid"}
    assert {r[4] for r in rows if r[1] == "8"} != {"0"}  # finite K: psi(8) > 0


def test_missing_config_file_exit_code(tmp_path):
    assert main(["place", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def _unreadable_config(tmp_path, case):
    """A --config path that cannot be read as a JSON document."""
    path = tmp_path / "cfg.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(json.dumps(reference_config_dict()).encode("utf-16"))
    elif case == "invalid-json":
        path.write_text('{"network": "autoencoder",', encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "invalid-json"])
def test_an_unreadable_config_is_a_config_error_naming_it(tmp_path, capsys, case):
    out = tmp_path / "out"
    assert main(["place", "--config", _unreadable_config(tmp_path, case), "--out", str(out)]) == 2
    assert "(field: --config)" in capsys.readouterr().err
    assert not out.exists()


# -- the JSON emitter -----------------------------------------------------------

def _reference_json(obj):
    """The encoder the emitter replaced: non-finite floats made strings, then
    `json.dumps` with indent 2 and sorted keys."""
    def jsonable(x):
        if isinstance(x, dict):
            return {k: jsonable(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [jsonable(v) for v in x]
        if isinstance(x, float) and not math.isfinite(x):
            return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
        return x
    return json.dumps(jsonable(obj), indent=2, sort_keys=True)


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 1e16, 0.1,
                   math.inf, -math.inf, math.nan]
_STRINGS = st.one_of(st.text(max_size=8),
                     st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "é\u00ff", "\U0001f600",
                                      "a\"b\\c\nd\te", ""]))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**100, 2**100),
    st.floats(), st.sampled_from(_SPECIAL_FLOATS),
    st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)).map(np.float64),
    _STRINGS,
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_STRINGS, kids, max_size=4)),
    max_leaves=40)


@settings(max_examples=150)
@given(tree=_TREES)
@example(tree={"floats": _SPECIAL_FLOATS + [np.float64(x) for x in _SPECIAL_FLOATS],
               "nested": ({}, [], (), [[{}]], {"": None, "b": True, "a": False}),
               "ints": [0, -1, 2**64, -(2**100)], "strings": ['"', "\\", "\x00", "é", "\U0001f600"]})
def test_json_emitter_writes_the_bytes_of_json_dumps(tree):
    assert cli._json(tree) == _reference_json(tree)


def test_json_emitter_on_a_placement_payload(tmp_path):
    cfg = load_config(reference_config_dict())
    dists = cfg.stage_dists(cfg.network.N + 1)
    payload = {"metadata": cli._metadata(cfg),
               "reports": [cli.run_strategy(s, cfg.network, cfg.params, dists).to_json_dict()
                           for s in cfg.strategies]}
    assert cli._json(payload) == _reference_json(payload)
    cli._write_text(tmp_path / "p.json", cli._json(payload) + "\n")
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == _reference_json(payload) + "\n"


def test_json_emitter_rejects_what_json_rejects():
    for bad in (np.int64(3), [np.bool_(True)], {"k": object()}):
        with pytest.raises(TypeError):
            cli._json(bad)
        with pytest.raises(TypeError):
            _reference_json(bad)
