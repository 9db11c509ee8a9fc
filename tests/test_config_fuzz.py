"""Structural fuzzing of the config boundary.

Mutants of valid configs (one or two edits, each a node replaced, a key
deleted or a key added), with or without the command-line overrides, run
through every CLI command. Each ends in a defined exit code, never in a
traceback; each exit 2 names a field under a top-level key of the format;
and no command that exits 0 writes a NaN cost or threshold.
"""
import contextlib
import io
import json
import math
import re
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesplit.cli import main
from edgesplit.placement import STRATEGIES

from conftest import reference_config_dict

EXAMPLE = json.loads((Path(__file__).resolve().parent.parent / "configs" / "autoencoder_d50.json")
                     .read_text(encoding="utf-8"))
PATHLOSS = EXAMPLE["channel"]
LAYER = {"workload_cycles": 2e6, "input_bits": 4096, "download_seconds": 0.01}
NETWORKS = {
    "example": EXAMPLE,
    "mlp": reference_config_dict(
        network={"mlp": {"neurons": [64, 64, 64], "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}},
        channel={"kind": "truncated_exponential", "mean_snr": 0.6, "snr_floor_ratio": 1e-3},
        strategies=["optimal_exhaustive", "mlp_closed_form"], horizon_M=2),
    # two laws across the stages: the closed form applies only where one law is shared
    "mlp_per_stage": reference_config_dict(
        network={"mlp": {"neurons": [64] * 6, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}},
        channel=[PATHLOSS, dict(PATHLOSS, distance_m=80)] * 3,
        strategies=["optimal_exhaustive", "mlp_closed_form"], horizon_M=2),
    "layers": reference_config_dict(
        network={"layers": [LAYER, dict(LAYER, input_bits=2048)], "exit_input_bits": 1024},
        channel={"kind": "discrete", "atoms": [[0.5, 0.5], [2.0, 0.5]]},
        strategies=["one_sla_exhaustive", "optimal_exhaustive"]),
    "per_stage": reference_config_dict(
        network={"layers": [LAYER, dict(LAYER, input_bits=2048)], "exit_input_bits": 1024},
        channel=[PATHLOSS, {"kind": "discrete", "atoms": [[0.2, 0.5], [3.0, 0.5]]},
                 {"kind": "truncated_exponential", "mean_snr": 0.4}],
        strategies=["optimal_exhaustive", "one_sla_exhaustive"]),
}
SWEEPS = {
    "distance_m": {"variable": "distance_m", "values": [20, 80]},
    "updates_per_model": {"variable": "updates_per_model", "values": [10, "inf"]},
    "M": {"variable": "M", "values": [0, 2]},
}
BASES = {name: cfg for name, cfg in NETWORKS.items()}
BASES.update({f"{name}/{axis}": dict(cfg, sweep=sweep)
              for name, cfg in NETWORKS.items() for axis, sweep in SWEEPS.items()})

TOP_LEVEL_KEYS = {"network", "params", "channel", "horizon_M", "sweep", "strategies", "trials", "seed"}
KEYS = sorted(TOP_LEVEL_KEYS | {key for cfg in BASES.values() for key in cfg["params"]} | {
    "mlp", "layers", "exit_input_bits", "neurons", "lambda_bytes", "mu_bytes", "alpha",
    "downlink_bps", "kind", "mean_snr", "snr_floor_ratio", "distance_m", "atoms",
    "variable", "values", *LAYER, "unknown_key"})
COMMANDS = ("thresholds", "place", "sweep", "simulate")
# the columns, per result file, that hold a cost or a threshold
CHECKED = {"thresholds.csv": ("threshold_snr", "value_table"),
           "placement.csv": ("Z", "expected_etc"), "sweep.csv": ("Z", "expected_etc")}
DELETE = object()  # the value of a mutant that deletes the node at its path

NUMBERS = st.sampled_from([
    0, -1, 1, 2, 0.5, 1.5, 64.7, 1e-300, 5e-324, 1e290, 1e305, 1e308, -1e308, 2.0**60, 2.0**70,
    10**400, math.nan, math.inf, -math.inf])
VALUES = NUMBERS | st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.sampled_from(["inf", "x", "", "1e3"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=4)


def _paths(node, path=()):
    """The path (keys and list indices) of every node inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# the command-line overrides; --seed and --trials take integers at the parser
OVERRIDES = {
    "--updates": st.sampled_from(["inf", "10", "0", "-1", "2.5", "nan", "x", "1e400", ""]),
    "--seed": st.sampled_from(["0", "3", "-1", str(2**70)]),
    "--trials": st.sampled_from(["0", "-5", "1", "50", str(10**10)]),
    "--strategy": st.sampled_from([*STRATEGIES, "gradient_descent"]),
}


@st.composite
def _edit(draw, doc):
    """A path in `doc` and the new value there (or DELETE)."""
    how = draw(st.sampled_from(["replace", "delete", "add"]))
    if how == "add":
        objects = [()] + [p for p in _paths(doc) if isinstance(_node(doc, p), dict)]
        return draw(st.sampled_from(objects)) + (draw(st.sampled_from(KEYS)),), draw(VALUES)
    paths = list(_paths(doc))
    if how == "delete":
        paths = [p for p in paths if isinstance(p[-1], str)]
    return draw(st.sampled_from(paths)), DELETE if how == "delete" else draw(VALUES)


@st.composite
def mutants(draw):
    """A base config name, one or two edits of it, and command-line flags."""
    base = draw(st.sampled_from(sorted(BASES)))
    doc, edits = BASES[base], []
    for _ in range(draw(st.integers(1, 2))):
        edits.append(draw(_edit(doc)))
        doc = _apply(doc, *edits[-1])
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(OVERRIDES)), max_size=2, unique=True)):
        flags += [flag, draw(OVERRIDES[flag])]
    return base, tuple(edits), tuple(flags)


def one(base, path, value):
    """The case of a single edit and no flags."""
    return base, ((path, value),), ()


def _apply(doc, path, value):
    """A copy of `doc` with the node at `path` set to `value`, or deleted."""
    doc = json.loads(json.dumps(doc))
    parent = _node(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutate(base, edits):
    doc = BASES[base]
    for path, value in edits:
        doc = _apply(doc, path, value)
    return doc


def _checked_values(path: Path):
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    columns = [header.index(c) for c in CHECKED[path.name]]
    return [row.split(",")[i] for row in lines[1:] for i in columns]


@settings(max_examples=500)
@given(case=mutants())
@example(case=one("layers", ("network", "layers", 0, "download_seconds"), DELETE))
@example(case=one("example", ("params", "kappa"), 1e290))
@example(case=one("example", ("params", "kappa"), 1e308))
@example(case=one("example", ("params", "beta_e"), 1e308))
@example(case=one("example", ("params", "beta_t"), 1e305))
@example(case=one("layers", ("network", "layers"), [dict(LAYER, download_seconds=1e308)] * 3))
@example(case=one("example", ("channel", "snr_floor_ratio"), 2.0**21))
@example(case=one("example", ("channel", "snr_floor_ratio"), 2.0**60))
@example(case=one("example", ("channel", "snr_floor_ratio"), 2.0**70))
@example(case=one("example", ("params", "local_freq_hz"), 1e200))
@example(case=one("example", ("channel", "distance_m"), 1e-300))
@example(case=one("example", ("params", "noise_w"), 10**400))
@example(case=one("mlp", ("network", "mlp", "neurons", 1), 10**400))
@example(case=one("per_stage", ("seed",), -1))
@example(case=one("mlp_per_stage", ("channel", 1, "distance_m"), 120))
@example(case=one("mlp_per_stage/distance_m", ("channel", 1, "exponent"), 2))
@example(case=one("mlp", ("network", "mlp", "neurons"), "6464"))
@example(case=one("mlp", ("network", "mlp", "neurons"), {"64": 1, "32": 2}))
@example(case=one("layers", ("params", "bandwidth_hz"), 5e-324))  # 1/R of an atom divided by 0
def test_a_mutated_config_never_ends_in_a_traceback(tmp_path_factory, case):
    base, edits, flags = case
    tmp_path = tmp_path_factory.mktemp("fuzz")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(mutate(base, edits)), encoding="utf-8")
    for command in COMMANDS:
        out = tmp_path / command
        argv = [command, "--config", str(config), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + (["--trials", "200"] if command == "simulate" else []) + list(flags))
        assert code in (0, 2, 3, 4), (command, code)
        if code == 2:
            field = re.search(r"\(field: ([^)]+)\)", err.getvalue())
            assert field and field.group(1).split(".")[0] in TOP_LEVEL_KEYS, (command, err.getvalue())
        if code == 0:
            for path in out.glob("*.csv"):
                if path.name in CHECKED:
                    assert "nan" not in _checked_values(path), (command, path.name)


def _run(tmp_path, command, raw):
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config), "--out", str(tmp_path / command)])
    return code, err.getvalue()


def test_a_floor_whose_tail_cutoff_rounds_onto_it_is_a_channel_error(tmp_path):
    # the fixed rule resolves a floor of up to 2**20 means, so that plans; 2**21,
    # 2**58 (where the rule's E[1/R] is off 21 times) and 2**60 (where the tail
    # cutoff rounds onto the floor) are channel errors
    for command, result in (("place", "placement.csv"), ("thresholds", "thresholds.csv")):
        code, _ = _run(tmp_path, command, mutate(*one("example", ("channel", "snr_floor_ratio"), 2.0**20)[:2]))
        assert code == 0
        assert "nan" not in _checked_values(tmp_path / command / result)
        for ratio in (2.0**21, 2.0**58, 2.0**60):
            code, err = _run(tmp_path, command, mutate(*one("example", ("channel", "snr_floor_ratio"), ratio)[:2]))
            assert code == 2 and "(field: channel)" in err and "floor" in err
