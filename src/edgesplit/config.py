"""Experiment configuration: one JSON document describing network, radio
constants, channel law, strategies and run controls.

Shape:
    {
      "network": "autoencoder" | "alexnet" | {"mlp": {...}} | {"layers": [...], ...},
      "params": { ... SystemParams fields, "updates_per_model": 50 | "inf" ... },
      "channel": {...} | [{...}, ...],          # shared or per-stage law
      "horizon_M": 8,                            # optional, defaults to N
      "sweep": {"variable": "distance_m", "values": [...]},   # optional
      "strategies": ["optimal_exhaustive", ...], # optional
      "trials": 100000, "seed": 7                # optional
    }

This is the only module that reads the format: a field table per JSON object
maps its keys to the arguments of the domain object built from it.
"""
from __future__ import annotations

import hashlib
import json
import math

from .channel import DEFAULT_FLOOR_RATIO, PathLossParams, StageDistribution, per_stage
from .cost_model import SystemParams, cost_model
from .errors import ConfigError, json_integer, json_number
from .model_graph import (
    LayerSpec,
    MlpSpec,
    NetworkSpec,
    autoencoder_mlp_spec,
    build_alexnet_preset,
    build_mlp,
)
from .placement import STRATEGIES
from .records import Record

DEFAULT_TRIALS = 10_000
MAX_TRIALS = 10**9  # simulate draws about 1e7 trials/s: some 100 s per rule
DEFAULT_SEED = 1


def _updates(value, key: str) -> float:
    """A number, or "inf" for a model that is never retrained."""
    return math.inf if isinstance(value, str) and value.lower() == "inf" else json_number(value, key)


def _layers(value, key: str) -> tuple[LayerSpec, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of JSON objects, got {value!r}")
    return tuple(LayerSpec(**_read(layer, "a layer", _LAYER, "network")) for layer in value)


def _widths(value, key: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of integers, got {value!r}")
    return tuple(json_integer(x, key) for x in value)


def _atoms(value, key: str) -> list[tuple[float, float]]:
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 for a in value):
        raise ValueError(f"{key} must be a list of [snr, probability] pairs, got {value!r}")
    return [(json_number(s, key), json_number(p, key)) for s, p in value]


# Field tables: each JSON key of one object -> (constructor argument, reader).
# A reader takes the value and its key and raises ValueError on a bad value.
_PARAMS = {key: (key, json_number) for key in (
    "tx_power_w", "noise_w", "bandwidth_hz", "local_freq_hz", "edge_freq_hz",
    "kappa", "beta_t", "beta_e", "downlink_rate_bps")}
_PARAMS["updates_per_model"] = ("updates_per_model", _updates)
_LAYER = {key: (key, json_number) for key in ("workload_cycles", "input_bits", "download_seconds")}
_NETWORK = {"layers": ("layers", _layers), "exit_input_bits": ("exit_input_bits", json_number)}
_MLP = {
    "neurons": ("neurons", _widths),
    "lambda_bytes": ("bytes_per_activation", json_number),
    "mu_bytes": ("bytes_per_parameter", json_number),
    "alpha": ("cycles_per_macc", json_number),
    "downlink_bps": ("downlink_rate_bps", json_number),
}
_FLOOR = {"snr_floor_ratio": ("floor_ratio", json_number)}
_CHANNELS = {  # per kind, the arguments of the StageDistribution classmethod of that name
    "truncated_exponential": {"mean_snr": ("mean_snr", json_number), **_FLOOR},
    "pathloss_rayleigh": {**{key: (key, json_number) for key in (
        "antenna_gain", "carrier_hz", "distance_m", "exponent")}, **_FLOOR},
    "discrete": {"atoms": ("atoms", _atoms)},
}
_SWEEP_VALUES = {"distance_m": json_number, "updates_per_model": _updates, "M": json_integer}
SWEEP_VARIABLES = tuple(_SWEEP_VALUES)


def _read(obj, what: str, fields: dict, field: str, **defaults) -> dict:
    """The constructor arguments that the table `fields` reads from the JSON
    object `obj`; a key left out takes its value in `defaults`, if any."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}", field=field)
    args = {}
    for key, (arg, read) in fields.items():
        if key in obj:
            args[arg] = _make(read, field, obj[key], key)
        elif key in defaults:
            args[arg] = defaults[key]
        else:
            raise ConfigError(f"{what} needs the key '{key}'", field=field)
    return args


def _make(build, field: str, *args, **kwargs):
    """build(*args, **kwargs), whose ValueError is a ConfigError naming `field`, as is
    an OverflowError: float ** and int-to-float raise one where float * gives inf."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {field}: {exc}", field=field) from exc


def _law(spec, params: SystemParams) -> StageDistribution:
    if not isinstance(spec, dict):
        raise ConfigError(f"a channel spec must be a JSON object, got {spec!r}", field="channel")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _CHANNELS:
        raise ConfigError(f"unknown channel kind {kind!r}", field="channel")
    args = _read(spec, "a channel spec", _CHANNELS[kind], "channel",
                 snr_floor_ratio=DEFAULT_FLOOR_RATIO)
    if kind == "pathloss_rayleigh":
        floor_ratio = args.pop("floor_ratio")
        pathloss = _make(PathLossParams, "channel", **args)
        return _make(StageDistribution.from_pathloss, "channel", pathloss, params, floor_ratio)
    return _make(getattr(StageDistribution, kind), "channel", **args)


class SweepSpec(Record):
    """The sweep axis, one of SWEEP_VARIABLES, and its values."""

    __slots__ = ("variable", "values")

    def __init__(self, variable: str, values: tuple):
        self._set(variable, values)


class ExperimentConfig(Record):
    """A checked config: the domain objects, and the raw document with its channel spec."""

    __slots__ = ("raw", "network", "mlp", "params", "channel_raw", "horizon_M", "sweep",
                 "strategies", "trials", "seed")

    def __init__(self, raw: dict, network: NetworkSpec, mlp: MlpSpec | None, params: SystemParams,
                 channel_raw, horizon_M: int, sweep: SweepSpec | None, strategies: tuple,
                 trials: int, seed: int | None):
        self._set(raw, network, mlp, params, channel_raw, horizon_M, sweep, strategies, trials, seed)

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def stage_dists(self, count: int,
                    distance_override: float | None = None) -> tuple[StageDistribution, ...]:
        """Resolve the channel spec into per-stage laws for `count` stages."""
        shared = not isinstance(self.channel_raw, list)
        specs = [self.channel_raw] if shared else self.channel_raw
        if distance_override is not None:
            if any(s.get("kind") != "pathloss_rayleigh" for s in specs):
                raise ConfigError(
                    "a distance sweep needs a 'pathloss_rayleigh' channel for every stage",
                    field="channel.kind")
            specs = [dict(s, distance_m=distance_override) for s in specs]
        dists = [_law(s, self.params) for s in specs]
        return _make(per_stage, "channel", dists[0] if shared else dists, count)


def _network(obj, params: SystemParams):
    """The network and its MLP spec, if it has one."""
    if isinstance(obj, str):
        if obj == "autoencoder":
            mlp = autoencoder_mlp_spec(params.downlink_rate_bps)
            return _make(build_mlp, "network", mlp), mlp
        if obj == "alexnet":
            return _make(build_alexnet_preset, "network", params.downlink_rate_bps), None
        raise ConfigError(f"unknown network preset {obj!r}", field="network")
    if isinstance(obj, dict) and "mlp" in obj:
        args = _read(obj["mlp"], "network.mlp", _MLP, "network",
                     downlink_bps=params.downlink_rate_bps)
        mlp = _make(MlpSpec, "network", **args)
        if mlp.downlink_rate_bps != params.downlink_rate_bps:
            raise ConfigError(
                "network.mlp.downlink_bps disagrees with params.downlink_rate_bps",
                field="network.mlp.downlink_bps")
        return _make(build_mlp, "network", mlp), mlp
    if isinstance(obj, dict):
        return _make(NetworkSpec, "network", **_read(obj, "network", _NETWORK, "network")), None
    raise ConfigError("network must be a preset name or an object", field="network")


def _sweep(sw, network: NetworkSpec, params: SystemParams) -> SweepSpec:
    if not isinstance(sw, dict):
        raise ConfigError(f"sweep must be a JSON object, got {sw!r}", field="sweep")
    variable = sw.get("variable")
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}", field="sweep.variable")
    values = sw.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a nonempty list", field="sweep.values")
    values = tuple(_make(_SWEEP_VALUES[variable], "sweep.values", v, "sweep.values") for v in values)
    if variable == "M" and any(not 0 <= v <= network.N for v in values):
        raise ConfigError(f"sweep M values must lie in [0, {network.N}]", field="sweep.values")
    if variable == "updates_per_model":
        for v in values:  # SystemParams validates each value
            _make(params.with_updates, "sweep.values", v)
    return SweepSpec(variable, values)


def load_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a config given as the dict of its JSON document.

    Each value of the wrong JSON type is a ConfigError naming its field, or a
    parent of it, as is a config that is not a JSON object. So are cost tables
    that overflow: each constant can be finite while their products are not."""
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(raw).__name__}")
    for key in ("network", "params", "channel"):
        if key not in raw:
            raise ConfigError(f"missing required field '{key}'", field=key)
    params = _make(SystemParams, "params", **_read(raw["params"], "params", _PARAMS, "params"))
    network, mlp = _network(raw["network"], params)

    horizon = raw.get("horizon_M")
    if horizon is None:  # left out or null: every layer may run on the device
        horizon = network.N
    horizon = _make(json_integer, "horizon_M", horizon, "horizon_M")
    if not 0 <= horizon <= network.N:
        raise ConfigError(f"horizon_M must lie in [0, {network.N}]", field="horizon_M")

    sweep = _sweep(raw["sweep"], network, params) if "sweep" in raw else None

    strategies = raw.get("strategies", ["optimal_exhaustive", "one_sla_exhaustive", "hybrid"])
    if not isinstance(strategies, list):
        raise ConfigError(f"strategies must be a list, got {strategies!r}", field="strategies")
    if not strategies:
        raise ConfigError("strategies must list at least one strategy", field="strategies")
    strategies = tuple(strategies)
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; expected one of {STRATEGIES}",
                              field="strategies")

    trials = _make(json_integer, "trials", raw.get("trials", DEFAULT_TRIALS), "trials")
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be a positive integer up to {MAX_TRIALS}", field="trials")
    seed = raw.get("seed", DEFAULT_SEED)
    if seed is not None:  # null plans; only simulate, which draws, rejects it
        seed = _make(json_integer, "seed", seed, "seed")

    cfg = ExperimentConfig(
        raw=raw, network=network, mlp=mlp, params=params,
        channel_raw=raw["channel"], horizon_M=horizon, sweep=sweep,
        strategies=strategies, trials=trials, seed=seed,
    )
    if isinstance(raw["channel"], list) and len(raw["channel"]) > network.N + 1:
        raise ConfigError(f"a per-stage channel list holds at most one law per stage 1..N+1, "
                          f"{network.N + 1} here, got {len(raw['channel'])}", field="channel")
    # fail fast on an unusable channel spec, including any distance sweep point's law
    cfg.stage_dists(1)
    if sweep is not None and sweep.variable == "distance_m":
        for value in sweep.values:
            try:
                cfg.stage_dists(1, distance_override=value)
            except ConfigError as exc:
                if exc.field != "channel":
                    raise
                raise ConfigError(f"invalid sweep.values: {exc}", field="sweep.values") from exc
    _make(cost_model, "params", network, params)  # no overflowing cost tables
    return cfg
