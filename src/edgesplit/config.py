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
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

from .channel import StageDistribution, distribution_from_config, per_stage
from .cost_model import SystemParams
from .errors import ConfigError, json_integer, json_number
from .model_graph import (
    MlpSpec,
    NetworkSpec,
    autoencoder_mlp_spec,
    build_alexnet_preset,
    build_mlp,
    mlp_spec_from_json,
    network_from_json,
)
from .placement import STRATEGIES

SWEEP_VARIABLES = ("distance_m", "updates_per_model", "M")
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 1


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: tuple


@dataclass
class ExperimentConfig:
    raw: dict
    network: NetworkSpec
    network_label: str
    mlp: MlpSpec | None
    params: SystemParams
    channel_raw: dict | list
    horizon_M: int | None
    sweep: SweepSpec | None
    strategies: tuple[str, ...]
    trials: int
    seed: int

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def stage_dists(self, count: int,
                    distance_override: float | None = None) -> tuple[StageDistribution, ...]:
        """Resolve the channel spec into per-stage laws for `count` stages."""
        shared = not isinstance(self.channel_raw, list)
        specs = [self.channel_raw] if shared else self.channel_raw
        try:
            if distance_override is not None:
                if any(s.get("kind") != "pathloss_rayleigh" for s in specs):
                    raise ConfigError(
                        "a distance sweep needs a 'pathloss_rayleigh' channel for every stage",
                        field="channel.kind")
                specs = [dict(s, distance_m=distance_override) for s in specs]
            dists = [distribution_from_config(s, self.params) for s in specs]
            return per_stage(dists[0] if shared else dists, count)
        except (KeyError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid channel spec: {exc}", field="channel") from exc


def _resolve_network(obj, params: SystemParams):
    if isinstance(obj, str):
        if obj == "autoencoder":
            mlp = autoencoder_mlp_spec(params.downlink_rate_bps)
            return build_mlp(mlp), "autoencoder", mlp
        if obj == "alexnet":
            return build_alexnet_preset(params.downlink_rate_bps), "alexnet", None
        raise ConfigError(f"unknown network preset {obj!r}", field="network")
    if isinstance(obj, dict):
        if "mlp" in obj:
            if not isinstance(obj["mlp"], dict):
                raise ConfigError(f"network.mlp must be a JSON object, got {obj['mlp']!r}",
                                  field="network")
            shorthand = dict(obj["mlp"])
            shorthand.setdefault("downlink_bps", params.downlink_rate_bps)
            mlp = mlp_spec_from_json(shorthand)
            if mlp.downlink_rate_bps != params.downlink_rate_bps:
                raise ConfigError(
                    "network.mlp.downlink_bps disagrees with params.downlink_rate_bps",
                    field="network.mlp.downlink_bps")
            return build_mlp(mlp), "mlp", mlp
        return network_from_json(obj), "custom", None
    raise ConfigError("network must be a preset name or an object", field="network")


def _integer(value, field: str) -> int:
    """value as an int; a boolean, a fraction, NaN, inf or a non-number is a ConfigError."""
    try:
        return json_integer(value, field)
    except ValueError as exc:
        raise ConfigError(str(exc), field=field) from exc


def load_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a config given as the dict of its JSON document.

    Each value of the wrong JSON type is a ConfigError naming its field, or a
    parent of it, as is a config that is not a JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(raw).__name__}")
    for key in ("network", "params", "channel"):
        if key not in raw:
            raise ConfigError(f"missing required field '{key}'", field=key)
    try:
        params = SystemParams.from_json_dict(raw["params"])
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}", field="params") from exc

    try:
        network, label, mlp = _resolve_network(raw["network"], params)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid network: {exc}", field="network") from exc

    horizon = raw.get("horizon_M")
    if horizon is not None:
        horizon = _integer(horizon, "horizon_M")
        if not 0 <= horizon <= network.N:
            raise ConfigError(f"horizon_M must lie in [0, {network.N}]", field="horizon_M")

    sweep = None
    if "sweep" in raw:
        sw = raw["sweep"]
        if not isinstance(sw, dict):
            raise ConfigError(f"sweep must be a JSON object, got {sw!r}", field="sweep")
        variable = sw.get("variable")
        if variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}", field="sweep.variable")
        values = sw.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("sweep.values must be a nonempty list", field="sweep.values")
        if variable == "M":
            values = [_integer(v, "sweep.values") for v in values]
            if any(not 0 <= v <= network.N for v in values):
                raise ConfigError(f"sweep M values must lie in [0, {network.N}]", field="sweep.values")
        try:
            if variable == "updates_per_model":
                values = [float("inf") if (isinstance(v, str) and v.lower() == "inf")
                          else json_number(v, "sweep.values") for v in values]
                for v in values:
                    replace(params, updates_per_model=v)  # SystemParams validates each value
            elif variable == "distance_m":
                values = [json_number(v, "sweep.values") for v in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid sweep.values: {exc}", field="sweep.values") from exc
        sweep = SweepSpec(variable, tuple(values))

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

    trials = _integer(raw.get("trials", DEFAULT_TRIALS), "trials")
    if trials < 1:
        raise ConfigError("trials must be a positive integer", field="trials")
    seed = raw.get("seed", DEFAULT_SEED)
    if seed is not None:  # null plans; only simulate, which draws, rejects it
        seed = _integer(seed, "seed")

    cfg = ExperimentConfig(
        raw=raw, network=network, network_label=label, mlp=mlp, params=params,
        channel_raw=raw["channel"], horizon_M=horizon, sweep=sweep,
        strategies=strategies, trials=trials, seed=seed,
    )
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
    return cfg
