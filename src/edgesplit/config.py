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

from .channel import StageDistribution, distribution_from_config
from .cost_model import SystemParams
from .errors import ConfigError
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

    def stage_dists(self, count: int, distance_override: float | None = None,
                    params: SystemParams | None = None) -> tuple[StageDistribution, ...]:
        """Resolve the channel spec into per-stage laws for `count` stages."""
        params = params or self.params
        spec = self.channel_raw
        try:
            if isinstance(spec, list):
                if distance_override is not None:
                    spec = [dict(s, distance_m=distance_override) for s in spec]
                dists = [distribution_from_config(s, params) for s in spec]
                if len(dists) < count:
                    raise ConfigError(
                        f"channel lists {len(dists)} stages but {count} are needed",
                        field="channel")
                return tuple(dists[:count])
            if distance_override is not None:
                if spec.get("kind") != "pathloss_rayleigh":
                    raise ConfigError(
                        "a distance sweep needs a 'pathloss_rayleigh' channel",
                        field="channel.kind")
                spec = dict(spec, distance_m=distance_override)
            return (distribution_from_config(spec, params),) * count
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


def _integer(raw: dict, key: str, default=None):
    """raw[key] (or the default) as an int; NaN, inf or a non-number is a ConfigError."""
    value = raw.get(key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}", field=key) from exc


def load_config(source) -> ExperimentConfig:
    """Parse and validate a config from a dict, a JSON string, or a file path."""
    if isinstance(source, dict):
        raw = source
    else:
        text = source if isinstance(str(source), str) and str(source).lstrip().startswith("{") else None
        if text is not None:
            raw = json.loads(str(source))
        else:
            with open(source, encoding="utf-8") as fh:
                raw = json.load(fh)

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

    horizon = _integer(raw, "horizon_M")
    if horizon is not None:
        if not 0 <= horizon <= network.N:
            raise ConfigError(f"horizon_M must lie in [0, {network.N}]", field="horizon_M")

    sweep = None
    if "sweep" in raw:
        sw = raw["sweep"]
        variable = sw.get("variable")
        if variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}", field="sweep.variable")
        values = sw.get("values")
        if not values:
            raise ConfigError("sweep.values must be a nonempty list", field="sweep.values")
        try:
            if variable == "updates_per_model":
                values = [float("inf") if (isinstance(v, str) and v.lower() == "inf") else float(v)
                          for v in values]
                for v in values:
                    replace(params, updates_per_model=v)  # SystemParams validates each value
            elif variable == "M":
                values = [int(v) for v in values]
            else:
                values = [float(v) for v in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid sweep.values: {exc}", field="sweep.values") from exc
        if variable == "M" and any(not 0 <= v <= network.N for v in values):
            raise ConfigError(f"sweep M values must lie in [0, {network.N}]", field="sweep.values")
        sweep = SweepSpec(variable, tuple(values))

    strategies = tuple(raw.get("strategies", ("optimal_exhaustive", "one_sla_exhaustive", "hybrid")))
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; expected one of {STRATEGIES}",
                              field="strategies")

    trials = _integer(raw, "trials", DEFAULT_TRIALS)
    if trials < 1:
        raise ConfigError("trials must be a positive integer", field="trials")
    seed = _integer(raw, "seed", DEFAULT_SEED)

    cfg = ExperimentConfig(
        raw=raw, network=network, network_label=label, mlp=mlp, params=params,
        channel_raw=raw["channel"], horizon_M=horizon, sweep=sweep,
        strategies=strategies, trials=trials, seed=seed,
    )
    # fail fast on an unusable channel spec
    cfg.stage_dists(1)
    return cfg
