"""Command-line front end.

    edgesplit thresholds --config cfg.json --out outdir
    edgesplit place      --config cfg.json --out outdir [--strategy ...]
    edgesplit sweep      --config cfg.json --out outdir
    edgesplit simulate   --config cfg.json --out outdir [--trials N] [--seed S]

Each command renders its result files as texts and `main` writes them, in
order. Outputs are CSV (12 significant digits, provenance in leading '#'
comment lines) plus JSON where noted. Exit codes: 0 ok, 2 config error,
3 numerical failure, 4 a simulate consistency check failed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .channel import QUAD_RULE
from .config import ExperimentConfig, load_config
from .errors import ConfigError, NumericalError
from .placement import RULE_OF_STRATEGY, run_strategy
from .simulate import RNG_ALGORITHM, simulate
from .splitting import Problem

try:  # CPython's builtin SHA-256, which loads no OpenSSL: `_sha2` from 3.12, `_sha256` before
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without its builtin hashes
        from hashlib import sha256


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def _json(obj, pad: str = "\n") -> str:
    """The bytes of `json.dumps(obj, indent=2, sort_keys=True)`, whose indent runs the
    pure-Python encoder, in one pass; non-finite floats become "inf", "-inf", "nan"."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else ("true" if obj else "false")
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return '"inf"' if obj > 0 else ('"-inf"' if obj < 0 else '"nan"')
    inner = pad + "  "
    if isinstance(obj, dict):
        items = ",".join(f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
                         for k, v in sorted(obj.items()))
        return "{" + items + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = ",".join(inner + _json(v, inner) for v in obj)
        return "[" + items + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _sha256(obj) -> str:
    """SHA-256 of the sorted-key JSON of `obj`: the config and network hashes."""
    return sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _metadata(cfg: ExperimentConfig) -> dict:
    law = cfg.stage_dists(1)[0]
    floor = law.support_lo if law.kind != "discrete" else None
    return {
        "tool": "edgesplit",
        "version": __version__,
        "config_sha256": _sha256(cfg.raw),
        "rng_algorithm": RNG_ALGORITHM,
        "seed": cfg.seed,
        "snr_floor": floor,
        **QUAD_RULE,
    }


def _write_text(path: str, text: str):
    """Write `text` to `path` as UTF-8, truncating the file first: the one writer
    of a result file, called by `main` alone. A failed write is a ConfigError of --out."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a directory in the way, or no room or right to write
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}", field="--out") from exc


def _csv(metadata: dict, header: str, rows: list[str]) -> str:
    """A result CSV: one '# key=value' line per metadata entry, the header, the rows."""
    lines = [f"# {k}={_fmt(v) if isinstance(v, float) else v}" for k, v in metadata.items()]
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def cmd_thresholds(cfg: ExperimentConfig) -> tuple[int, dict]:
    M = cfg.horizon_M
    problem = Problem(cfg.network, cfg.params, cfg.stage_dists(M + 1), M)
    rows = []
    for rule in ("optimal", "one_sla"):
        policy = problem.policy(rule, M)
        for n in range(1, M + 2):
            threshold = policy.thresholds[n - 1] if n <= M else None
            value = policy.value_table[n - 1] if policy.value_table else None
            rows.append(f"{n},{rule},{_fmt(threshold)},{_fmt(value)}")
    return 0, {"thresholds.csv": _csv(_metadata(cfg), "stage,rule,threshold_snr,value_table", rows)}


def _problem(cfg: ExperimentConfig, laws) -> Problem:
    """The N-layer Problem on the config's laws or a distance-sweep point's, of
    which there are as many. Too few for N + 1 stages is a config error; so,
    with `mlp_closed_form` among the strategies, are a network that is not an
    equal-width MLP and laws that are not one shared law."""
    closed_form = "mlp_closed_form" in cfg.strategies
    if closed_form and cfg.mlp is None:
        raise ConfigError("strategy mlp_closed_form needs an MLP network", field="strategies")
    if closed_form and not cfg.mlp.is_equal_width:
        raise ConfigError("strategy mlp_closed_form needs equal widths at every layer",
                          field="strategies")
    cfg.stage_dists(cfg.network.N + 1)  # the ConfigError of too few laws
    problem = Problem(cfg.network, cfg.params, laws)
    if closed_form and any(d is not problem.dists[0] for d in problem.dists):
        raise ConfigError("strategy mlp_closed_form needs one channel law shared by every stage",
                          field="strategies")
    return problem


def cmd_place(cfg: ExperimentConfig) -> tuple[int, dict]:
    problem = _problem(cfg, cfg.laws)
    reports = [run_strategy(s, cfg.network, cfg.params, problem.dists, mlp=cfg.mlp, problem=problem)
               for s in cfg.strategies]
    rows = [f"{rep.strategy},{r.M},{r.Z:.12g},{r.expected_etc:.12g},{r.psi:.12g},"
            f"{int(r.M == rep.best_M)}" for rep in reports for r in rep.rows]
    metadata = _metadata(cfg)
    payload = {"metadata": metadata, "reports": [rep.to_json_dict() for rep in reports]}
    return 0, {"placement.csv": _csv(metadata, "strategy,M,Z,expected_etc,psi,best", rows),
               "placement.json": _json(payload) + "\n"}


def cmd_sweep(cfg: ExperimentConfig) -> tuple[int, dict]:
    if cfg.sweep is None:
        raise ConfigError("sweep command needs a 'sweep' section", field="sweep")
    rows = []
    if cfg.sweep.variable == "M":
        bad = [s for s in cfg.strategies if s not in RULE_OF_STRATEGY]
        if bad:
            raise ConfigError(
                f"an M sweep evaluates stopping rules; unsupported strategies {bad}",
                field="strategies")
        problem = _problem(cfg, cfg.laws)  # the whole axis
        reports = [run_strategy(s, cfg.network, cfg.params, problem.dists, problem=problem)
                   for s in cfg.strategies]
        for M in cfg.sweep.values:
            opt_prob = problem.optimality_probability(M)
            for rep in reports:
                row = rep.row(M)
                rows.append(f"{_fmt(float(M))},{rep.strategy},{M},{_fmt(row.Z)},"
                            f"{_fmt(row.expected_etc)},{_fmt(opt_prob)}")
    else:
        distance = cfg.sweep.variable == "distance_m"
        problem = None if distance else _problem(cfg, cfg.laws)  # K moves only psi(M)
        for k, value in enumerate(cfg.sweep.values):
            problem = _problem(cfg, cfg.sweep.laws[k]) if distance else problem.with_updates(value)
            for strategy in cfg.strategies:
                rep = run_strategy(strategy, cfg.network, problem.params, problem.dists,
                                   mlp=cfg.mlp, problem=problem)
                best = rep.row(rep.best_M)
                rows.append(f"{_fmt(float(value))},{strategy},{rep.best_M},"
                            f"{_fmt(best.Z)},{_fmt(best.expected_etc)},")
    return 0, {"sweep.csv": _csv(_metadata(cfg),
                                 "axis_value,strategy,best_M,Z,expected_etc,optimality_prob", rows)}


def cmd_simulate(cfg: ExperimentConfig) -> tuple[int, dict]:
    # numpy rejects a negative seed and draws fresh OS entropy for null: no two runs would agree
    if cfg.seed is None or cfg.seed < 0:
        raise ConfigError(f"simulate needs a nonnegative integer seed, got {cfg.seed}", field="seed")
    M = cfg.horizon_M
    problem = Problem(cfg.network, cfg.params, cfg.stage_dists(M + 1), M)
    for strategy in cfg.strategies:
        if strategy not in RULE_OF_STRATEGY:
            raise ConfigError(
                f"simulate evaluates stopping rules; strategy {strategy!r} unsupported",
                field="strategies")
    rules = [RULE_OF_STRATEGY[s] for s in cfg.strategies]

    entries = []
    csv_rows = []
    all_ok = True
    for rule in rules:
        policy = problem.policy(rule, M)
        result = simulate(problem, policy, cfg.trials, cfg.seed)
        table = problem.stage_table(policy)
        analytic_mean = table.expected_etc(M, problem.forced[M])
        analytic_probs = [*table.stop_prob, table.reach[M]]
        mean_delta = result.mean_etc - analytic_mean
        mean_ok = abs(mean_delta) <= max(3.0 * result.std_error, 1e-12 * max(1.0, abs(analytic_mean)))
        bins_ok = True
        for freq, p in zip(result.stop_histogram, analytic_probs):
            sigma = math.sqrt(max(p * (1.0 - p), 0.0) / result.trials)
            if abs(freq - p) > 3.0 * sigma + 1.0 / result.trials:
                bins_ok = False
        all_ok = all_ok and mean_ok and bins_ok
        entries.append({
            "rule": rule,
            "trials": result.trials,
            "mean_etc": result.mean_etc,
            "std_error": result.std_error,
            "stop_histogram": list(result.stop_histogram),
            "seed": result.seed,
            "rng_algorithm": RNG_ALGORITHM,
            "policy": policy.to_json_dict(),
            "network_sha256": _sha256(problem.net.to_json_dict()),
            "params": problem.params.to_json_dict(),
            "stage_distributions": [d.to_json_dict() for d in problem.dists],
            "analytic_mean_etc": analytic_mean,
            "mean_delta": mean_delta,
            "analytic_stop_probabilities": list(map(float, analytic_probs)),
            "checks": {"mean_within_3_sigma": mean_ok, "histogram_within_3_sigma": bins_ok},
        })
        for n, (freq, p) in enumerate(zip(result.stop_histogram, analytic_probs), start=1):
            csv_rows.append(f"{rule},{n},{_fmt(freq)},{_fmt(float(p))}")

    metadata = _metadata(cfg)
    payload = {"metadata": metadata, "results": entries, "all_checks_passed": all_ok}
    return 0 if all_ok else 4, {
        "sim.json": _json(payload) + "\n",
        "sim.csv": _csv(metadata, "rule,stage,frequency,analytic_probability", csv_rows)}


@cache  # argparse parsers are reusable, and building one costs about 1 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesplit",
        description="Plan layer placement and online split points for device-edge inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("thresholds", "write per-stage stopping thresholds for both rules"),
        ("place", "optimize the number of on-device layers"),
        ("sweep", "run a parameter sweep from the config's sweep section"),
        ("simulate", "Monte Carlo validation of the stopping rules"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the experiment JSON")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--trials", type=int, help="override the config trial count")
        p.add_argument("--updates", help="override updates per model ('inf' allowed)")
        p.add_argument("--strategy", action="append",
                       help="restrict to a strategy (repeatable)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read {args.config!r}: {reason}", field="--config") from exc
        if isinstance(raw, dict):  # load_config rejects any other shape
            if args.updates is not None and isinstance(raw.get("params"), dict):
                try:  # as a config holds it: the JSON value, or text that is not JSON ("inf")
                    updates = json.loads(args.updates)
                except json.JSONDecodeError:
                    updates = args.updates
                raw["params"]["updates_per_model"] = updates
            if args.seed is not None:
                raw["seed"] = args.seed
            if args.trials is not None:
                raw["trials"] = args.trials
            if args.strategy:
                raw["strategies"] = args.strategy
        cfg = load_config(raw)
        out = args.out or os.curdir  # an empty --out is the working directory
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:  # a file in the way, or a directory that cannot be made
            raise ConfigError(f"cannot make the output directory {out!r}: {exc.strerror}",
                              field="--out") from exc
        handler = {
            "thresholds": cmd_thresholds,
            "place": cmd_place,
            "sweep": cmd_sweep,
            "simulate": cmd_simulate,
        }[args.command]
        code, texts = handler(cfg)
        for name, text in texts.items():  # a failed write keeps the files written before it
            _write_text(os.path.join(out, name), text)
        return code
    except ConfigError as exc:
        where = f" (field: {exc.field})" if exc.field else ""
        print(f"edgesplit: config error{where}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        estimate = "" if exc.estimate is None else f" (estimate {exc.estimate!r})"
        print(f"edgesplit: numerical failure: {exc}{estimate}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
