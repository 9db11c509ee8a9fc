#!/usr/bin/env python3
"""Result-bytes diff of the edgesplit CLI between two git revisions.

    python scripts/result_diff.py REV_A REV_B

Exports the committed tree of each revision with `git archive` (local and
offline; nothing is registered in the repository) and runs one fixed matrix
of `python -m edgesplit.cli` calls on each:

* three networks (autoencoder, AlexNet, an equal-width MLP) at 0.5 m to
  5 km with K = updates_per_model in {10, 50, inf}, under `place`;
  `thresholds` and `simulate` at fewer points;
* every sweep axis (distance_m, updates_per_model, M) on each network;
* per-stage channel lists that mix path-loss, discrete and truncated laws
  (a truncated law has a floor and no SNR ceiling); a list that repeats one
  16-atom discrete spec among truncated ones, under `place`, `thresholds`
  and `simulate`, and one that repeats one path-loss spec, under
  `thresholds`: their equal stage laws are separate objects until merged;
* edge laws: path loss at 0.01 m, 5 km and 1e7 m, floor ratios 1e-6 and
  10, and one shared discrete law, under `place`, `thresholds` and a K
  (`updates_per_model`) sweep;
* `thresholds` and `simulate` at horizon_M = 0, with a shared law and with a
  one-law list, and at horizon_M = 3 with a list of exactly four laws;
  `simulate` at horizon_M = 1 and N, with a shared law and with a per-stage
  list that has discrete stages; an M-axis sweep on that list; `simulate`
  at 2^17 + 4,321 trials, more than one block and tile of the Monte Carlo
  kernel, with a shared law at horizon N and with that list at horizon 3;
* a deep network whose three front layers take 1e11 to 1e14 cycles and the
  later ones 1 to 1e4, where omega(n) dwarfs a later layer's own cost, under
  `place` and `thresholds`;
* a 150-layer network that repeats three layer patterns, under `place`
  with the default strategies, `place --strategy hybrid` alone and
  `thresholds`;
* one path-loss law, shared or listed once per stage, on a 12-layer
  equal-width MLP under `place`, `thresholds`, `simulate` and a distance
  sweep, and a distance sweep on a list whose stages differ in distance
  alone;
* the reproducers of known boundary defects and a set of malformed configs
  (a strategy listed twice, in the config or by `--strategy`, among them),
  an `--out` that names a file or a path under one, a directory where a
  result file goes, and a `--config` that names no file;
* the shipped example at `bandwidth_hz` 1e-310 under `place` and
  `thresholds`, which fail with a numerical error (exit 3);
* 41-point K sweeps (K = 1..40 and inf): on the shipped example, on the
  equal-width MLP with all four strategies, and with `hybrid` listed first;
* a 3-layer network whose free second layer cuts the payload 1000-fold, on a
  two-atom law at K = inf, under `thresholds` and `simulate`: that stage's
  threshold is +inf, written as such;
* reruns into one output directory, a longer result and then a shorter one
  (`place` with four strategies and then one, `simulate` and a distance
  sweep with two strategies and then one): a rewrite that leaves part of the
  longer result shows as a changed file. Every longer run must exit 0; one
  that does not is listed, on either tree, and fails the diff;
* twin cases, a flag and the config key it sets (`--updates 5` and
  `updates_per_model` 5, under `place`), which must exit alike and write the
  same bytes, `config_sha256` included: twins that differ are listed, on
  either tree, and fail the diff.

It then lists the cases whose exit code, exit-2 field or exit-3 message
(the numerical error and the estimate it prints) changed, the result
files that changed, the largest relative move per column of each changed
file and every changed `best` flag. The exit status is 0 when both
revisions wrote the same bytes and exit codes everywhere, else 1. To diff
uncommitted work, pass `$(git stash create)` (after `git add` of new files)
as a revision. The trees and outputs go to a temporary directory (set
TMPDIR to choose where).
"""
import argparse
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOWNLINK_BPS = 26900450.249632121
PARAMS = {"tx_power_w": 0.1, "noise_w": 1e-10, "bandwidth_hz": 2e6, "local_freq_hz": 1e8,
          "edge_freq_hz": 1e10, "kappa": 1e-26, "beta_t": 0.5, "beta_e": 0.5,
          "updates_per_model": 50, "downlink_rate_bps": DOWNLINK_BPS}
DEFAULT_STRATEGIES = ["optimal_exhaustive", "one_sla_exhaustive", "hybrid"]
RULES = ["optimal_exhaustive", "one_sla_exhaustive"]
NETWORKS = {  # name: (network, N, strategies for place)
    "autoencoder": ("autoencoder", 8, DEFAULT_STRATEGIES + ["mlp_closed_form"]),
    "alexnet": ("alexnet", 8, DEFAULT_STRATEGIES),
    "mlp": ({"mlp": {"neurons": [128] * 6, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}, 5,
            DEFAULT_STRATEGIES + ["mlp_closed_form"]),
}
DISTANCES = [0.5, 10, 50, 500, 5000]
UPDATES = [10, 50, "inf"]


def pathloss(distance):
    return {"kind": "pathloss_rayleigh", "distance_m": distance, "antenna_gain": 4.11,
            "carrier_hz": 915e6, "exponent": 3, "snr_floor_ratio": 1e-3}


def config(network="autoencoder", distance=50, **fields):
    cfg = {"network": network, "params": dict(PARAMS), "channel": pathloss(distance),
           "strategies": DEFAULT_STRATEGIES, "trials": 2000, "seed": 7}
    for key, value in fields.items():
        if key in PARAMS:
            cfg["params"][key] = value
        else:
            cfg[key] = value
    return cfg


def with_value(cfg, path, value):
    """Copy of `cfg` with the node at `path` set to `value`, or deleted if value is DELETE."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


DELETE = object()
LAYERS = {"layers": [{"workload_cycles": 2e6, "input_bits": 4096, "download_seconds": 0.01},
                     {"workload_cycles": 4e6, "input_bits": 2048, "download_seconds": 0.02}],
          "exit_input_bits": 1024}


def matrix():
    """The fixed list of (case name, command, config, extra flags)."""
    cases = []
    for name, (network, n, strategies) in NETWORKS.items():
        for d in DISTANCES:
            for k in UPDATES:
                cases.append((f"{name}/{d}m/K={k}", "place",
                              config(network, d, updates_per_model=k, strategies=strategies), []))
            cases.append((f"{name}/{d}m", "thresholds", config(network, d), []))
        for d in (10, 500):
            cases.append((f"{name}/{d}m/M=3", "simulate",
                          config(network, d, strategies=RULES, horizon_M=3), []))
        cases += [
            (f"{name}/sweep-distance", "sweep",
             config(network, sweep={"variable": "distance_m", "values": DISTANCES}), []),
            (f"{name}/sweep-updates", "sweep",
             config(network, sweep={"variable": "updates_per_model", "values": UPDATES}), []),
            (f"{name}/sweep-M", "sweep",
             config(network, strategies=RULES, sweep={"variable": "M", "values": list(range(n + 1))}), []),
        ]
    discrete = {"kind": "discrete", "atoms": [[0.05, 0.25], [0.6, 0.5], [4.0, 0.25]]}
    truncated = {"kind": "truncated_exponential", "mean_snr": 0.3, "snr_floor_ratio": 1e-2}
    mixed = [pathloss(20), discrete, truncated, pathloss(80), discrete, pathloss(200),
             truncated, discrete, pathloss(50)]
    for name, channel in (("mixed", mixed), ("discrete", [discrete] * 9)):
        for command, fields in (("place", {}), ("thresholds", {}),
                                ("simulate", {"strategies": RULES, "horizon_M": 3})):
            cases.append((f"per-stage-{name}", command, config(channel=channel, **fields), []))
    # one spec repeated among others: equal but separate laws, which the stage
    # laws merge into one object
    fine = {"kind": "discrete", "atoms": [[0.02 * 1.6**k, 1 / 16] for k in range(16)]}
    repeated = [fine, truncated, fine, fine, truncated, fine, fine, fine, truncated]
    for command, fields in (("place", {}), ("thresholds", {}),
                            ("simulate", {"strategies": RULES, "horizon_M": 8})):
        cases.append(("per-stage-repeated-discrete", command, config(channel=repeated, **fields), []))
    cases.append(("per-stage-repeated-pathloss", "thresholds", config(channel=[pathloss(70)] * 9), []))
    edge_laws = {f"{d:g}m": pathloss(d) for d in (0.01, 5000, 1e7)}
    edge_laws.update({f"floor={r:g}": dict(pathloss(50), snr_floor_ratio=r) for r in (1e-6, 10)})
    edge_laws["discrete"] = discrete
    for name, channel in edge_laws.items():
        for command in ("place", "thresholds"):
            cases.append((f"edge-law/{name}", command, config(channel=channel), []))
        cases.append((f"edge-law/{name}/sweep-updates", "sweep",
                      config(channel=channel, sweep={"variable": "updates_per_model",
                                                     "values": [1, 10, 1000, "inf"]}), []))
    cases.append(("per-stage-pathloss/sweep-distance", "sweep",
                  config(channel=[pathloss(d) for d in (10, 20, 40, 50, 80, 100, 150, 200, 300)],
                         strategies=RULES, sweep={"variable": "distance_m", "values": [10, 100]}), []))
    # one law listed once per stage of a 12-layer equal-width MLP: planned as the shared law
    mlp12 = {"mlp": {"neurons": [64] * 13, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}
    every = DEFAULT_STRATEGIES + ["mlp_closed_form"]
    for name, channel in (("shared", pathloss(50)), ("identical-list", [pathloss(50)] * 13)):
        for command, fields in (("place", {"strategies": every}), ("thresholds", {}),
                                ("simulate", {"strategies": RULES})):
            cases.append((f"mlp12/{name}", command, config(mlp12, channel=channel, **fields), []))
        cases.append((f"mlp12/{name}/sweep-distance", "sweep",
                      config(mlp12, channel=channel, strategies=every,
                             sweep={"variable": "distance_m", "values": [10, 100]}), []))
    # stages that differ in distance alone share one law at every point of a distance sweep
    cases.append(("per-stage-two-distances/sweep-distance", "sweep",
                  config(NETWORKS["mlp"][0], channel=[pathloss(50), pathloss(80)] * 3,
                         strategies=DEFAULT_STRATEGIES + ["mlp_closed_form"],
                         sweep={"variable": "distance_m", "values": [20, 80]}), []))
    # horizon 0 observes stage 1 only, so one law is enough
    for name, channel in (("shared", pathloss(50)), ("one-law-list", [pathloss(50)])):
        for command in ("thresholds", "simulate"):
            cases.append((f"horizon-0/{name}", command,
                          config(channel=channel, strategies=RULES, horizon_M=0), []))
    # the Monte Carlo kernel's edges: one threshold stage, and every stage
    for horizon in (1, 8):
        for name, channel in (("shared", pathloss(50)), ("mixed", mixed)):
            cases.append((f"horizon-{horizon}/{name}", "simulate",
                          config(channel=channel, strategies=RULES, horizon_M=horizon), []))
    # more trials than one block of the kernel, so its blocks and tiles both end mid-run
    many = (1 << 17) + 4321
    cases.append(("multi-block/shared", "simulate", config(strategies=RULES, trials=many), []))
    cases.append(("multi-block/mixed", "simulate",
                  config(channel=mixed, strategies=RULES, horizon_M=3, trials=many), []))
    # a Problem at a short horizon: exactly M + 1 = 4 laws, one discrete
    short = [pathloss(30), discrete, truncated, pathloss(90)]
    for command in ("thresholds", "simulate"):
        cases.append(("horizon-3/four-laws", command,
                      config(channel=short, strategies=RULES, horizon_M=3), []))
    # the optimality probability of every M over laws grouped by stage
    cases.append(("per-stage-mixed/sweep-M", "sweep",
                  config(channel=mixed, strategies=RULES, sweep={"variable": "M", "values": list(range(9))}),
                  []))
    front, back = [3e13, 1e14, 1e11], [10.0 ** (k % 5) for k in range(17)]
    heavy_front = {"layers": [{"workload_cycles": c, "input_bits": 32768 / n, "download_seconds": 0.01}
                              for n, c in enumerate(front + back, 1)],
                   "exit_input_bits": 80}
    for command in ("place", "thresholds"):
        cases.append(("heavy-front", command, config(heavy_front), []))
    # deep: the optimal rule at a horizon below the top after the all-horizons
    # pass (default strategies) and before it (hybrid alone), and at the top
    pattern = [(1e6, 32768, 0.002), (3e6, 8192, 0.004), (2e6, 16384, 0.001)]
    deep = {"layers": [{"workload_cycles": c, "input_bits": b, "download_seconds": s}
                       for c, b, s in (pattern[n % 3] for n in range(150))],
            "exit_input_bits": 1024}
    for command, flags in (("place", []), ("place", ["--strategy", "hybrid"]), ("thresholds", [])):
        cases.append(("deep-150", command, config(deep), flags))
    cases.append(("flags", "place", config(), ["--updates", "inf", "--strategy", "hybrid"]))
    cases.append(("flags", "place", config(), ["--updates", "10"]))
    cases.append(("flags", "simulate", config(strategies=RULES),
                  ["--seed", "3", "--trials", "500"]))
    # twins: a flag and the config key it sets run, and hash, one config
    cases.append(("twin/updates=5", "place", config(), ["--updates", "5"]))
    cases.append(("twin/updates=5", "place", config(updates_per_model=5), []))

    base = config()
    custom = config(LAYERS, channel=discrete, strategies=RULES)
    reproducers = [
        ("no-download-seconds", with_value(custom, ("network", "layers", 0, "download_seconds"), DELETE)),
        ("kappa=1e290", with_value(base, ("params", "kappa"), 1e290)),
        ("kappa=1e308", with_value(base, ("params", "kappa"), 1e308)),
        ("beta_e=1e308", with_value(base, ("params", "beta_e"), 1e308)),
        ("beta_t=1e305", with_value(base, ("params", "beta_t"), 1e305)),
        ("downloads=3x1e308", with_value(custom, ("network", "layers"),
                                         [dict(LAYERS["layers"][0], download_seconds=1e308)] * 3)),
        ("floor=2^58", with_value(base, ("channel", "snr_floor_ratio"), 2.0**58)),
        ("floor=2^60", with_value(base, ("channel", "snr_floor_ratio"), 2.0**60)),
        ("floor=2^70", with_value(base, ("channel", "snr_floor_ratio"), 2.0**70)),
    ]
    for name, cfg in reproducers:
        for command in ("place", "thresholds"):
            cases.append((f"reproducer/{name}", command, cfg, []))
    # the shipped example at a bandwidth so small that an expectation is not finite: exit 3
    example = json.loads((ROOT / "configs" / "autoencoder_d50.json").read_text(encoding="utf-8"))
    for command in ("place", "thresholds"):
        cases.append(("numerical/bandwidth=1e-310", command,
                      with_value(example, ("params", "bandwidth_hz"), 1e-310), []))
    # a K sweep plans once and re-prices psi(M) at every point: on the shipped
    # example, on an MLP with the closed form, whose download term moves with K,
    # and with hybrid first, before the optimal recursion has run
    k_axis = {"variable": "updates_per_model", "values": [*range(1, 41), "inf"]}
    cases += [
        ("example/sweep-updates-41", "sweep", dict(example, sweep=k_axis), []),
        ("mlp/sweep-updates-41", "sweep",
         config(NETWORKS["mlp"][0], strategies=NETWORKS["mlp"][2], sweep=k_axis), []),
        ("hybrid-first/sweep-updates-41", "sweep",
         config(strategies=["hybrid", *RULES], sweep=k_axis), []),
    ]
    # layer 2 is free and cuts the payload 1000-fold: its threshold overflows to inf
    free_layer = {"layers": [{"workload_cycles": c, "input_bits": b, "download_seconds": 0.01}
                             for c, b in ((2e6, 8192), (0, 1e6), (1e6, 1e3))],
                  "exit_input_bits": 512}
    two_atoms = {"kind": "discrete", "atoms": [[3.0, 0.5], [30.0, 0.5]]}
    for command in ("thresholds", "simulate"):
        cases.append(("free-layer/inf-threshold", command,
                      config(free_layer, channel=two_atoms, strategies=RULES, horizon_M=3,
                             updates_per_model="inf"), []))
    # mlp_closed_form on stage laws that differ: at a place request, and at the
    # points of a distance sweep when the stages differ in more than distance
    mlp6 = {"mlp": {"neurons": [64] * 6, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}
    closed_form = DEFAULT_STRATEGIES + ["mlp_closed_form"]
    cases.append(("reproducer/closed-form-two-laws", "place",
                  config(mlp6, channel=[pathloss(50), pathloss(80)] * 3, strategies=closed_form), []))
    cases.append(("reproducer/closed-form-two-exponents", "sweep",
                  config(mlp6, channel=[pathloss(50), dict(pathloss(80), exponent=2)] * 3,
                         strategies=closed_form, sweep={"variable": "distance_m", "values": [20, 80]}),
                  []))
    # MLP widths that are not a list: a string or an object iterates to other widths
    for name, neurons in (("neurons-string", "6464"), ("neurons-object", {"64": 1, "32": 2})):
        cases.append((f"reproducer/{name}", "place",
                      config({"mlp": dict(mlp6["mlp"], neurons=neurons)}), []))

    malformed = [
        ("missing-params", with_value(base, ("params",), DELETE), []),
        ("params-not-object", with_value(base, ("params",), 5), []),
        ("missing-noise", with_value(base, ("params", "noise_w"), DELETE), []),
        ("nan-power", with_value(base, ("params", "tx_power_w"), math.nan), []),
        ("bool-beta", with_value(base, ("params", "beta_t"), True), []),
        ("updates-string", with_value(base, ("params", "updates_per_model"), "x"), []),
        ("unknown-preset", with_value(base, ("network",), "vgg"), []),
        ("mlp-downlink", config({"mlp": {"neurons": [64, 64], "lambda_bytes": 8, "mu_bytes": 8,
                                         "alpha": 100, "downlink_bps": 123.0}}), []),
        ("mlp-fraction", config({"mlp": {"neurons": [64.5, 64], "lambda_bytes": 8, "mu_bytes": 8,
                                         "alpha": 100}}), []),
        ("layers-not-list", config({"layers": 5, "exit_input_bits": 1}), []),
        ("unknown-kind", with_value(base, ("channel", "kind"), "weibull"), []),
        ("channel-list-short", config(channel=[pathloss(50)] * 8), []),
        ("channel-list-long", config(channel=[pathloss(50)] * 20), []),
        ("untruncated", config(channel={"kind": "exponential", "mean_snr": 0.6}), []),
        ("atoms-bad", config(channel={"kind": "discrete", "atoms": [[0.5, 0.7]]}), []),
        ("unknown-strategy", config(strategies=["gradient_descent"]), []),
        ("no-strategies", config(strategies=[]), []),
        ("repeated-strategy", config(strategies=["hybrid", "hybrid"]), []),
        ("repeated-strategy-flag", base, ["--strategy", "hybrid", "--strategy", "hybrid"]),
        ("horizon-high", config(horizon_M=9), []),
        ("trials-fraction", config(trials=2.5), []),
        ("trials-huge", config(trials=1e18), []),  # place only: simulate would never end
        ("sweep-values", config(sweep={"variable": "distance_m", "values": [10, -5]}), []),
        ("sweep-kind", config(channel=truncated, sweep={"variable": "distance_m", "values": [10]}), []),
    ]
    for name, cfg, flags in malformed:
        cases.append((f"malformed/{name}", "place", cfg, flags))
    cases.append(("malformed/null-seed", "simulate", config(strategies=RULES, seed=None), []))
    cases.append(("malformed/negative-seed", "simulate", config(strategies=RULES, seed=-1), []))
    cases.append(("malformed/hybrid", "simulate", base, []))
    cases.append(("malformed/repeated-strategy", "simulate", config(strategies=RULES[:1] * 2), []))
    cases.append(("malformed/no-sweep", "sweep", base, []))
    # the last --out wins: a file of the case directory, and a path under it
    for out in ("cfg.json", "cfg.json/x"):
        cases.append(("malformed/out-names-a-file", "place", base, ["--out", out]))
    # a directory where a result file goes (made by `prepare`)
    for command, blocked in (("thresholds", "thresholds.csv"), ("place", "placement.json"),
                             ("simulate", "sim.csv")):
        cases.append((f"unwritable/{blocked}", command, config(strategies=RULES), []))
    # and so does the last --config: one that names no file
    cases.append(("malformed/config-missing", "place", base, ["--config", "missing.json"]))
    # a longer run into the output directory first: (name, command, config, flags, earlier flags)
    mlp = NETWORKS["mlp"][0]
    cases.append(("rerun-shorter", "place", config(mlp, strategies=closed_form),
                  ["--strategy", "hybrid"], []))
    cases.append(("rerun-shorter", "simulate", config(mlp, strategies=RULES),
                  ["--strategy", "one_sla_exhaustive"], []))
    cases.append(("rerun-shorter", "sweep",
                  config(mlp, strategies=RULES, sweep={"variable": "distance_m", "values": DISTANCES}),
                  ["--strategy", "hybrid"], []))
    return cases


def export(rev, dest: Path):
    """The committed tree of `rev` under `dest`."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def prepare(case_dir: Path, name: str, cfg: dict):
    """Make `case_dir` with the case's config in `cfg.json` and, for an
    `unwritable/<file>` case, a directory at `out/<file>`, where that result
    file goes."""
    case_dir.mkdir()
    (case_dir / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    if name.startswith("unwritable/"):
        (case_dir / "out" / name.split("/", 1)[1]).mkdir(parents=True)


def run_matrix(tree: Path, work: Path, cases) -> dict:
    """{case key: (exit code, exit-2 field or exit-3 message, {file name: bytes})}
    for one tree. A case with earlier flags runs with them first, into the same
    output directory, and its exit code is then the tuple of every run's."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    results = {}
    for i, (name, command, cfg, flags, *earlier) in enumerate(cases):
        case_dir = work / f"{i:03d}"
        prepare(case_dir, name, cfg)
        out = case_dir / "out"
        codes = []
        for run_flags in (*earlier, flags):
            proc = subprocess.run([sys.executable, "-m", "edgesplit.cli", command, "--config",
                                   str(case_dir / "cfg.json"), "--out", str(out), *run_flags],
                                  cwd=case_dir, env=env, capture_output=True, text=True)
            codes.append(proc.returncode)
        field = re.search(r"\(field: ([^)]+)\)", proc.stderr) if proc.returncode == 2 else None
        detail = field.group(1) if field else (proc.stderr.strip() if proc.returncode == 3 else None)
        files = ({p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.is_file()}
                 if out.is_dir() else {})
        results[f"{name} [{command}{' ' + ' '.join(flags) if flags else ''}]"] = (
            tuple(codes) if earlier else proc.returncode, detail, files)
    return results


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _move(a, b):
    """Relative move from a to b; inf when exactly one side is not a finite number."""
    x, y = _number(a), _number(b)
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return 0.0 if a == b else math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def _csv(data: bytes):
    lines = [l for l in data.decode().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def _leaves(node, key=""):
    """(key, value) for every scalar of a JSON document, keyed by its innermost name."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _leaves(v, key)
    else:
        yield key, json.dumps(node)


def compare(name, a: bytes, b: bytes, moves: dict, best_flags: list):
    """Fold the per-column moves of one changed file into `moves`."""
    if name.endswith(".csv"):
        (head_a, rows_a), (head_b, rows_b) = _csv(a), _csv(b)
        if head_a != head_b or len(rows_a) != len(rows_b):
            moves[(name, "<shape>")] = math.inf
            return
        for ra, rb in zip(rows_a, rows_b):
            for col, x, y in zip(head_a, ra, rb):
                moves[(name, col)] = max(moves.get((name, col), 0.0), _move(x, y))
            if "best" in head_a and ra[head_a.index("best")] != rb[head_a.index("best")]:
                best_flags.append((name, ra[:2], ra[head_a.index("best")], rb[head_a.index("best")]))
    else:
        leaves_a, leaves_b = list(_leaves(json.loads(a))), list(_leaves(json.loads(b)))
        if [k for k, _ in leaves_a] != [k for k, _ in leaves_b]:
            moves[(name, "<shape>")] = math.inf
            return
        for (key, x), (_, y) in zip(leaves_a, leaves_b):
            moves[(name, key)] = max(moves.get((name, key), 0.0), _move(x, y))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    args = parser.parse_args()
    cases = matrix()
    with tempfile.TemporaryDirectory(prefix="result_diff_") as tmp:
        work = Path(tmp)
        results = {}
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            tree = work / side / "tree"
            tree.mkdir(parents=True)
            export(rev, tree)
            runs = work / side / "runs"
            runs.mkdir()
            results[side] = run_matrix(tree, runs, cases)

    changed_exit, changed_files, moves, best_flags, same_files = [], [], {}, [], 0
    failed_earlier = [(rev, key, code) for side, rev in (("a", args.rev_a), ("b", args.rev_b))
                      for key, (code, _, _) in results[side].items()
                      if isinstance(code, tuple) and any(code[:-1])]
    unequal_twins = []
    for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
        twins = {}
        for (name, *_), run in zip(cases, results[side].values()):
            if name.startswith("twin/"):
                twins.setdefault(name, []).append(run)
        unequal_twins += [(rev, name) for name, runs in twins.items()
                          if any(run != runs[0] for run in runs)]
    for key, (code_a, field_a, files_a) in results["a"].items():
        code_b, field_b, files_b = results["b"][key]
        if (code_a, field_a) != (code_b, field_b):
            changed_exit.append((key, code_a, field_a, code_b, field_b))
        for name in sorted(set(files_a) | set(files_b)):
            if files_a.get(name) == files_b.get(name):
                same_files += 1
                continue
            where = ("" if name in files_a and name in files_b
                     else f" (only at {args.rev_a if name in files_a else args.rev_b})")
            changed_files.append((key, name + where))
            if not where:
                compare(name, files_a[name], files_b[name], moves, best_flags)

    print(f"{len(cases)} cases: {args.rev_a} -> {args.rev_b}")
    print(f"{same_files} result files byte-identical, {len(changed_files)} changed")
    print(f"\nrerun cases whose longer run did not exit 0: {len(failed_earlier)}")
    for rev, key, code in failed_earlier:
        print(f"  {rev} {key}: exit codes {code}")
    print(f"\ntwin cases whose exit code or result files differ: {len(unequal_twins)}")
    for rev, name in unequal_twins:
        print(f"  {rev} {name}")
    print(f"\nexit code, exit-2 field or exit-3 message changed: {len(changed_exit)}")
    for key, code_a, field_a, code_b, field_b in changed_exit:
        print(f"  {key}: {code_a} ({field_a}) -> {code_b} ({field_b})")
    print(f"\nchanged result files: {len(changed_files)}")
    for key, name in changed_files:
        print(f"  {key}: {name}")
    print("\nlargest relative move per column of the changed files:")
    for (name, col), move in sorted(moves.items()):
        if move:
            print(f"  {name} {col}: {move:.3g}")
    print(f"\nchanged best flags: {len(best_flags)}")
    for name, row, a, b in best_flags:
        print(f"  {name} {','.join(row)}: {a} -> {b}")
    return 1 if failed_earlier or unequal_twins or changed_exit or changed_files else 0


if __name__ == "__main__":
    sys.exit(main())
