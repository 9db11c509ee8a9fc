"""Module boundaries: no edgesplit module imports another module's private
names, only the cost model reads the cost constants, only the CLI catches a
NumericalError, only the config module reads the config format, importing
the package and its CLI pulls in no scipy, planning runs without numpy and
without dataclasses, typing or pathlib, the package exports an explicit list of names, the README quick start runs, the
process holds two memo caches and no more, one helper called from `main`
alone writes every result file, only the CLI imports hashlib or json, and
the functions the benchmark calls keep their signatures."""
import ast
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import edgesplit
from edgesplit.errors import NumericalError

from conftest import reference_config_dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edgesplit"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_cross_module_private_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("edgesplit")):
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name} from "
                          f"{'.' * node.level}{node.module or ''}"
                          for alias in node.names if _is_private(alias.name)]
    assert not offenders, offenders


def test_only_the_cli_catches_numerical_errors():
    """A numerical failure anywhere in planning fails the whole command (exit 3);
    no module turns one into a partial result. A bare except, or one naming a
    base class of NumericalError, would catch it too."""
    catching = {cls.__name__ for cls in NumericalError.__mro__[:-1]}  # all but object
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.type)
                     if isinstance(n, (ast.Name, ast.Attribute))} if node.type else catching
            if names & catching:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


# the constants of the cost algebra, and the layer workload it weighs
_COST_CONSTANTS = {"kappa", "local_freq_hz", "edge_freq_hz", "beta_t", "beta_e", "workload_cycles"}


def test_only_the_cost_model_reads_the_cost_constants():
    """Both stopping rules and the closed form take their margins from
    `CostModel`: no module but cost_model.py and model_graph.py, which
    defines the layers, reads the clocks, the energy and cost weights, or a
    layer's cycles."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("cost_model.py", "model_graph.py"):
            continue
        offenders += [f"{path.name}:{node.lineno} reads .{node.attr}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr in _COST_CONSTANTS]
    assert not offenders, offenders


def test_only_the_problem_builds_stage_laws_and_cost_models():
    """In the stopping rules, the placement strategies, the Monte Carlo and the
    CLI, `Problem.__init__` is the one place that normalizes the stage laws and
    looks up the cost model. The exceptions are `apply_rule`, the online
    decision, which takes no laws and looks its cost model up once per call,
    and `oracle_dp`, the independent certificate, which shares no Problem."""
    calls = []
    for name in ("splitting.py", "placement.py", "simulate.py", "cli.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        scopes = [(f"{cls.name}.{fn.name}" if cls else fn.name, fn)
                  for cls in [None, *(n for n in tree.body if isinstance(n, ast.ClassDef))]
                  for fn in (cls.body if cls else tree.body) if isinstance(fn, ast.FunctionDef)]
        for scope, fn in scopes:
            calls += [(name, scope, node.func.id) for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in ("per_stage", "cost_model")]
    assert sorted(calls) == [("simulate.py", "oracle_dp", "cost_model"),
                             ("simulate.py", "oracle_dp", "per_stage"),
                             ("splitting.py", "Problem.__init__", "cost_model"),
                             ("splitting.py", "Problem.__init__", "per_stage"),
                             ("splitting.py", "apply_rule", "cost_model")]


# the names that per-module readers of the config format went by
_READER = re.compile(r"from_json_dict|\w+_from_json|\w+_from_config")


def test_only_the_config_module_reads_the_config_format():
    """config.py turns the config JSON into domain objects through one field
    table per JSON object: no other module imports the JSON number and integer
    checks, and no module defines a reader of its own next to it."""
    checks = {"json_number", "json_integer"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _READER.fullmatch(node.name):
                offenders.append(f"{path.name}:{node.lineno} defines {node.name}")
            if path.name == "config.py":
                continue
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names
                              if a.name in checks]
            if isinstance(node, ast.Attribute) and node.attr in checks:
                offenders.append(f"{path.name}:{node.lineno} reads {node.attr}")
    assert not offenders, offenders


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return env


def test_import_is_scipy_free():
    probe = ("import sys, edgesplit, edgesplit.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


# `place`, `thresholds` and every sweep axis on the three networks, a per-stage
# list of laws and a discrete law, which load neither numpy nor the modules of
# _UNUSED; then `simulate`, which is the numpy path, where site-packages is on
# the path. With site, a .pth file may load typing and pathlib first.
_UNUSED = ("dataclasses", "inspect", "ast", "dis", "typing", "pathlib")
_PLANNING = """
import json, sys
unused = set(json.loads(sys.argv[3]))
preloaded = unused.intersection(sys.modules)
assert not (sys.flags.no_site and preloaded), preloaded
import edgesplit, edgesplit.cli
from edgesplit.cli import main
out = sys.argv[1]
codes = []
for i, cfg in enumerate(json.loads(sys.argv[2])):
    path = f"{out}/cfg{i}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    command = "sweep" if "sweep" in cfg else "place"
    codes.append(main([command, "--config", path, "--out", f"{out}/{i}"]))
    if command == "place":
        codes.append(main(["thresholds", "--config", path, "--out", f"{out}/{i}"]))
assert codes == [0] * len(codes), codes
assert "numpy" not in sys.modules
loaded = unused.intersection(sys.modules) - preloaded
assert not loaded, loaded
if not sys.flags.no_site:
    assert main(["simulate", "--config", path, "--out", f"{out}/sim", "--trials", "200"]) in (0, 4)
    assert "numpy" in sys.modules and edgesplit.simulate.__module__ == "edgesplit.simulate"
"""


def test_planning_runs_without_numpy(tmp_path):
    mlp12 = {"mlp": {"neurons": [64] * 13, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}
    pathloss = reference_config_dict()["channel"]
    sweeps = [{"variable": "distance_m", "values": [20, 80]},
              {"variable": "updates_per_model", "values": [10, "inf"]},
              {"variable": "M", "values": [0, 3]}]
    configs = [reference_config_dict(network="alexnet"),
               reference_config_dict(network=mlp12,
                                     strategies=["optimal_exhaustive", "mlp_closed_form", "hybrid"]),
               reference_config_dict(channel=[dict(pathloss, distance_m=d) for d in range(20, 200, 20)]),
               reference_config_dict(channel={"kind": "discrete", "atoms": [[0.1, 0.5], [2.0, 0.5]]})]
    configs += [reference_config_dict(network=net, sweep=sweep, strategies=["optimal_exhaustive"])
                for net in ("autoencoder", "alexnet", mlp12) for sweep in sweeps]
    configs.append(reference_config_dict(strategies=["optimal_exhaustive", "one_sla_exhaustive"]))
    for flags in ([], ["-S"]):  # with and without site
        out_dir = tmp_path / ("no_site" if flags else "site")
        out_dir.mkdir()
        out = subprocess.run([sys.executable, *flags, "-c", _PLANNING, str(out_dir),
                              json.dumps(configs), json.dumps(_UNUSED)],
                             env=_src_env(), capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr


def _imports_of(top_level: tuple, skip: str = "") -> list[str]:
    """Each import in src/ of a module under one of `top_level`, outside the file `skip`."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            offenders += [f"{path.name}:{node.lineno} imports {n}" for n in names
                          if n.partition(".")[0] in top_level]
    return offenders


def test_no_module_imports_dataclasses_typing_or_pathlib():
    """Each would cost a CLI call its import: `dataclasses` also loads inspect,
    ast, dis and tokenize. The records are `records.Record` classes."""
    offenders = _imports_of(("dataclasses", "typing", "pathlib"))
    assert not offenders, offenders


def test_only_the_cli_imports_hashlib_or_json():
    """cli.py alone assembles the result files, their JSON and their SHA-256
    hashes: no other module serializes or hashes."""
    offenders = _imports_of(("hashlib", "json"), skip="cli.py")
    assert not offenders, offenders


def _quick_start() -> str:
    """The python block under "Library quick start" in README.md."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_readme_quick_start_runs():
    out = subprocess.run([sys.executable, "-c", _quick_start()], env=_src_env(), capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_the_package_exports_an_explicit_list_of_used_names():
    """`__all__` is a literal list, it is every public name of the package but
    its submodules, and each name in it is used by the README quick start or
    the benchmark, or is one of the two exception types."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    values = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert len(values) == 1 and isinstance(values[0], ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in values[0].elts)

    exported = edgesplit.__all__
    public = {name for name, value in vars(edgesplit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(exported)) == len(exported) and set(exported) == public

    used = set(re.findall(r"\bes\.(\w+)", _quick_start()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= set(re.findall(r"\b(?:es|edgesplit)\.(\w+)", path.read_text(encoding="utf-8")))
    assert set(exported) - used <= {"ConfigError", "NumericalError"}


# The process-wide memo caches, each kept on purpose: a (network, params) cost
# model and the argparse parser.
_MEMO_CACHES = {("cost_model.py", "cost_model"), ("cli.py", "_build_parser")}


def _cache_name(node) -> str | None:
    """"cache" or "lru_cache" where `node` names one of the functools memo caches."""
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name if name in ("cache", "lru_cache") else None


def test_the_only_memo_caches_are_the_known_two():
    """A functools cache, as a decorator or called, appears nowhere in src/
    but on the two functions of `_MEMO_CACHES`."""
    decorated, calls = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for dec in node.decorator_list:
                    if _cache_name(dec):
                        decorated.add((path.name, node.name))
                        decorators.add(id(dec.func if isinstance(dec, ast.Call) else dec))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _cache_name(node)
                  and id(node.func) not in decorators and id(node) not in decorators]
    assert decorated == _MEMO_CACHES and not calls, (decorated, calls)


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call is `open(...)` with a mode that writes, or `os.open` or
    `os.fdopen`, which take their mode as flags."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("open", "fdopen")
    if getattr(func, "id", None) != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def test_every_result_file_is_written_by_write_text():
    """`cli._write_text` truncates a result file and writes it, and is called
    from `main` alone (the next test); no other code in src/ opens a file for
    writing."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = [range(fn.lineno, fn.end_lineno + 1) for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_write_text" and path.name == "cli.py"]
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _opens_for_writing(node)
                      and not any(node.lineno in lines for lines in helper)]
    assert not offenders, offenders


def test_main_alone_writes_the_result_files():
    """Each `cmd_*` takes the checked config alone and returns its exit code
    and result texts: it takes no output path, joins none and opens no file.
    `_write_text` is called once in src/, from `main`, which commits the texts."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    commands = [fn for name, fn in functions.items() if name.startswith("cmd_")]
    assert len(commands) == 4
    for fn in commands:
        assert [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs] == ["cfg"], fn.name
        assert not (fn.args.vararg or fn.args.kwarg), fn.name
        called = {ast.unparse(node.func) for node in ast.walk(fn) if isinstance(node, ast.Call)}
        assert not called & {"open", "os.open", "os.fdopen", "os.path.join", "_write_text"}, fn.name
    sites = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and "_write_text" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    main = functions["main"]
    assert len(sites) == 1 and sites[0][0] == "cli.py", sites
    assert main.lineno <= sites[0][1] <= main.end_lineno, sites


# The functions perfbench/ calls, with the parameters it passes by position.
_BENCH_SIGNATURES = {
    "coincidence_rate": "M, net, params, dists, trials, seed",
    "oracle_dp": "M, net, params, discrete_dists",
    "apply_rule": "policy, snr_seq, net, params",
    "backward_induction": "M, net, params, dists",
    "one_sla_thresholds": "M, net, params, dists",
    "forced_offload_policy": "rule_kind, net, params, dists",
    "run_strategy": "strategy, net, params, dists, mlp=None, problem=None",
}


def test_the_functions_the_benchmark_calls_keep_their_signatures():
    for name, want in _BENCH_SIGNATURES.items():
        parameters = inspect.signature(getattr(edgesplit, name)).parameters.values()
        assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, name
        got = ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                        for p in parameters)
        assert got == want, name
