#!/usr/bin/env python3
"""The lines of src/edgesplit that no command and no benchmark library call reaches.

    python scripts/reach.py [REV]

Exports the committed tree of REV (default HEAD) through `result_diff.export`
and, in this one process under `sys.settrace`, imports its edgesplit and runs
every case of `result_diff.matrix()` through `edgesplit.cli.main`, each in a
directory made by `result_diff.prepare`, as the byte diff makes it. It then
makes one call each of the library functions that `perfbench/worker.py`
calls: the policy builders `forced_offload_policy`, `backward_induction` and
`one_sla_thresholds`, `apply_rule`, `discretize`, `oracle_dp` and
`coincidence_rate`. It prints, per module, the source lines with bytecode
that no call reached, as ranges of consecutive lines, leaving out `raise`
statements, and the totals. A line counts as reached when any call ran it,
also where the `cost_model` cache spared a later call from running it. It
only reports: the exit status is 0 whatever it finds. To survey uncommitted
work, pass `$(git stash create)` (after `git add` of new files) as REV. The tree and the outputs go to a
temporary directory (set TMPDIR to choose where).
"""
import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

from result_diff import config, export, matrix, prepare

LIBRARY_HORIZON = 3
LIBRARY_ATOMS = 256
LIBRARY_TRIALS = 5000


def executable_lines(path: Path) -> set:
    """The lines of the module at `path` that hold bytecode, less its `raise` statements."""
    source = path.read_text(encoding="utf-8")
    lines, codes = set(), [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


class Reach:
    """The (file, line) pairs run under `sys.settrace` in files below `root`."""

    def __init__(self, root: Path):
        self.root = str(root) + os.sep
        self.seen = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(self.root) else None

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_commands(work: Path) -> Counter:
    """Every case of the result-diff matrix through `edgesplit.cli.main`; the count of
    runs per exit code."""
    import edgesplit.cli

    codes = Counter()
    for i, (name, command, cfg, flags, *earlier) in enumerate(matrix()):
        case = work / f"{i:03d}"
        prepare(case, name, cfg)
        os.chdir(case)  # an `--out` in the flags is relative to the case
        for run_flags in (*earlier, flags):
            argv = [command, "--config", "cfg.json", "--out", "out", *run_flags]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes[edgesplit.cli.main(argv)] += 1
                except SystemExit as exc:  # argparse rejects a flag
                    codes[exc.code] += 1
    return codes


def run_library():
    """One call each of the library functions the benchmark worker calls."""
    import edgesplit as es

    cfg = es.load_config(config("autoencoder", 50, horizon_M=LIBRARY_HORIZON))
    net, params, M = cfg.network, cfg.params, cfg.horizon_M
    dists = cfg.stage_dists(net.N + 1)
    policies = [es.forced_offload_policy("optimal", net, params, dists),
                es.backward_induction(M, net, params, dists),
                es.one_sla_thresholds(M, net, params, dists)]
    for policy in policies:
        es.apply_rule(policy, [dists[0].mean_snr] * (policy.horizon_M + 1), net, params)
    grid = [d.discretize(LIBRARY_ATOMS) for d in dists[:M + 1]]
    es.oracle_dp(M, net, params, grid)
    es.coincidence_rate(M, net, params, dists, LIBRARY_TRIALS, cfg.seed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    args = parser.parse_args()
    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach_") as tmp:
        tree, work = Path(tmp) / "tree", Path(tmp) / "runs"
        tree.mkdir()
        work.mkdir()
        export(args.rev, tree)
        package = tree / "src" / "edgesplit"
        sys.path.insert(0, str(tree / "src"))
        try:
            with Reach(package) as reach:
                codes = run_commands(work)
                run_library()
        finally:
            os.chdir(here)
        modules = sorted(package.glob("*.py"))
        total_lines = total_unreached = 0
        print(f"{args.rev}: {sum(codes.values())} command runs, exit codes "
              f"{dict(sorted(codes.items()))}, and the benchmark's library calls")
        for path in modules:
            lines = executable_lines(path)
            unreached = sorted(n for n in lines if (str(path), n) not in reach.seen)
            total_lines += len(lines)
            total_unreached += len(unreached)
            print(f"\n{path.name}: {len(unreached)} of {len(lines)} lines unreached")
            source = path.read_text(encoding="utf-8").splitlines()
            ranges = []
            for n in unreached:
                if ranges and n == ranges[-1][1] + 1:
                    ranges[-1][1] = n
                else:
                    ranges.append([n, n])
            for first, last in ranges:
                span = f"{first}" if first == last else f"{first}-{last}"
                print(f"  {span:>9}  {source[first - 1].strip()}")
    print(f"\ntotal: {total_unreached} of {total_lines} lines unreached in {len(modules)} modules "
          "(raise statements left out)")


if __name__ == "__main__":
    main()
