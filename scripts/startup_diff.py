#!/usr/bin/env python3
"""Wall time of a CLI `place` call, start-up included, at two git revisions.

    python scripts/startup_diff.py REV_A REV_B [--spawns 13]

Exports the committed tree of each revision with `git archive`, as
`result_diff.py` does, and times `python [-S] -m edgesplit.cli place --config
configs/autoencoder_d50.json` from spawn to exit, each call a fresh
interpreter. Each revision gets `--spawns` timed calls with `-S` and as many
without, interleaved: round i runs A then B, or B then A on odd rounds, first
without `-S` and then with it. One untimed call per revision and setting
comes first, so both sides see the same file cache and, unless
PYTHONDONTWRITEBYTECODE is set, the same `__pycache__`. It prints each side's
median and quartiles in ms. `-S` leaves out `site`, whose `.pth` files can
import modules of their own before any user code runs; planning needs nothing
from site-packages. The exit status is 1 if a call fails. The trees go to a
temporary directory (set TMPDIR to choose where).
"""
import argparse
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "configs/autoencoder_d50.json"


def export(rev, dest: Path):
    """The committed tree of `rev` under `dest`."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def place(tree: Path, flags: list, out: Path) -> float:
    """Seconds from spawn to exit of one `place` call on `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, *flags, "-m", "edgesplit.cli", "place", "--config", CONFIG,
            "--out", str(out)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: {proc.stderr}")
    return elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--spawns", type=int, default=13, help="timed calls per revision and setting")
    args = parser.parse_args()
    settings = ([], ["-S"])
    with tempfile.TemporaryDirectory(prefix="startup_diff_") as tmp:
        trees = {}
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            trees[side] = Path(tmp) / side
            export(rev, trees[side])
        out = Path(tmp) / "out"
        times = {(side, " ".join(flags)): [] for flags in settings for side in trees}
        try:
            for flags in settings:
                for side in trees:
                    place(trees[side], flags, out)
            for i in range(args.spawns):
                for flags in settings:
                    for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                        times[side, " ".join(flags)].append(place(trees[side], flags, out))
        except RuntimeError as exc:
            print(f"startup_diff: {exc}", file=sys.stderr)
            return 1

    print(f"python {sys.version.split()[0]}; PYTHONDONTWRITEBYTECODE="
          f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '(unset)')}; "
          f"`place --config {CONFIG}`, {args.spawns} interleaved spawns per row")
    for flags in settings:
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            ms = [1e3 * t for t in times[side, " ".join(flags)]]
            q1, median, q3 = statistics.quantiles(ms, n=4)
            print(f"  python{' ' + ' '.join(flags) if flags else '   '} {rev}: median {median:.1f} ms "
                  f"(quartiles {q1:.1f}-{q3:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
