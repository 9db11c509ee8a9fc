#!/usr/bin/env python3
"""Wall time and peak memory of a CLI `place` call, start-up included, at two
git revisions.

    python scripts/startup_diff.py REV_A REV_B [--spawns 13]

Exports the committed tree of each revision with `git archive`, through
`result_diff.export`, and runs `python [-S] -m edgesplit.cli place --config
configs/autoencoder_d50.json` from spawn to exit, each call a fresh
interpreter. Each revision gets `--spawns` measured calls with `-S` and as
many without, interleaved: round i runs A then B, or B then A on odd rounds,
first without `-S` and then with it. One unmeasured call per revision and
setting comes first, so both sides see the same file cache and, unless
PYTHONDONTWRITEBYTECODE is set, the same `__pycache__`. It prints each side's
median and quartiles of wall time in ms and its median peak resident set in
MB (MiB, as the bench's `peak_rss_mb`). `-S` leaves out `site`, whose `.pth`
files can import modules of their own before any user code runs; planning
needs nothing from site-packages. The exit status is 1 if a call fails. The
trees go to a temporary directory (set TMPDIR to choose where).

Each call is spawned by a bare `python -S` (`_SPAWN`), which reaps it with
`os.wait4` and reports its wall time and `ru_maxrss` (KiB on Linux). Linux
carries the spawning process's peak resident set through the spawn and the
exec into the child's `ru_maxrss`, so a call spawned by this script, whose
exports lift its own peak to about 18 MB, would read at least that. The bare
spawner peaks at about 9 MB, below any `place` call.
"""
import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from result_diff import export

CONFIG = "configs/autoencoder_d50.json"


# argv[1:] is the call: spawn it with stdout to /dev/null, reap it, and print
# its seconds from spawn to exit, its exit code and its ru_maxrss in KiB
_SPAWN = """
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def place(tree: Path, flags: list, out: Path) -> tuple[float, float]:
    """Seconds from spawn to exit of one `place` call on `tree`, and its peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, *flags, "-m", "edgesplit.cli", "place", "--config", CONFIG,
            "--out", str(out)]
    proc = subprocess.run([sys.executable, "-S", "-c", _SPAWN, *argv], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the spawner of {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    seconds, code, kib = proc.stdout.split()
    if code != "0":
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {code}: {proc.stderr}")
    return float(seconds), int(kib) / 1024.0


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
        runs = {(side, " ".join(flags)): [] for flags in settings for side in trees}
        try:
            for flags in settings:
                for side in trees:
                    place(trees[side], flags, out)
            for i in range(args.spawns):
                for flags in settings:
                    for side in ("a", "b") if i % 2 == 0 else ("b", "a"):
                        runs[side, " ".join(flags)].append(place(trees[side], flags, out))
        except RuntimeError as exc:
            print(f"startup_diff: {exc}", file=sys.stderr)
            return 1

    print(f"python {sys.version.split()[0]}; PYTHONDONTWRITEBYTECODE="
          f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '(unset)')}; "
          f"`place --config {CONFIG}`, {args.spawns} interleaved spawns per row")
    for flags in settings:
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            calls = runs[side, " ".join(flags)]
            q1, median, q3 = statistics.quantiles([1e3 * t for t, _ in calls], n=4)
            rss = statistics.median(mb for _, mb in calls)
            print(f"  python{' ' + ' '.join(flags) if flags else '   '} {rev}: median {median:.1f} ms "
                  f"(quartiles {q1:.1f}-{q3:.1f}), peak RSS {rss:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
