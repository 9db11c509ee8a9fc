"""edgesplit benchmark: one workload, one closed-loop client, fresh interpreters.

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Workloads: plan_cold, plan_warm, online_split, mc_validate (see
perfbench/README.md for what each one stresses and why).

The script starts the worker interpreter SETUP_SPAWNS times. Each start is
timed from spawn until the worker has imported edgesplit and built its
inputs; `setup_s` is the median. The last worker goes on to run the
workload. With `--trace 0` the result carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. Human-readable lines,
one metric each with its unit and sample count, come first; the last line
of standard output is the JSON result. A record of each run is kept under
`.perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE = ROOT / ".perfbench"
WORKLOADS = ("plan_cold", "plan_warm", "online_split", "mc_validate")
SETUP_SPAWNS = 5
READY_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 150.0
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _wait_ready(proc: subprocess.Popen, timeout: float) -> None:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise BenchError(f"worker not ready after {timeout:.0f} s")
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise BenchError(f"worker failed during set-up (exit {proc.wait()})")


def _spawn(cmd, env, last: bool):
    """Start one worker; return (set-up seconds, result line or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        _wait_ready(proc, READY_TIMEOUT_S)
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S if last else READY_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        if not last:
            return setup, None
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return setup, json.loads(lines[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="edgesplit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "edgesplit" / "__init__.py").is_file():
        print(f"perfbench: no edgesplit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ, **BLAS_THREADS)
    STATE.mkdir(exist_ok=True)
    tmp = STATE / f"tmp-{os.getpid()}"
    tmp.mkdir()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", str(tmp)]
    spawns = 1 if args.trace else SETUP_SPAWNS
    setups, result = [], None
    try:
        for k in range(spawns):
            last = k == spawns - 1
            setup, result = _spawn(cmd + ([] if last else ["--setup-only"]), env, last)
            setups.append(setup)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    setup_s = statistics.median(setups)
    report = result.pop("report")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in report:
        print(line)
    if not args.trace:
        print(f"metric setup_s = {setup_s!r} s (median of n={len(setups)} interpreter starts)")
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    print(f"correct {result['correct']}, attempted {result['attempted']}, failed {result['failed']}")
    record = STATE / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "setup_samples_s": setups,
                                  "report": report, **result}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
