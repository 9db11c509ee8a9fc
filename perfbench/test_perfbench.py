"""Smoke tests of the benchmark at tiny size, and of the tracer's wiring.

    python3 -m pytest perfbench -q

No timing is asserted: the numbers only have to be present, finite and
positive where the contract needs them, and every correctness gate must pass.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seconds="0.2"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    if workload == "mc_validate":
        # every eighth request replays the shipped example config, which exits 2
        assert result["failed"] == result["attempted"] // 8
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("plan_cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_by_name_import():
    import edgesplit
    import edgesplit.placement
    from tracer import Tracer

    original = edgesplit.placement.backward_induction
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_references() == []
        assert edgesplit.placement.backward_induction is not original
        assert edgesplit.backward_induction is edgesplit.placement.backward_induction
        raw = json.loads((ROOT / "configs" / "autoencoder_d50.json").read_text())
        raw["channel"]["distance_m"] = 47.25  # a law no earlier call has cached
        cfg = edgesplit.load_config(raw)
        dists = cfg.stage_dists(cfg.network.N + 1)
        tracer.begin_request(0)
        edgesplit.run_strategy("hybrid", cfg.network, cfg.params, dists)
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert edgesplit.placement.backward_induction is original
    totals = tracer.totals()
    assert totals["placement.hybrid"]["calls"] == 1
    assert totals["splitting.backward_induction"]["calls"] == 1
    assert totals["channel.pdf"]["calls"] > 0
    self_sum = sum(v["self_ns"] for v in totals.values())
    assert self_sum == totals["request"]["total_ns"]
