"""One benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

`run.py` starts this script, times it from spawn until it prints READY (the
set-up time), and reads the one JSON line it prints at the end. The worker
builds its inputs from the seed, runs a closed loop with one client (each
request starts after the previous one returns), checks every output, and
reports latencies of successful operations only.

Requests go through public entry points only: `edgesplit.cli.main(argv)`
and the functions the package exports. The correctness gates run outside
the timed region and outside any traced request.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

_now = time.perf_counter_ns

# Radio and compute constants of the reference experiment; the golden CSVs
# were produced from exactly this configuration.
BASE_PARAMS = {
    "tx_power_w": 0.1, "noise_w": 1e-10, "bandwidth_hz": 2e6,
    "local_freq_hz": 1e8, "edge_freq_hz": 1e10, "kappa": 1e-26,
    "beta_t": 0.5, "beta_e": 0.5, "updates_per_model": 50,
    "downlink_rate_bps": 26900450.249632121,
}
BASE_CHANNEL = {
    "kind": "pathloss_rayleigh", "distance_m": 50, "antenna_gain": 4.11,
    "carrier_hz": 915e6, "exponent": 3, "snr_floor_ratio": 1e-3,
}
GOLDEN_SWEEP_M = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
EXAMPLE_CONFIG = ROOT / "configs" / "autoencoder_d50.json"
GOLDEN_DIR = ROOT / "tests" / "golden"

MLP12 = {"mlp": {"neurons": [64] * 13, "lambda_bytes": 8, "mu_bytes": 8, "alpha": 100}}
RULE_STRATEGIES = ["optimal_exhaustive", "one_sla_exhaustive"]
PLAN_STRATEGIES = ["optimal_exhaustive", "one_sla_exhaustive", "hybrid"]
# name, network JSON, strategies in the fixed order of placement.STRATEGIES
PLAN_NETWORKS = (
    ("autoencoder", "autoencoder", PLAN_STRATEGIES),
    ("alexnet", "alexnet", PLAN_STRATEGIES),
    ("mlp12", MLP12, ["optimal_exhaustive", "one_sla_exhaustive", "mlp_closed_form", "hybrid"]),
)
UPDATES = (10, 50, 200, "inf")
DISTANCE_RANGE_M = (10.0, 120.0)
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

MC_TRIALS = 200_000
ORACLE_ATOMS = 4096
MC_BLOCK = 8  # the last request of every block replays the shipped example config
ORACLE_REL_TOL = 2e-3  # README certificate: oracle within 0.2% of backward induction
MC_SIGMAS = 6.0
GOLDEN_REL_TOL = 1e-9
ETC_REL_TOL = 1e-12
# Z(optimal) <= Z(hybrid) <= Z(one_sla): when two rules pick the same
# thresholds their costs are equal mathematically and agree to rounding only.
ORDER_REL_TOL = 1e-12
ONLINE_CHUNK = 4096
# self times vs the request wall time on the loop's own clock: a share of it,
# plus the tracer's bookkeeping at the request boundary, outside that clock
SELF_TIME_TOL = 0.05
SELF_TIME_TOL_NS_PER_REQUEST = 1000

PERCENTILE_WINDOWS = 10


def plan_config(network, distance_m, updates, strategies, **extra) -> dict:
    return {
        "network": network,
        "params": dict(BASE_PARAMS, updates_per_model=updates),
        "channel": dict(BASE_CHANNEL, distance_m=distance_m),
        "strategies": list(strategies),
        **extra,
    }


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Outcome:
    """Result of one request: ok, or the reason it failed."""

    __slots__ = ("ok", "error", "incorrect")

    def __init__(self, ok=True, error=None, incorrect=False):
        self.ok, self.error, self.incorrect = ok, error, incorrect


class Workload:
    """Base: a closed loop of `prepare` (untimed), `execute` (timed) and
    `check` (untimed) steps, plus post-loop gates in `finish`."""

    block = 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.out = tmp / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.cfg_path = tmp / "request.json"
        self.counts: dict[str, int] = {}
        self.errors: dict[str, int] = {}  # message -> occurrences

    def note(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def error(self, message):
        self.errors[message] = self.errors.get(message, 0) + 1

    def setup(self):
        pass

    def finish(self) -> list[Outcome]:
        return []

    def write_config(self, raw: dict) -> str:
        self.cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        return str(self.cfg_path)


# -- planning ------------------------------------------------------------------

class PlanWorkload(Workload):
    def setup(self):
        import edgesplit.cli

        self.cli = edgesplit.cli
        self.rng = random.Random(self.seed)

    def draw(self, i):
        raise NotImplementedError

    def prepare(self, i):
        name, network, strategies = PLAN_NETWORKS[i % len(PLAN_NETWORKS)]
        distance = self.draw(i)
        raw = plan_config(network, distance, self.rng.choice(UPDATES), strategies)
        argv = ["place", "--config", self.write_config(raw), "--out", str(self.out)]
        return argv, strategies

    def execute(self, inp):
        return self.cli.main(inp[0])

    def check(self, inp, rc) -> Outcome:
        if rc != 0:
            return Outcome(False, f"place exited {rc}")
        for strategy in inp[1]:
            self.note(f"placement.{strategy}")
        reports = json.loads((self.out / "placement.json").read_text(encoding="utf-8"))["reports"]
        best = {}
        for rep in reports:
            for row in rep["rows"]:
                z = row["Z"]
                if "error" not in row and not (isinstance(z, float) and math.isfinite(z)):
                    return Outcome(False, f"{rep['strategy']} M={row['M']} has Z={z!r}", True)
            best[rep["strategy"]] = next(r["Z"] for r in rep["rows"] if r["M"] == rep["best_M"])
        z_opt, z_hyb, z_sla = (best["optimal_exhaustive"], best["hybrid"],
                               best["one_sla_exhaustive"])
        slack = ORDER_REL_TOL * max(abs(z_opt), abs(z_sla))
        if not (z_opt <= z_hyb + slack and z_hyb <= z_sla + slack):
            return Outcome(False, f"Z order violated: optimal {z_opt!r}, hybrid {z_hyb!r}, "
                                  f"one_sla {z_sla!r}", True)
        return Outcome()

    def finish(self):
        return [self._golden("place", "placement.csv", "autoencoder_d50_k50_placement.csv", {}),
                self._golden("sweep", "sweep.csv", "autoencoder_distance_sweep.csv",
                             {"sweep": {"variable": "distance_m", "values": GOLDEN_SWEEP_M}})]

    def _golden(self, command, produced, golden, extra) -> Outcome:
        """Replay a frozen reference run and compare it cell by cell."""
        raw = plan_config("autoencoder", 50, 50, PLAN_STRATEGIES, trials=100000, seed=42, **extra)
        out = self.tmp / f"golden-{command}"
        out.mkdir(exist_ok=True)
        rc = self.cli.main([command, "--config", self.write_config(raw), "--out", str(out)])
        if rc != 0:
            return Outcome(False, f"golden {command} exited {rc}")
        got = _csv_body((out / produced).read_text(encoding="utf-8"))
        want = _csv_body((GOLDEN_DIR / golden).read_text(encoding="utf-8"))
        if len(got) != len(want):
            return Outcome(False, f"golden {command}: {len(got)} lines, expected {len(want)}", True)
        for g_row, w_row in zip(got, want):
            if len(g_row) != len(w_row) or not all(map(_cell_match, g_row, w_row)):
                return Outcome(False, f"golden {command}: {g_row} != {w_row}", True)
        return Outcome()


def _csv_body(text):
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def _cell_match(got: str, want: str) -> bool:
    try:
        w = float(want)
    except ValueError:
        return got == want
    return rel_close(float(got), w, GOLDEN_REL_TOL) or float(got) == w


class PlanCold(PlanWorkload):
    """Every request has a fresh distance, so every channel expectation is new.

    Plan cost varies threefold with distance. Each network's distances are a
    randomly shifted golden-ratio sequence over the range: every distance is
    uniform on the range and none repeats, and any run of requests covers the
    range evenly, so a run sees the same mix of distances whatever the seed."""

    def setup(self):
        super().setup()
        self.shift = [self.rng.random() for _ in PLAN_NETWORKS]

    def draw(self, i):
        k = len(PLAN_NETWORKS)
        lo, hi = DISTANCE_RANGE_M
        return lo + (hi - lo) * ((self.shift[i % k] + (i // k) * INV_PHI) % 1.0)


class PlanWarm(PlanWorkload):
    """Three fixed distances per network; K changes the objective but not the
    thresholds, so after one request per distance every expectation repeats.
    That first request per distance runs in set-up."""

    def setup(self):
        super().setup()
        self.distances = [[self.rng.uniform(*DISTANCE_RANGE_M) for _ in range(3)]
                          for _ in PLAN_NETWORKS]
        for i in range(3 * len(PLAN_NETWORKS)):
            self.execute(self.prepare(i))

    def draw(self, i):
        k = len(PLAN_NETWORKS)
        return self.distances[i % k][(i // k) % 3]


# -- online splitting ------------------------------------------------------------

class OnlineSplit(Workload):
    """Per-inference split decisions with policies built in set-up."""

    def setup(self):
        import numpy as np

        import edgesplit as es
        from edgesplit.cost_model import CostModel

        self.np = np
        self.es = es
        self.rng = np.random.default_rng(self.seed)
        self.policies = []  # (policy, network, params, mean SNR, SNR floor, cost model index)
        self.cost_models = []
        for name in ("autoencoder", "alexnet"):
            distance = float(self.rng.uniform(*DISTANCE_RANGE_M))
            cfg = es.load_config(plan_config(name, distance, 50, PLAN_STRATEGIES))
            net, params = cfg.network, cfg.params
            dists = cfg.stage_dists(net.N + 1)
            law = dists[0]
            self.cost_models.append(CostModel(net, params))
            for rule in ("optimal", "one_sla"):
                for M in range(net.N + 1):
                    if M == 0:
                        policy = es.forced_offload_policy(rule, net, params, dists)
                    elif rule == "optimal":
                        policy = es.backward_induction(M, net, params, dists)
                    else:
                        policy = es.one_sla_thresholds(M, net, params, dists)
                    self.policies.append((policy, net, params, law.mean_snr, law.support_lo,
                                          len(self.cost_models) - 1))
        width = max(p[0].horizon_M for p in self.policies) + 1
        self.width = width
        self.thresholds = np.full((len(self.policies), width), np.inf)
        for k, p in enumerate(self.policies):
            self.thresholds[k, :p[0].horizon_M] = p[0].thresholds
        self.horizon = np.array([p[0].horizon_M for p in self.policies])
        self.means = np.array([p[3] for p in self.policies])
        self.floors = np.array([p[4] for p in self.policies])
        self.model_of = np.array([p[5] for p in self.policies])
        self._new_chunk()

    def _new_chunk(self):
        np = self.np
        n = ONLINE_CHUNK
        self.idx = self.rng.integers(0, len(self.policies), size=n)
        u = self.rng.random((n, self.width))
        # truncated exponential on [floor, inf): floor + Exp(mean), drawn here
        # independently of the program's own sampler
        self.snrs = self.floors[self.idx, None] - self.means[self.idx, None] * np.log1p(-u)
        self.stages = np.zeros(n, dtype=int)
        self.costs = np.zeros(n)
        self.pos = 0

    def prepare(self, i):
        if self.pos == ONLINE_CHUNK:
            self.verify_chunk(ONLINE_CHUNK)
            self._new_chunk()
        j = self.pos
        self.pos += 1
        k = self.idx[j]
        policy, net, params = self.policies[k][:3]
        return j, (policy, self.snrs[j, :policy.horizon_M + 1].tolist(), net, params)

    def execute(self, inp):
        return self.es.apply_rule(*inp[1])

    def check(self, inp, out) -> Outcome:
        j = inp[0]
        self.stages[j] = out.stage
        self.costs[j] = out.realized_etc
        return Outcome()

    def verify_chunk(self, n):
        """Stage = first crossing, computed here; cost = CostModel.etc_values."""
        np = self.np
        idx, snrs = self.idx[:n], self.snrs[:n]
        hit = snrs >= self.thresholds[idx]
        first = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, self.horizon[idx] + 1)
        gammas = snrs[np.arange(n), first - 1]
        want = np.empty(n)
        for m, cm in enumerate(self.cost_models):
            sel = self.model_of[idx] == m
            want[sel] = cm.etc_values(first[sel], gammas[sel])
        wrong = np.flatnonzero((first != self.stages[:n])
                               | (np.abs(self.costs[:n] - want) > ETC_REL_TOL * np.abs(want)))
        if wrong.size:
            j = int(wrong[0])
            self.error(f"decision: stage {self.stages[j]}, cost {self.costs[j]!r}; expected "
                       f"stage {first[j]}, cost {want[j]!r}")
            self.note("incorrect", int(wrong.size))
        self.note("verified", n)

    def finish(self):
        self.verify_chunk(self.pos)
        self.pos = ONLINE_CHUNK
        return []


# -- Monte Carlo validation ----------------------------------------------------

class McValidate(Workload):
    """`simulate` through the CLI, then the DP oracle and the coincidence rate."""

    block = MC_BLOCK

    def setup(self):
        import edgesplit as es
        import edgesplit.cli

        self.es = es
        self.cli = edgesplit.cli
        self.rng = random.Random(self.seed)
        self.example = str(EXAMPLE_CONFIG)
        self.horizons = []

    def prepare(self, i):
        slot = i % MC_BLOCK
        if slot == MC_BLOCK - 1:
            return None, ["simulate", "--config", self.example, "--out", str(self.out)]
        if slot == 0:
            # every block covers horizons 2..8 once, in seeded order
            self.horizons = list(range(2, MC_BLOCK + 1))
            self.rng.shuffle(self.horizons)
        raw = plan_config(("autoencoder", "alexnet")[slot % 2],
                          self.rng.uniform(*DISTANCE_RANGE_M), 50, RULE_STRATEGIES,
                          horizon_M=self.horizons[slot], trials=MC_TRIALS,
                          seed=self.rng.randrange(2**31))
        return raw, ["simulate", "--config", self.write_config(raw), "--out", str(self.out)]

    def execute(self, inp):
        raw, argv = inp
        rc = self.cli.main(argv)
        if raw is None or rc not in (0, 4):
            return rc, None
        es = self.es
        cfg = es.load_config(raw)
        M = cfg.horizon_M
        dists = cfg.stage_dists(M + 1)
        oracle = es.oracle_dp(M, cfg.network, cfg.params, [d.discretize(ORACLE_ATOMS) for d in dists])
        es.coincidence_rate(M, cfg.network, cfg.params, dists, MC_TRIALS, cfg.seed)
        return rc, oracle

    def check(self, inp, out) -> Outcome:
        rc, oracle = out
        if inp[0] is None:
            self.note("example_config_requests")
            if rc == 2:
                self.note("example_config_exit2")
        if rc not in (0, 4):
            return Outcome(False, f"simulate exited {rc}" + (" (shipped example config)"
                                                             if inp[0] is None else ""))
        if rc == 4:
            self.note("check_misses_3sigma")
        if oracle is None:
            return Outcome()  # the example config succeeded: nothing more to compare
        self.note("generated_ok")
        results = json.loads((self.out / "sim.json").read_text(encoding="utf-8"))["results"]
        for entry in results:
            delta = abs(entry["mean_etc"] - entry["analytic_mean_etc"])
            if delta > MC_SIGMAS * entry["std_error"]:
                return Outcome(False, f"{entry['rule']}: MC mean off by {delta!r}, "
                                      f"more than {MC_SIGMAS} sigma", True)
            if entry["rule"] == "optimal":
                value = entry["policy"]["value_table"][0]
                if not rel_close(oracle.expected_cost, value, ORACLE_REL_TOL):
                    return Outcome(False, f"oracle {oracle.expected_cost!r} vs backward "
                                          f"induction {value!r}", True)
        return Outcome()


WORKLOADS = {"plan_cold": PlanCold, "plan_warm": PlanWarm,
             "online_split": OnlineSplit, "mc_validate": McValidate}


# -- the loop ------------------------------------------------------------------

class Loop:
    """Closed loop with one client; latencies of successful requests in ns."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.i = 0
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.ok_ns = array("q")
        self.all_ns = 0

    def account(self, outcome: Outcome):
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if outcome.incorrect:
                self.incorrect += 1
            self.wl.error(outcome.error)

    def run(self, seconds: float, tracer=None) -> int:
        """Run until `seconds` have passed and a block is complete; return
        the wall time of the requests in ns, as the loop's own clock saw it."""
        wl = self.wl
        deadline = _now() + int(seconds * 1e9)
        wall = 0
        while self.i % wl.block or _now() < deadline:
            inp = wl.prepare(self.i)
            if tracer is not None:
                tracer.begin_request(self.i)
            t0 = _now()
            try:
                out = wl.execute(inp)
                error = None
            except Exception:  # a crash fails this request; the loop goes on
                out, error = None, traceback.format_exc(limit=3)
            t1 = _now()
            if tracer is not None:
                tracer.end_request()
            wall += t1 - t0
            self.all_ns += t1 - t0
            self.i += 1
            outcome = Outcome(False, error) if error else wl.check(inp, out)
            self.account(outcome)
            if outcome.ok:
                self.ok_ns.append(t1 - t0)
        return wall


def percentile(values, q):
    """The q-th percentile as the median over up to PERCENTILE_WINDOWS runs of
    consecutive samples, each long enough to hold ten samples beyond it, so
    that one burst of machine noise moves one window and not the result.
    Returns the value and the number of windows."""
    import numpy as np

    samples = np.frombuffer(values, dtype=np.int64)
    windows = max(1, min(PERCENTILE_WINDOWS, len(samples) // math.ceil(10 / (1 - q / 100))))
    per_window = [np.percentile(w, q) for w in np.array_split(samples, windows)]
    return float(np.median(per_window)), windows


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


# -- metrics -------------------------------------------------------------------

# workload -> (unit, scale from ns, printed percentiles, the one that is
# the JSON `op_tail_ms`, throughput name). Decisions take microseconds and
# cluster at two latencies on a host whose cores switch between a fast and a
# slow state, so their median and p99 jump between runs; p90 stays put.
REPORTED = {
    "plan_cold": ("ms", 1e-6, {50: "plan_p50_ms", 95: "plan_p95_ms"}, 95, "plans_per_s"),
    "plan_warm": ("ms", 1e-6, {50: "plan_p50_ms", 95: "plan_p95_ms"}, 95, "plans_per_s"),
    "online_split": ("us", 1e-3, {50: "decision_p50_us", 90: "decision_p90_us",
                                  99: "decision_p99_us"}, 90, "decisions_per_s"),
    "mc_validate": ("s", 1e-9, {50: "validate_p50_s", 90: "validate_p90_s"}, 90,
                    "validates_per_s"),
}


def end_to_end(name: str, loop: Loop, report: list) -> dict:
    n = len(loop.ok_ns)
    if n == 0:
        raise RuntimeError(f"no request of {name} succeeded: {list(loop.wl.errors)[:3]}")
    unit, scale, printed, tail, rate_name = REPORTED[name]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = n / (loop.all_ns * 1e-9)
    report += [
        f"metric peak_rss_mb = {fmt(rss_mb)} MB",
        f"metric fail_ratio = {fmt(loop.failed / loop.attempted)} ratio "
        f"(failed {loop.failed} of {loop.attempted} attempted)",
    ]
    values = {}
    for q, metric in printed.items():
        values[q], windows = percentile(loop.ok_ns, q)
        beyond = (n - math.ceil(n * q / 100)) // windows
        report.append(f"metric {metric} = {fmt(values[q] * scale)} {unit} (n={n}, median of "
                      f"{windows} windows with {beyond} beyond each)")
    report.append(f"metric {rate_name} = {fmt(ops)} 1/s (n={n})")
    if name == "mc_validate":
        trials = 2 * MC_TRIALS * loop.wl.counts.get("generated_ok", 0)
        report.append(f"metric mc_trials_per_s = {fmt(trials / (loop.all_ns * 1e-9))} 1/s "
                      f"(simulate trials {trials}, n={n})")
    return {
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "op_tail_ms": {"value": values[tail] * 1e-6, "unit": "ms"},
    }


LAYERS = (
    "channel.partial_expect", "channel.pdf", "channel.cdf", "channel.quantile",
    "cost_model.lookup", "cost_model.build",
    "splitting.backward_induction", "splitting.one_sla_thresholds",
    "splitting.expected_etc", "splitting.apply_rule",
    "placement.optimal_exhaustive", "placement.one_sla_exhaustive",
    "placement.mlp_closed_form", "placement.hybrid",
    "simulate.simulate", "simulate.oracle_dp", "simulate.coincidence_rate",
    "config.load_config", "cli.main", "request",
)


def per_layer(name, tracer, loop, traced_wall_ns, untraced_mean_ns, report, problems) -> dict:
    from tracer import REQUEST

    t = tracer.totals()
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}
    get = lambda layer: t.get(layer, zero)  # noqa: E731
    n_req = get(REQUEST)["calls"]
    req_ns = get(REQUEST)["total_ns"]
    self_sum = sum(v["self_ns"] for v in t.values())
    ms = lambda ns: ns * 1e-6  # noqa: E731
    per = lambda x, k: x / k if k else 0.0  # noqa: E731
    traced_mean = traced_wall_ns / n_req
    overhead = traced_mean / untraced_mean_ns

    if name in ("plan_cold", "plan_warm"):
        expected = {"cli.main": n_req, "config.load_config": n_req}
        expected.update({k: v for k, v in loop.wl.traced_counts.items()
                         if k.startswith("placement.")})
    elif name == "online_split":
        expected = {"splitting.apply_rule": n_req}
        if get("cost_model.lookup")["calls"] < n_req:
            problems.append("fewer cost_model lookups than decisions")
    else:
        ok = loop.wl.traced_counts.get("generated_ok", 0)
        expected = {"cli.main": n_req, "simulate.simulate": 2 * ok,
                    "simulate.oracle_dp": ok, "simulate.coincidence_rate": ok}
    for layer, want in expected.items():
        if get(layer)["calls"] != want:
            problems.append(f"{layer}: {get(layer)['calls']} spans, expected {want}")
    allowed = SELF_TIME_TOL * traced_wall_ns + SELF_TIME_TOL_NS_PER_REQUEST * n_req
    if abs(self_sum - traced_wall_ns) > allowed:
        problems.append(f"self times {self_sum} ns vs request wall {traced_wall_ns} ns")

    lookup_us = per(get("cost_model.lookup")["self_ns"] * 1e-3, get("cost_model.lookup")["calls"])
    lines = [
        ("channel.partial_expect.calls", get("channel.partial_expect")["calls"], "count"),
        ("channel.partial_expect.ms", ms(get("channel.partial_expect")["total_ns"]), "ms"),
        ("channel.pdf.calls", get("channel.pdf")["calls"], "count"),
        ("channel.pdf.ms", ms(get("channel.pdf")["total_ns"]), "ms"),
        ("channel.cdf.calls", get("channel.cdf")["calls"], "count"),
        ("channel.quantile.ms", ms(get("channel.quantile")["total_ns"]), "ms"),
        ("cost_model.lookup.calls", get("cost_model.lookup")["calls"], "count"),
        ("cost_model.lookup.us_per_call", lookup_us, "us"),
        ("cost_model.build.calls", get("cost_model.build")["calls"], "count"),
    ]
    for fn in ("backward_induction", "one_sla_thresholds", "expected_etc"):
        lines += [(f"splitting.{fn}.calls", get(f"splitting.{fn}")["calls"], "count"),
                  (f"splitting.{fn}.self_ms", ms(get(f"splitting.{fn}")["self_ns"]), "ms")]
    lines.append(("splitting.apply_rule.self_us_per_call",
                  per(get("splitting.apply_rule")["self_ns"] * 1e-3,
                      get("splitting.apply_rule")["calls"]), "us"))
    for s in ("optimal_exhaustive", "one_sla_exhaustive", "mlp_closed_form", "hybrid"):
        lines += [(f"placement.{s}.total_ms", ms(get(f"placement.{s}")["total_ns"]), "ms"),
                  (f"placement.{s}.self_ms", ms(get(f"placement.{s}")["self_ns"]), "ms")]
    lines += [
        ("simulate.simulate.self_ms", ms(get("simulate.simulate")["self_ns"]), "ms"),
        ("simulate.oracle_dp.ms_per_call",
         per(ms(get("simulate.oracle_dp")["total_ns"]), get("simulate.oracle_dp")["calls"]), "ms"),
        ("simulate.coincidence_rate.ms", ms(get("simulate.coincidence_rate")["total_ns"]), "ms"),
        ("config.load_config.ms_per_call",
         per(ms(get("config.load_config")["total_ns"]), get("config.load_config")["calls"]), "ms"),
        ("cli.self_ms_per_request", per(ms(get("cli.main")["self_ns"]), get("cli.main")["calls"]), "ms"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]
    report.append(f"traced requests {n_req}: {ms(req_ns)} ms in request spans, self times sum "
                  f"to {ms(self_sum)} ms, loop clock {ms(traced_wall_ns)} ms "
                  f"(tolerance {SELF_TIME_TOL:.0%} + {SELF_TIME_TOL_NS_PER_REQUEST} ns per "
                  f"request); spans kept {len(tracer.spans)}, dropped {tracer.dropped}")
    for metric, value, unit in lines:
        report.append(f"metric {metric} = {fmt(value)} {unit} (over {n_req} traced requests)")

    metrics = {}
    for layer in LAYERS:
        v = get(layer)
        metrics[f"{layer}.calls_per_req"] = {"value": per(v["calls"], n_req), "unit": "count"}
        metrics[f"{layer}.self_pct"] = {"value": 100.0 * per(v["self_ns"], req_ns), "unit": "%"}
    metrics["cost_model.lookup.us_per_call"] = {"value": lookup_us, "unit": "us"}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics["simulate.check_misses_3sigma"] = {
        "value": loop.wl.counts.get("check_misses_3sigma", 0), "unit": "count"}
    return metrics


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory for request files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import edgesplit  # noqa: F401  (the import is part of set-up)

    tmp = Path(args.tmp)
    wl = WORKLOADS[args.workload](args.seed, tmp)
    wl.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    report = [f"env {json.dumps(environment(args.seed), sort_keys=True)}"]
    loop = Loop(wl)
    problems: list[str] = []
    if args.trace:
        from tracer import Tracer

        untraced_wall = loop.run(args.seconds / 3)
        untraced_mean = untraced_wall / loop.attempted
        before = dict(wl.counts)
        tracer = Tracer()
        tracer.install()
        missing = tracer.unwrapped_references()
        if missing:  # the tracer would not see these calls
            problems.append(f"unwrapped references: {missing}")
        start_attempted = loop.attempted
        traced_wall = loop.run(args.seconds * 2 / 3, tracer)
        tracer.uninstall()
        wl.traced_counts = {k: v - before.get(k, 0) for k, v in wl.counts.items()}
        if loop.attempted == start_attempted:
            raise RuntimeError("the traced phase completed no request")
        metrics = per_layer(args.workload, tracer, loop, traced_wall, untraced_mean,
                            report, problems)
        spans_path = tmp.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        report.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        loop.run(args.seconds)
        metrics = end_to_end(args.workload, loop, report)

    for outcome in wl.finish():
        loop.account(outcome)
    # decisions are verified a chunk at a time, after their latency was kept
    incorrect = loop.incorrect + wl.counts.get("incorrect", 0)
    failed = loop.failed + wl.counts.get("incorrect", 0)
    if args.workload == "online_split":
        report.append(f"gate apply_rule: {wl.counts.get('verified', 0)} decisions checked "
                      f"against an independent first crossing and CostModel.etc_values")
    if args.workload == "mc_validate":
        report.append(f"metric simulate.check_misses_3sigma = "
                      f"{wl.counts.get('check_misses_3sigma', 0)} count (CLI exit 4, not failures)")
        report.append(f"example config requests {wl.counts.get('example_config_requests', 0)}, "
                      f"exit 2: {wl.counts.get('example_config_exit2', 0)}")
    for p in problems:
        report.append(f"trace check failed: {p}")
    for message, count in wl.errors.items():
        report.append(f"error ({count}x): {message}")
    correct = incorrect == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": failed,
                      "metrics": metrics, "report": report}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
