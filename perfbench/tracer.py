"""In-memory span tracer for edgesplit, installed from outside the package.

The tracer wraps the public functions and methods of each edgesplit module
listed in TARGETS. A wrapped call made while a request is open becomes a
span: name, start, end, parent span and request id. Calls made outside a
request (set-up, correctness gates) pass straight through.

Every span's duration is charged to its parent, so a span's self time is its
duration minus the time its children cover. Totals per name are exact for
every call. Individual spans are kept for the structural layers only and up
to MAX_SPANS of them; the hot leaves (`pdf`, `cdf`, `quantile`, the cost
table lookup) are aggregated, because a cold plan makes tens of thousands of
integrand evaluations.

Modules import each other's functions by name (`from .splitting import
backward_induction`), so wrapping the defining module is not enough: every
edgesplit module that holds the original object gets the wrapper.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

_now = time.perf_counter_ns

MAX_SPANS = 100_000

# (span name, owner, attribute, keep individual spans). The owner is a module
# path, or "module:Class" for a method. `run_strategy` spans are named
# `placement.<strategy>` after their first argument.
TARGETS = (
    ("channel.partial_expect", "edgesplit.channel:StageDistribution", "partial_expect", True),
    ("channel.pdf", "edgesplit.channel:StageDistribution", "pdf", False),
    ("channel.cdf", "edgesplit.channel:StageDistribution", "cdf", False),
    ("channel.quantile", "edgesplit.channel:StageDistribution", "quantile", False),
    ("cost_model.lookup", "edgesplit.cost_model", "cost_model", False),
    ("cost_model.build", "edgesplit.cost_model:CostModel", "__init__", False),
    ("splitting.backward_induction", "edgesplit.splitting", "backward_induction", True),
    ("splitting.one_sla_thresholds", "edgesplit.splitting", "one_sla_thresholds", True),
    ("splitting.expected_etc", "edgesplit.splitting", "expected_etc", True),
    ("splitting.apply_rule", "edgesplit.splitting", "apply_rule", True),
    ("placement", "edgesplit.placement", "run_strategy", True),
    ("simulate.simulate", "edgesplit.simulate", "simulate", True),
    ("simulate.oracle_dp", "edgesplit.simulate", "oracle_dp", True),
    ("simulate.coincidence_rate", "edgesplit.simulate", "coincidence_rate", True),
    ("config.load_config", "edgesplit.config", "load_config", True),
    ("cli.main", "edgesplit.cli", "main", True),
)

REQUEST = "request"


def _edgesplit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "edgesplit" or name.startswith("edgesplit."))]


class Tracer:
    """Span recorder; `install` wraps edgesplit, `uninstall` restores it."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list[tuple] = []  # (span id, name id, start, end, parent id, request id)
        self.dropped = 0
        self.request = None
        self._stack: list[list[int]] = []  # frames: [child ns, span id]
        self._next_id = 0
        self._installed: list[tuple] = []  # (holder, attribute, original)
        self._originals: list[object] = []
        self._id(REQUEST)

    # -- accounting ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self.index.get(name)
        if nid is None:
            nid = self.index[name] = len(self.calls)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def _close(self, nid, frame, parent, start, end, record):
        dur = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - frame[0]
        if parent is not None:
            parent[0] += dur
        if record:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[1], nid, start, end,
                                   parent[1] if parent is not None else 0, self.request))
            else:
                self.dropped += 1

    def _call(self, nid, record, fn, args, kwargs):
        if self.request is None:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1]
        if record:
            self._next_id += 1
            frame = [0, self._next_id]
        else:
            frame = [0, parent[1]]
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            self._close(nid, frame, parent, start, end, record)

    def begin_request(self, request_id) -> None:
        self.request = request_id
        self._next_id += 1
        self._stack = [[0, self._next_id]]
        self._request_start = _now()

    def end_request(self) -> None:
        end = _now()
        frame = self._stack.pop()
        self._close(self.index[REQUEST], frame, None, self._request_start, end, True)
        self.request = None

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn, record):
        if name == "placement":
            ids = {}

            def wrapper(strategy, *args, **kwargs):
                nid = ids.get(strategy)
                if nid is None:
                    nid = ids[strategy] = self._id(f"placement.{strategy}")
                return self._call(nid, record, fn, (strategy,) + args, kwargs)
        else:
            nid = self._id(name)

            def wrapper(*args, **kwargs):
                return self._call(nid, record, fn, args, kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every target in the class or module that owns it and in
        every edgesplit module that imported it by name."""
        for _, owner, _, _ in TARGETS:
            importlib.import_module(owner.partition(":")[0])
        modules = _edgesplit_modules()
        for name, owner, attr, record in TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                holder = getattr(module, class_name)
                original = holder.__dict__[attr]
                setattr(holder, attr, self._wrap(name, original, record))
                self._installed.append((holder, attr, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, record)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._installed.append((mod, key, original))
            self._originals.append(original)

    def unwrapped_references(self) -> list[str]:
        """Names in edgesplit modules or classes that still hold an original."""
        originals = {id(o) for o in self._originals}
        found = []
        for mod in _edgesplit_modules():
            for key, value in vars(mod).items():
                if id(value) in originals:
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, member in vars(value).items():
                        if id(member) in originals:
                            found.append(f"{mod.__name__}.{key}.{attr}")
        return found

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        return {name: {"calls": self.calls[i], "total_ns": self.total_ns[i],
                       "self_ns": self.self_ns[i]}
                for name, i in self.index.items()}

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        names = {i: name for name, i in self.index.items()}
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, nid, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": names[nid], "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request}) + "\n")
