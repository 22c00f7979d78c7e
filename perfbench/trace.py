"""Outside-in per-layer tracer for the campaign benchmark.

Spans are recorded from the benchmark's own files: while a :class:`Tracer`
is installed, the public functions of each layer are rebound, at the name
their callers look up, to wrappers that time the call.  Nothing under
``src/`` is edited, and with no tracer installed the program runs
untouched.

Each wrapper charges its *self* time (duration minus the time of traced
calls nested inside it) to a layer name.  Work units keep their own
accumulator: the engine's ``_execute_unit`` is rebound to
:func:`_traced_execute_unit`, which swaps in a fresh accumulator for the
unit and attaches its contents to the returned ``UnitResult``.  The pool
pickles that attribute back with the result, so timings recorded in
forked workers reach the parent instead of being dropped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

#: (module, attribute, wrapper kind, layer name).  Several names are
#: bound by import, so they are patched where the caller looks them up:
#: ``classify_output_diff``, ``build_unit`` and ``_golden_run`` in
#: ``repro.faultinjection.campaign``; ``restore_device`` and
#: ``checkpoint_matches`` in ``repro.swinjector.accel`` (plus the
#: snapshot module's own binding, used by mid-launch resume).
PATCHES = (
    ("repro.campaign.engine", "_execute_unit", "unit", None),
    ("repro.campaign.store", "CampaignStore.append_result", "span",
     "store.append"),
    ("repro.campaign.store", "CampaignStore.append_quarantine", "span",
     "store.append"),
    ("repro.campaign.store", "CampaignStore.load_results", "span",
     "store.load"),
    ("repro.campaign.goldens", "_compute", "span", "golden.build"),
    ("repro.campaign.goldens", "_trace_compute", "span", "trace.build"),
    ("repro.swinjector.accel", "activation_sites", "span", "epr.plan"),
    ("repro.swinjector.accel", "behavior_key", "span", "epr.plan"),
    ("repro.swinjector.accel", "run_one_injection_accel", "inject",
     "epr.inject"),
    ("repro.swinjector.accel", "restore_device", "span", "snapshot.restore"),
    ("repro.gpusim.snapshot", "restore_device", "span", "snapshot.restore"),
    ("repro.gpusim.snapshot", "materialize_warp", "span",
     "snapshot.restore"),
    ("repro.swinjector.accel", "checkpoint_matches", "span",
     "snapshot.match"),
    ("repro.gpusim.device", "Device.launch", "span", "sim.launch"),
    ("repro.gpusim.executor", "WarpExecutor.run_slice", "count",
     "sim.instructions"),
    ("repro.gatelevel.sim", "LogicSim.cycle", "span", "gate.cycle"),
    ("repro.faultinjection.campaign", "_replay_batch_accel", "span",
     "gate.replay"),
    ("repro.faultinjection.campaign", "classify_output_diff", "span",
     "classify"),
    ("repro.faultinjection.campaign", "build_unit", "span",
     "gate.setup.netlist"),
    ("repro.faultinjection.campaign", "_golden_run", "span",
     "gate.setup.golden"),
    ("repro.profiling", "profile_workloads", "span", "gate.setup.profile"),
)


class Accumulator:
    """Span totals of one scope (the parent, or one work unit)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: duration of every traced injection, in ms
        self.inject_ms: list[float] = []
        #: inclusive injection seconds per outcome bucket
        self.outcome_s: dict[str, float] = defaultdict(float)
        #: open spans, each a one-element list holding its children's time
        self.stack: list[list[float]] = []

    def export(self) -> dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls), "counts": dict(self.counts),
                "inject_ms": list(self.inject_ms),
                "outcome_s": dict(self.outcome_s)}

    def merge(self, data: dict) -> None:
        for key in ("self_s", "incl_s", "outcome_s"):
            target = getattr(self, key)
            for name, v in data[key].items():
                target[name] += v
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        self.inject_ms.extend(data["inject_ms"])


def outcome_bucket(outcome) -> str:
    if outcome.outcome == "due":
        return ("due_watchdog" if outcome.due_reason == "watchdog-timeout"
                else "due_other")
    return outcome.outcome


class Tracer:
    """Installs the span wrappers; use as a context manager."""

    def __init__(self) -> None:
        self.acc = Accumulator()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------
    def _span(self, name: str, fn, inject: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = tracer.acc
            frame = [0.0]
            acc.stack.append(frame)
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = time.perf_counter() - t0
                acc.stack.pop()
                acc.self_s[name] += dt - frame[0]
                acc.incl_s[name] += dt
                acc.calls[name] += 1
                if acc.stack:
                    acc.stack[-1][0] += dt
                if inject and out is not None:
                    acc.inject_ms.append(dt * 1e3)
                    acc.outcome_s[outcome_bucket(out)] += dt

        return wrapper

    def _count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = fn(*args, **kwargs)
            tracer.acc.counts[name] += n
            return n

        return wrapper

    # -- install / uninstall ---------------------------------------------
    def __enter__(self) -> "Tracer":
        global _ACTIVE, _ORIGINAL_EXECUTE_UNIT
        for module_name, attr, kind, name in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            if kind == "unit":
                wrapped = _traced_execute_unit
                _ORIGINAL_EXECUTE_UNIT = original
            elif kind == "count":
                wrapped = self._count(name, original)
            else:
                wrapped = self._span(name, original, inject=kind == "inject")
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)
        _ACTIVE = None


#: the installed tracer; module level because the unit wrapper must be
#: picklable by reference for the fork pool
_ACTIVE: Tracer | None = None
_ORIGINAL_EXECUTE_UNIT = None


def _traced_execute_unit(unit, attempt: int = 0):
    """Engine ``_execute_unit`` with a per-unit span accumulator whose
    contents travel back on the result (``bench_trace``)."""
    tracer = _ACTIVE
    outer = tracer.acc
    tracer.acc = acc = Accumulator()
    try:
        result = _ORIGINAL_EXECUTE_UNIT(unit, attempt)
    finally:
        tracer.acc = outer
    result.bench_trace = acc.export()
    return result
