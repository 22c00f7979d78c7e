"""Per-layer metrics and the wall-time breakdown of a traced run.

Worker-side seconds (everything inside a work unit) are divided by the
pool size P, so that in a pooled campaign they are wall-equivalent.  The
breakdown rows are

    wall = campaign.other + engine.dispatch(self) + store.append
           + store.load + sum(unit layer self times) / P + unattributed

``campaign.other`` is the rep's time outside ``execute`` that is not a
store read (store open, manifest write, aggregate, summary).  Two rows
are remainders, not measurements, so the rows add up to wall time by
construction: ``engine.dispatch_s`` is ``execute`` wall minus the summed
unit time over P (it includes the parent's store appends, which the
breakdown shows as their own row), and ``unattributed`` is unit time no
traced layer covers (engine per-unit wrapper, runner glue, descriptor
drawing, result encoding) over P.

What can fail is this: no row may be negative, every unit must return
its trace, no unit's traced layers may exceed its elapsed time, and
``unattributed`` may hold at most ``UNATTRIBUTED_CAP`` of wall time.  A
tracer that double-counts drives a remainder negative; one that misses a
layer swells ``unattributed``.
"""

from __future__ import annotations

import numpy as np

from perfbench.trace import Accumulator

#: tolerance of the negative-row and per-unit checks, in seconds
TOLERANCE_S = 1e-3
#: largest share of traced wall time ``unattributed`` may hold.  Measured
#: shares are under 4% on the full workloads; the ``--smoke`` sizes of
#: the self-tests, whose units are a few milliseconds, stay under 10%
UNATTRIBUTED_CAP = 0.15


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def campaign_breakdown(reps, processes: int, parent: Accumulator):
    """Breakdown of the traced reps: (rows, wall, engine.dispatch_s,
    merged unit spans, problems)."""
    units = Accumulator()
    elapsed = 0.0
    unit_rest = 0.0
    problems: list[str] = []
    tol = TOLERANCE_S
    for rep in reps:
        for r in rep.results.values():
            elapsed += r.elapsed
            data = getattr(r, "bench_trace", None)
            if data is None:
                problems.append(f"unit {r.unit_id} returned no trace")
                unit_rest += r.elapsed
                continue
            units.merge(data)
            rest = r.elapsed - sum(data["self_s"].values())
            if rest < -tol:
                problems.append(f"unit {r.unit_id}: traced layers exceed "
                                f"its elapsed time by {-rest:.4f}s")
            unit_rest += rest
    wall = sum(rep.wall for rep in reps)
    exec_wall = sum(rep.exec_wall for rep in reps)
    append_s = parent.self_s.get("store.append", 0.0)
    load_s = parent.self_s.get("store.load", 0.0)
    dispatch_s = exec_wall - elapsed / processes
    rows = {"campaign.other": wall - exec_wall - load_s,
            "engine.dispatch": dispatch_s - append_s,
            "store.append": append_s, "store.load": load_s}
    for name, v in sorted(units.self_s.items()):
        rows[name] = v / processes
    rows["unattributed"] = unit_rest / processes
    for name, v in rows.items():
        if v < -tol:
            problems.append(f"breakdown row {name} is negative ({v:.4f}s)")
    if rows["unattributed"] > UNATTRIBUTED_CAP * wall:
        problems.append(f"unattributed is {rows['unattributed'] / wall:.1%} "
                        f"of wall time, over the {UNATTRIBUTED_CAP:.0%} cap")
    return rows, wall, dispatch_s, units, problems


def layer_metrics(kind: str, reps, processes: int, parent: Accumulator,
                  setup: Accumulator, setup_wall: float,
                  weight: int) -> tuple[dict, dict, list[str]]:
    """(per-layer metric values, breakdown rows, problems)."""
    rows, wall, dispatch_s, units, problems = campaign_breakdown(
        reps, processes, parent)
    results = [r for rep in reps for r in rep.results.values()]
    elapsed_ms = [r.elapsed * 1e3 for r in results]
    accel: dict[str, float] = {}
    for r in results:
        for k, v in (r.accel or {}).items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                accel[k] = accel.get(k, 0) + v
    items = sum(r.items for r in results)
    pruned = sum(r.pruned for r in results)
    hits = sum(r.cache_hits for r in results)
    misses = sum(r.cache_misses for r in results)
    instr = units.counts.get("sim.instructions", 0)
    launch_proc_s = units.self_s.get("sim.launch", 0.0)
    classify_proc_s = units.self_s.get("classify", 0.0)
    calls = units.calls.get("classify", 0)
    saved = accel.get("saved_instructions", 0) if kind == "epr" else 0
    m = {
        "engine.dispatch_s": dispatch_s,
        "engine.units": len(results),
        "engine.unit_p50_ms": _pct(elapsed_ms, 50),
        "engine.unit_p99_ms": _pct(elapsed_ms, 99),
        "engine.retries": sum(r.retries for r in results),
        "store.append_s": rows.get("store.append", 0.0),
        "store.appends": parent.calls.get("store.append", 0),
        "store.load_s": rows.get("store.load", 0.0),
        "golden.build_s": setup.incl_s.get("golden.build", 0.0),
        "trace.build_s": setup.incl_s.get("trace.build", 0.0),
        "golden.hit_rate": _ratio(hits, hits + misses),
        "epr.plan_s": rows.get("epr.plan", 0.0),
        "epr.simulated_share": _ratio(
            items - accel.get("skipped", 0) - accel.get("collapsed", 0)
            - pruned, items) if kind == "epr" else 0.0,
        "epr.collapsed": int(accel.get("collapsed", 0)),
        "epr.skipped": int(accel.get("skipped", 0)),
        "epr.inject_self_s": rows.get("epr.inject", 0.0),
        "snapshot.restore_s": rows.get("snapshot.restore", 0.0),
        "snapshot.match_s": rows.get("snapshot.match", 0.0),
        "snapshot.restores": int(accel.get("restores", 0))
        if kind == "epr" else 0,
        "epr.early_exits": int(accel.get("early_exits", 0)),
        "epr.saved_instr_share": _ratio(saved, saved + instr),
        "sim.launch_s": rows.get("sim.launch", 0.0),
        "sim.instructions": int(instr),
        "sim.us_per_instr": _ratio(launch_proc_s, instr) * 1e6,
        "epr.time.due_watchdog_s":
            units.outcome_s.get("due_watchdog", 0.0) / processes,
        "epr.time.due_other_s": units.outcome_s.get("due_other", 0.0) / processes,
        "epr.time.sdc_s": units.outcome_s.get("sdc", 0.0) / processes,
        "epr.time.masked_s": units.outcome_s.get("masked", 0.0) / processes,
        "epr.inject_p50_ms": _pct(units.inject_ms, 50),
        "epr.inject_p99_ms": _pct(units.inject_ms, 99),
        "gate.cycle_s": rows.get("gate.cycle", 0.0),
        "gate.cycles": units.calls.get("gate.cycle", 0),
        "gate.replay_self_s": rows.get("gate.replay", 0.0),
        "gate.pairs_dropped_share": _ratio(
            accel.get("pairs_dropped", 0), items * weight)
        if kind == "gate" else 0.0,
        "classify_s": rows.get("classify", 0.0),
        "classify.calls": calls,
        "classify.us_per_call": _ratio(classify_proc_s, calls) * 1e6,
        "gate.setup.profile_s": setup.incl_s.get("gate.setup.profile", 0.0),
        "gate.setup.netlist_s": setup.incl_s.get("gate.setup.netlist", 0.0),
        "gate.setup.golden_s": setup.incl_s.get("gate.setup.golden", 0.0),
        "setup.wall_s": setup_wall,
        "breakdown.wall_s": wall,
        "breakdown.unattributed_s": rows.get("unattributed", 0.0),
    }
    return m, rows, problems


def setup_rows(setup: Accumulator, setup_wall: float) -> dict:
    """Self-time rows of the traced cold set-up (serial, in-process)."""
    rows = {name: v for name, v in sorted(setup.self_s.items()) if v}
    rows["unattributed"] = setup_wall - sum(rows.values())
    return rows
