"""One rep of a workload, driven through the program's public campaign API.

For each of the workload's campaigns, one after the other, this is what
``python -m repro.campaign run`` does: write the manifest, execute the
plan's work units on the engine with a
:class:`~repro.campaign.store.CampaignStore` attached, read the sealed
results back and aggregate them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.engine import EngineConfig, UnitResult, execute
from repro.campaign.store import CampaignStore


@dataclass
class Rep:
    """Outcome and timing of one rep (every campaign of the workload)."""

    #: first manifest write -> last aggregate, the region ``items_per_s``
    #: is taken on
    wall: float
    #: time inside ``engine.execute``
    exec_wall: float
    #: results as returned by the engine (they carry worker trace data)
    results: dict[str, UnitResult]
    #: item id -> canonical outcome, read back from the stores
    items: dict[str, str]
    #: the program's summary of each campaign
    summary: list[dict]


def engine_options(processes: int) -> EngineConfig:
    """The CLI's engine defaults (retries, timeouts, quarantine on)."""
    return EngineConfig(processes=processes, fail_fast=False)


def run_rep(spec, plans, processes: int, directory: Path) -> Rep:
    rep = Rep(wall=0.0, exec_wall=0.0, results={}, items={}, summary=[])
    stored = []
    t0 = time.perf_counter()
    for i, plan in enumerate(plans):
        store = CampaignStore(directory / f"campaign{i}")
        store.write_manifest(plan.kind, plan.config, len(plan.units))
        t1 = time.perf_counter()
        rep.results.update(execute(plan.units, engine_options(processes),
                                   context=plan.context, store=store))
        rep.exec_wall += time.perf_counter() - t1
        stored.append(store.load_results())
        rep.summary.append(
            spec.summarize(spec.aggregate(plan.config, stored[-1])))
    rep.wall = time.perf_counter() - t0
    for plan, results in zip(plans, stored):
        rep.items.update(outcome_items(plan, results))
    return rep


def expected_items(plans) -> list[str]:
    """Every item id the plans cover, in unit order."""
    ids: list[str] = []
    for u in (u for plan in plans for u in plan.units):
        p = u.payload
        if u.kind == "epr":
            ids.extend(f"{p['app']}/{p['model']}/{i}" for i in p["indices"])
        else:
            ids.extend(f"{net}/{sa}" for net, sa in p["faults"])
    return ids


def outcome_items(plan, results: dict[str, UnitResult]) -> dict[str, str]:
    """Item id -> canonical outcome for every item of a completed unit.

    EPR items carry (outcome, DUE reason, activations); gate items carry
    the whole fault record.  Failed or missing units contribute nothing.
    """
    items: dict[str, str] = {}
    for u in plan.units:
        r = results.get(u.unit_id)
        if r is None or not r.ok or not r.value:
            continue
        p = u.payload
        if plan.kind == "epr":
            for i, o in zip(p["indices"], r.value["outcomes"]):
                items[f"{p['app']}/{p['model']}/{i}"] = (
                    f"{o['outcome']}|{o['due_reason']}|{o['activations']}")
        else:
            for rec in r.value["records"]:
                items[f"{rec['net']}/{rec['sa']}"] = json.dumps(
                    rec, sort_keys=True)
    return items


def digest(items: dict[str, str]) -> str:
    h = hashlib.sha256()
    for key in sorted(items):
        h.update(f"{key}={items[key]}\n".encode())
    return h.hexdigest()


def item_weight(plan) -> int:
    """Campaign items per plan item: one injection per EPR item, one
    (fault, stimulus) pair per stimulus for a gate fault."""
    if plan.kind == "gate":
        return len(plan.context["stimuli"])
    return 1
