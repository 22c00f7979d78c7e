"""Campaign plans, the kind registry and the one way to run a campaign.

A *plan* is the fully-materialized, deterministic description of one
campaign: its config dict (what goes into the manifest), its work units
(what the engine executes) and optionally a process-wide context of large
shared inputs (what forked workers inherit copy-on-write).

Campaign kinds are contributed by the injection layers; each layer module
exposes a ``CAMPAIGN_SPEC`` object with four methods::

    default_config(**overrides) -> dict      # JSON-able, manifest-ready
    build(config: dict) -> CampaignPlan      # deterministic from config
    aggregate(config, results) -> result     # dict[unit_id, UnitResult] -> obj
    summarize(result) -> dict                # printable summary

``build`` must be a pure function of the config so that ``resume`` can
rebuild the identical plan from the manifest alone, and must raise
:class:`~repro.common.exceptions.ConfigError` on input it cannot run.

:func:`run_campaign` is the only path from a config to an aggregate: the
CLI, :func:`~repro.swinjector.campaign.run_epr_campaign`,
:func:`~repro.faultinjection.campaign.run_gate_campaign` and the smoke
self-tests all call it, so every campaign gets the same manifest and
fingerprint policy and the same store layout.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.common.exceptions import ConfigError
from repro.campaign.engine import EngineConfig, UnitResult, WorkUnit, execute
from repro.campaign.goldens import CHECKPOINT_CACHE, GOLDEN_CACHE

#: campaign kind -> module that defines its CAMPAIGN_SPEC (lazy import
#: keeps repro.campaign free of dependencies on the injection layers)
KINDS = {
    "epr": "repro.swinjector.campaign",
    "gate": "repro.faultinjection.campaign",
}

#: store subdirectories the golden-run and checkpoint-trace caches spill
#: to; traces stay out of ``goldens/``, whose ``*.npz`` entries ``verify``
#: digest-checks as golden runs
GOLDENS_DIRNAME = "goldens"
CHECKPOINTS_DIRNAME = "checkpoints"


@dataclass(frozen=True)
class CampaignPlan:
    kind: str
    config: dict
    units: tuple[WorkUnit, ...]
    #: large shared inputs installed via engine.set_context before forking
    context: dict | None = None
    #: golden-cache (hits, misses) charged to plan construction / warm-up
    warm_stats: tuple[int, int] = (0, 0)


def chunked(seq: Sequence, size: int) -> list[list]:
    """Split *seq* into contiguous chunks of at most *size* elements."""
    if size < 1:
        raise ConfigError(f"chunk size must be >= 1, got {size}")
    items = list(seq)
    return [items[i:i + size] for i in range(0, len(items), size)]


def get_spec(kind: str):
    """Resolve a campaign kind to its spec object (lazy import)."""
    try:
        module_name = KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown campaign kind {kind!r}; known: {sorted(KINDS)}")
    module = importlib.import_module(module_name)
    return module.CAMPAIGN_SPEC


def ensure_kind_loaded(kind: str) -> None:
    """Import the module providing *kind* so its runner registers."""
    if kind in KINDS:
        importlib.import_module(KINDS[kind])


def run_campaign(spec, config: dict, options: EngineConfig, *, store=None,
                 on_result: Callable[[UnitResult], None] | None = None,
                 build: Callable[[dict], CampaignPlan] | None = None):
    """Run one campaign end to end and return ``spec.aggregate``.

    With a *store* (:class:`~repro.campaign.store.CampaignStore`) the
    campaign is resumable: a store whose manifest was written for another
    ``(kind, config)`` raises :class:`ConfigError` before anything is
    built, a new store gets its manifest only once the plan was built
    (so rejected input never leaves one behind), units already recorded
    are skipped and their results merged into the aggregate. While the
    call runs, golden runs spill to ``<dir>/goldens/`` and checkpoint
    traces to ``<dir>/checkpoints/``, so a resume in a fresh process
    reuses them. *on_result* is passed to
    :func:`~repro.campaign.engine.execute` (the CLI's progress line).
    *build* replaces ``spec.build`` for callers that supply inputs the
    config only fingerprints (``run_gate_campaign``'s stimuli).
    """
    if store is not None:
        if store.manifest_path.exists():
            store.check_fingerprint(spec.kind, config)
        GOLDEN_CACHE.persist_to(store.directory / GOLDENS_DIRNAME)
        CHECKPOINT_CACHE.persist_to(store.directory / CHECKPOINTS_DIRNAME)
    try:
        plan = (build or spec.build)(config)
        if store is not None and not store.manifest_path.exists():
            store.write_manifest(plan.kind, plan.config, len(plan.units),
                                 extra={"golden_warm": {
                                     "hits": plan.warm_stats[0],
                                     "misses": plan.warm_stats[1]}})
        results = execute(plan.units, options, context=plan.context,
                          store=store, on_result=on_result)
    finally:
        if store is not None:
            GOLDEN_CACHE.persist_to(None)
            CHECKPOINT_CACHE.persist_to(None)
    if store is not None:
        obs.flush(store.directory)
        results = {**store.load_results(), **results}
    return spec.aggregate(plan.config, results)
