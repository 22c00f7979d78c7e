"""Unified fault-injection campaign engine.

Every campaign in this repository — the software-level EPR campaigns
(:mod:`repro.swinjector.campaign`), the gate-level stuck-at campaigns
(:mod:`repro.faultinjection.campaign`) and the FAPR sweeps driven by
:mod:`repro.experiments.gate_experiments` — is an embarrassingly parallel
bag of independent *work units*. This package provides the one engine
they all run on:

* :class:`~repro.campaign.engine.WorkUnit` — an injection plan is split
  into independently seeded units, so results are bit-identical
  regardless of worker count or scheduling (:mod:`repro.campaign.engine`);
* a process-pool executor with per-unit timeouts, bounded retries with
  exponential backoff, ``fail_fast`` exception propagation, and graceful
  degradation to serial execution (:func:`repro.campaign.engine.execute`);
* a content-addressed golden-run cache so the fault-free reference of
  each ``(workload, scale, seed)`` is computed once per campaign instead
  of once per injection (:mod:`repro.campaign.goldens`);
* an append-only JSONL result store with a manifest that makes any
  campaign resumable after interruption, and whose ``status()`` is the
  campaign's tally of units, items, retries, cache hits and accel stats
  (:mod:`repro.campaign.store`);
* one function, :func:`~repro.campaign.plans.run_campaign`, that every
  entry point (CLI, library, smoke tests) runs campaigns through, so
  every campaign gets the same fingerprint guard and store layout.

``python -m repro.campaign`` exposes ``run`` / ``resume`` / ``status`` /
``verify`` / ``repair`` / ``smoke`` / ``chaos-smoke`` on top of the
registered campaign kinds (``epr``, ``gate``). See ``docs/CAMPAIGNS.md``
for the architecture and on-disk format, and ``docs/RESILIENCE.md`` for
the crash-safety / corruption-detection / chaos-testing layer
(:mod:`repro.resilience`).
"""

from repro.campaign.engine import (
    CampaignUnitError,
    EngineConfig,
    UnitResult,
    WorkUnit,
    default_processes,
    execute,
    register_runner,
)
from repro.campaign.goldens import GOLDEN_CACHE, GoldenCache, GoldenRun, golden_key
from repro.campaign.plans import CampaignPlan, chunked, get_spec, run_campaign
from repro.campaign.store import CampaignStore, config_fingerprint

__all__ = [
    "CampaignPlan",
    "CampaignStore",
    "CampaignUnitError",
    "EngineConfig",
    "GOLDEN_CACHE",
    "GoldenCache",
    "GoldenRun",
    "UnitResult",
    "WorkUnit",
    "chunked",
    "config_fingerprint",
    "default_processes",
    "execute",
    "get_spec",
    "golden_key",
    "register_runner",
    "run_campaign",
]
