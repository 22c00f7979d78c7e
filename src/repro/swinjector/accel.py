"""Accelerated EPR injection: checkpointed differential replay.

The legacy path (:func:`repro.swinjector.campaign.run_one_injection`)
re-executes every injection from dynamic instruction 0.  But a permanent
fault is invisible until its *activation condition* first holds — the
victim warp sits on the faulty hardware, the instruction maps onto the
faulty unit, and an affected thread is in the execution mask — and until
then the faulty run is the golden run, bit for bit.  All three predicates
are closed-form over the golden trace
(:class:`repro.campaign.goldens.GoldenTrace`), so this module:

* computes every injection's activation sites without simulating
  (:func:`activation_sites`), classifying never-activating descriptors as
  Masked with zero simulated instructions;
* skips whole pre-activation launches (restoring the golden post-launch
  device snapshot so host-side reads between launches are identical) and
  resumes the first-activation launch from the latest golden checkpoint
  at or before the first site;
* declares Masked early when the post-activation state reconverges with a
  golden checkpoint at an aligned ``(launch, cta, executed)`` boundary
  and no activation sites remain.

Every shortcut is equivalence-preserving — outcomes, DUE reasons and
activation counts are bit-identical to the unaccelerated path (the
soundness arguments live in docs/PERFORMANCE.md, the proof-by-test in
tests/test_accel_equivalence.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.campaign.goldens import GoldenRun, GoldenTrace, cached_workload
from repro.common.exceptions import DeviceError
from repro.errormodels.models import ErrorModel
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device, LaunchResult
from repro.gpusim.snapshot import checkpoint_matches, restore_device
from repro.swinjector.instrumentation import NVBitPERfi, make_descriptor

_CK_RESTORES = obs.REGISTRY.counter("checkpoint_restores_total")
_PREFIX_SAVED = obs.REGISTRY.counter("prefix_instructions_saved_total")
_EARLY_EXITS = obs.REGISTRY.counter("early_exits_total")


class _EarlyMasked(Exception):
    """Raised by the round-boundary comparator when the faulty trajectory
    has provably reconverged with the golden run.  Deliberately *not* a
    DeviceError: it must never be classified as a DUE."""


@dataclass
class AccelStats:
    """Per-work-unit acceleration accounting (summed by the store's
    ``status()``)."""

    restores: int = 0
    saved_instructions: int = 0
    early_exits: int = 0
    #: injections classified without simulating a single instruction
    skipped: int = 0
    #: injections sharing a behaviorally identical descriptor's run
    collapsed: int = 0

    def as_dict(self) -> dict:
        return {"enabled": True, "restores": self.restores,
                "saved_instructions": self.saved_instructions,
                "early_exits": self.early_exits, "skipped": self.skipped,
                "collapsed": self.collapsed}


#: descriptor fields each model's injector actually reads (beyond the
#: dispatcher's victim selection).  Two descriptors agreeing on the
#: dispatcher fields AND these are behaviorally identical: the entire
#: faulty run is a deterministic function of them, so the injection is
#: simulated once and its outcome replicated (dynamic fault collapsing —
#: the EPR analog of gate-level fault dropping).  Derived from
#: repro/swinjector/injectors.py; verified by tests/test_accel_equivalence.py.
_RELEVANT_FIELDS: dict[str, tuple[str, ...]] = {
    "IRA": ("err_oper_loc", "bit_err_mask"),
    "IVRA": ("err_oper_loc", "bit_err_mask"),
    "IOC": ("replacement_op",),
    "IVOC": (),                      # raises at the first activation
    "IIO": ("bit_err_mask",),
    "WV": ("bit_err_mask",),
    "IAT": ("bit_err_mask",),
    "IAW": ("bit_err_mask",),
    "IAC": ("bit_err_mask",),
    "IAL": ("lane", "lane_enable_mode"),
    "IMS": ("bit_err_mask",),
    "IMD": ("bit_err_mask", "err_oper_loc"),
    # IPP picks its delegate from (bit_err_mask, lane, err_oper_loc)
    "IPP": ("bit_err_mask", "lane", "err_oper_loc"),
}


def behavior_key(desc) -> tuple | None:
    """Hashable behavioral identity of a descriptor, or ``None`` when the
    model is unknown (then never collapse)."""
    fields = _RELEVANT_FIELDS.get(desc.model.value)
    if fields is None:
        return None
    return (desc.model.value, desc.sm_id, desc.subpartition,
            tuple(sorted(desc.warp_slots)), desc.thread_mask,
            *(getattr(desc, f) for f in fields))


def _target_pc_mask(injector, program) -> np.ndarray:
    """Static pcs of *program* the injector's error functions attach to."""
    mask = np.zeros(len(program), dtype=bool)
    for pc in range(len(program)):
        mask[pc] = injector.targets(program[pc])
    return mask


def activation_sites(trace: GoldenTrace, desc, injector,
                     programs: dict) -> np.ndarray:
    """Global dynamic-instruction indices where *desc* activates.

    Evaluates the exact condition of ``NVBitPERfi._victims`` over the
    golden trajectory: warp coordinates match the descriptor, the static
    instruction is targeted by the model's injector, and the thread mask
    intersects the execution mask.  Valid for the whole faulty run up to
    (and including) the first returned site, because the faulty run is
    the golden run until then.
    """
    n = trace.ev_pc.size
    if n == 0 or not trace.coords:
        return np.zeros(0, dtype=np.int64)
    coord_ok = np.fromiter(
        (desc.matches_warp(sm, sub, slot) for sm, sub, slot in trace.coords),
        dtype=bool, count=len(trace.coords))
    ok = np.zeros(n, dtype=bool)
    for rec in trace.launches:
        s = rec.start_index
        e = s + rec.instructions_executed
        pc_ok = _target_pc_mask(injector, programs[rec.program])
        ok[s:e] = pc_ok[trace.ev_pc[s:e]]
    ok &= coord_ok[trace.ev_coord]
    ok &= (trace.ev_mask & np.uint32(desc.thread_mask & 0xFFFFFFFF)) != 0
    return np.flatnonzero(ok)


def run_one_injection_accel(app: str, model: ErrorModel, index: int,
                            config, golden: GoldenRun, trace: GoldenTrace,
                            watchdog: int, stats: AccelStats,
                            sites: np.ndarray | None = None):
    """Accelerated twin of ``run_one_injection`` — same outcome, less work.

    *sites* may be precomputed (the unit runner computes them once for
    epoch bucketing); otherwise they are derived here.
    """
    from repro.swinjector.campaign import InjectionOutcome

    desc = make_descriptor(model, config.seed, index)
    tool = NVBitPERfi(desc, site_filter=True)
    w = cached_workload(app, config.scale, config.seed)
    if sites is None:
        progs = {p.name: p for p in w.programs().values()}
        sites = activation_sites(trace, desc, tool.injector, progs)

    if sites.size == 0:
        # never activates: the faulty run IS the golden run
        stats.skipped += 1
        stats.saved_instructions += trace.total_instructions
        _PREFIX_SAVED.inc(trace.total_instructions)
        with obs.span("epr.inject", app=app, model=model.value,
                      index=index) as sp:
            sp.set(outcome="masked", accel="never-activates")
        return InjectionOutcome(app, model, "masked")

    first = int(sites[0])
    last = int(sites[-1])
    dev = Device(DeviceConfig(global_mem_words=config.mem_words))
    ck_at = {(c.launch, c.cta, c.executed): c for c in trace.checkpoints}
    state = {"launch": 0}

    def launcher(program, grid, block, params=(), shared_words=None):
        m = state["launch"]
        state["launch"] += 1
        rec = trace.launches[m] if m < len(trace.launches) else None

        if (rec is not None
                and rec.start_index + rec.instructions_executed <= first):
            # the whole launch precedes the first activation: restore the
            # golden post-launch snapshot (host reads between launches see
            # identical memory) and report the golden statistics
            restore_device(dev, trace.post_launch[m])
            stats.saved_instructions += rec.instructions_executed
            _PREFIX_SAVED.inc(rec.instructions_executed)
            return LaunchResult(
                program=rec.program, grid=rec.grid, block=rec.block,
                num_ctas=rec.num_ctas, warps_per_cta=rec.warps_per_cta,
                instructions_executed=rec.instructions_executed)

        resume = None
        if rec is not None and rec.start_index <= first:
            ck = trace.best_checkpoint(first)
            if ck is not None and ck.launch == m:
                resume = ck.resume()
                stats.restores += 1
                stats.saved_instructions += ck.executed
                _CK_RESTORES.inc()
                _PREFIX_SAVED.inc(ck.executed)

        hook = None
        if rec is not None:
            def hook(cta, executed, warps, shared_mem,
                     _base=rec.start_index, _m=m):
                idx = _base + executed
                if last >= idx:
                    return  # activation sites remain: cannot exit yet
                ck = ck_at.get((_m, cta, executed))
                if ck is not None and checkpoint_matches(dev, ck, warps,
                                                         shared_mem):
                    raise _EarlyMasked

        return dev.launch(program, grid, block, params=params,
                          shared_words=shared_words, watchdog=watchdog,
                          instrumentation=tool, round_hook=hook,
                          resume=resume)

    inject = obs.span("epr.inject", app=app, model=model.value, index=index)
    try:
        with inject:
            inject.set(outcome="due")  # stands unless the run completes
            try:
                bits = w.run(dev, launcher)
            except _EarlyMasked:
                stats.early_exits += 1
                _EARLY_EXITS.inc()
                inject.set(outcome="masked", accel="early-exit")
                return InjectionOutcome(app, model, "masked",
                                        activations=tool.activations)
            outcome = "masked" if np.array_equal(bits, golden.bits) else "sdc"
            inject.set(outcome=outcome)
    except DeviceError as exc:
        return InjectionOutcome(app, model, "due", due_reason=exc.reason,
                                activations=tool.activations)
    return InjectionOutcome(app, model, outcome,
                            activations=tool.activations)


__all__ = [
    "AccelStats",
    "activation_sites",
    "run_one_injection_accel",
]
