"""Campaign benchmark: one workload, one seed, one run.

Phases, in order (see README.md for the rationale):

1. cold set-up, ``SETUP_SAMPLES - SETUP_AFTER`` times in this process
   (``spec.build``: golden runs and checkpoint traces, or netlist +
   stimulus profiling + golden replay), each from empty in-process
   caches; with ``--trace 1`` the last one is traced;
2. warm-up: the first work unit of every campaign, untimed, so lazy
   per-process caches are filled before timing;
3. timed window: reps of all the workload's campaigns, one campaign
   submitted at a time (closed loop), each through a fresh campaign
   store, until ``--seconds`` is used up (at least one rep; with
   ``--trace 1`` untraced and traced reps alternate, at least one of
   each);
4. peak RSS of this process and its pool workers;
5. the ``accel=False`` reference outcomes for this workload and seed
   (computed in a fresh interpreter, cached per seed under
   ``.perfbench/refs``), compared item by item with every rep;
6. with ``--trace 0``, ``SETUP_AFTER`` more cold set-ups, as in 1.

The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.workloads import HELD_OUT_SEED, TUNING_SEED, WORKLOADS, smoke

ROOT = Path(__file__).resolve().parent.parent
#: everything a run writes lives here (listed in .gitignore)
WORK = ROOT / ".perfbench"

#: cold set-up samples per run; ``setup_s`` is their median
SETUP_SAMPLES = 7
#: how many of them are taken after the timed window.  Samples taken
#: back to back share one phase of the host's speed, and its phases move
#: set-up time by up to 2x; samples on both sides of the window see more
#: than one phase
SETUP_AFTER = 3
MAX_REPS = 64

UNVALIDATED = ("note: outcomes come from a functional GPU model that is not "
               "validated against hardware; no accuracy figure is claimed")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Campaign benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=TUNING_SEED,
                    help=f"campaign seed (tuning seed {TUNING_SEED:#x}, "
                         f"held-out seed {HELD_OUT_SEED:#x})")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="length of the timed window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: print per-layer metrics from a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="shrink the workload to a few seconds (self-tests)")
    ap.add_argument("--perturb", choices=("outcome", "unit"),
                    help="self-test of the oracle: corrupt one outcome "
                         "before the reference check, or make one work "
                         "unit raise in every timed rep")
    return ap.parse_args(argv)


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one metric list of ``BENCHMARK.json``
    (``end_to_end`` or ``per_layer``), in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


# ---------------------------------------------------------------------
# cold set-up and the reference cache
# ---------------------------------------------------------------------

def clear_caches() -> None:
    """Empty every in-process cache that campaign set-up fills (golden
    runs, checkpoint traces, workload instances, netlists).  No disk
    spill is attached: the benchmark never calls ``persist_to``."""
    from repro.campaign.goldens import (
        CHECKPOINT_CACHE,
        GOLDEN_CACHE,
        cached_workload,
    )
    from repro.faultinjection.campaign import _cached_unit

    GOLDEN_CACHE.clear()
    CHECKPOINT_CACHE.clear()
    cached_workload.cache_clear()
    _cached_unit.cache_clear()


def cold_setups(spec, configs: list[dict], samples: int,
                tracer) -> tuple[list, list]:
    """Build the plans *samples* times, each from empty caches; the
    last build runs under *tracer* (None: untraced).  Returns the last
    build's plans (their caches stay filled) and the time of every
    build."""
    times = []
    for i in range(samples):
        # the previous build's plans and garbage would otherwise be
        # alive during this build and slow it
        plans = None
        clear_caches()
        gc.collect()
        last = i == samples - 1
        with tracer if last and tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            plans = [spec.build(c) for c in configs]
            times.append(time.perf_counter() - t0)
    return plans, times


def source_digest() -> str:
    """Digest of the program and of the benchmark code that produced a
    reference, so a cached reference never outlives either."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference(args, configs: list[dict]) -> dict:
    """Reference outcomes for (workload, seed): computed once per seed in
    a fresh process, then read from ``.perfbench/refs``."""
    key = hashlib.sha256(json.dumps(
        {"configs": configs, "source": source_digest()},
        sort_keys=True).encode()).hexdigest()[:32]
    path = WORK / "refs" / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text())
    cmd = [sys.executable, str(ROOT / "perfbench" / "reference.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True, timeout=170)
    ref = json.loads(out.stdout.strip().splitlines()[-1])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(ref))
    os.replace(tmp, path)
    return ref


def peak_rss_mb() -> float:
    """High-water RSS of this process and of its reaped children (the
    pool workers: nothing else has been started at this point)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------

def run(args) -> dict:
    from repro.campaign.engine import execute
    from repro.campaign.plans import get_spec

    from perfbench.campaign import (
        digest,
        engine_options,
        expected_items,
        item_weight,
    )
    from perfbench.trace import Tracer

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    spec = get_spec(workload.kind)
    configs = workload.configs(args.seed, spec)
    print(f"workload {workload.name} seed {args.seed} "
          f"processes {workload.processes} (closed loop, one campaign at "
          f"a time)")
    for config in configs:
        print(f"config {json.dumps(config, sort_keys=True)}")

    # 1. cold set-up
    setup_tracer = Tracer() if args.trace else None
    plans, setup_samples = cold_setups(
        spec, configs, SETUP_SAMPLES - SETUP_AFTER, setup_tracer)
    traced_setup_wall = setup_samples[-1]

    # 2. warm-up
    for plan in plans:
        execute(plan.units[:1], engine_options(1), context=plan.context)

    # 3. timed window
    tracer = Tracer()
    with failing_unit(plans[-1].units[-1]) if args.perturb == "unit" \
            else contextlib.nullcontext():
        reps = _timed_window(spec, plans, workload.processes, args, tracer)

    # 4. memory, before any other process is started
    rss = peak_rss_mb()

    # 5. reference check
    ref = reference(args, configs)
    expected = expected_items(plans)
    weight = item_weight(plans[0])
    if args.perturb == "outcome":
        reps[0][1].items[expected[0]] = "perturbed"
    print(f"reference digest {digest(ref['items'])}")
    attempted, failed, correct = _check(reps, ref, expected, weight)
    print(f"stats {json.dumps(reps[0][1].summary, sort_keys=True)}")
    print(UNVALIDATED)

    def ips(selected) -> float:
        """Completed items per second over all *selected* reps together:
        their items over their summed wall time.  Host speed drifts by a
        quarter within a run, so a rate over the whole window varies
        less from run to run than the median rep does."""
        selected = list(selected)
        return (sum(len(rep.items) for rep in selected) * weight
                / sum(rep.wall for rep in selected))

    if not args.trace:
        items_per_s = ips(rep for _, rep in reps)
        # 6. the rest of the cold set-up samples, with the campaign's
        # plans and results released, as before every other sample
        del reps, plans, plan
        setup_samples += cold_setups(spec, configs, SETUP_AFTER, None)[1]
        metrics = {
            "items_per_s": items_per_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss,
            "ok_share": 1.0 - failed / attempted,
        }
        units = metric_units("end_to_end")
    else:
        metrics, problems = _layer_report(
            workload, reps, tracer, setup_tracer, traced_setup_wall,
            weight, ips)
        units = metric_units("per_layer")
        correct &= not problems
    print(f"setup samples {[round(s, 4) for s in setup_samples]}")
    return {"correct": bool(correct and failed == 0),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(v), "unit": units[name]}
                        for name, v in metrics.items()}}


def _timed_window(spec, plans, processes: int, args, tracer) -> list:
    """Reps, one campaign at a time, until ``--seconds`` is used up:
    another rep starts while the reps so far have taken less than the
    window, so the timed span is never shorter than it.  With
    ``--trace 1`` every second rep runs under *tracer*.  Returns
    ``(traced, Rep)`` pairs."""
    from perfbench.campaign import run_rep

    workdir = WORK / "work" / str(os.getpid())
    reps: list[tuple[bool, object]] = []
    min_reps = 2 if args.trace else 1
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            directory = workdir / f"rep{len(reps)}"
            with tracer if traced else contextlib.nullcontext():
                rep = run_rep(spec, plans, processes, directory)
            shutil.rmtree(directory, ignore_errors=True)
            reps.append((traced, rep))
            elapsed = time.perf_counter() - start
            if len(reps) >= min_reps and (
                    elapsed >= args.seconds or len(reps) >= MAX_REPS):
                return reps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@contextlib.contextmanager
def failing_unit(unit):
    """Make *unit* raise every time it runs (``--perturb unit``): the
    engine retries it, then quarantines it."""
    from repro.campaign import engine

    runner = engine.get_runner(unit.kind)

    def broken(payload: dict) -> dict:
        if payload == unit.payload:
            raise RuntimeError("perturbed unit")
        return runner(payload)

    engine.register_runner(unit.kind)(broken)
    try:
        yield
    finally:
        engine.register_runner(unit.kind)(runner)


def _check(reps, ref: dict, expected: list[str],
           weight: int) -> tuple[int, int, bool]:
    """Compare every rep with the reference, item by item; returns
    (attempted items, failed items, correct).

    An item fails when it has no outcome (its unit failed or was
    quarantined, so the store holds no result for it) or when its outcome
    differs from the reference's.  The run is correct only if no item
    failed, every rep's summary equals the reference's, and the
    reference itself covers every item."""
    from perfbench.campaign import digest

    ref_items = ref["items"]
    missing = [k for k in expected if k not in ref_items]
    correct = not missing and len(ref_items) == len(expected)
    if not correct:
        print(f"reference incomplete: {len(missing)} of {len(expected)} "
              f"items missing, {len(ref_items)} present")
    attempted = failed = 0
    for i, (traced, rep) in enumerate(reps):
        lost = sum(k not in rep.items for k in expected)
        bad = sum(k in rep.items and rep.items[k] != ref_items.get(k)
                  for k in expected)
        units_failed = sum(not r.ok for r in rep.results.values())
        attempted += len(expected) * weight
        failed += (lost + bad) * weight
        same = rep.summary == ref["summary"]
        correct &= same
        print(f"rep {i}{' traced' if traced else ''}: {rep.wall:.3f}s "
              f"digest {digest(rep.items)} failed units {units_failed} "
              f"lost items {lost} mismatched items {bad} "
              f"stats {'match' if same else 'DIFFER'}")
    return attempted, failed, correct


def _layer_report(workload, reps, tracer, setup_tracer, setup_wall,
                  weight, ips):
    from perfbench.layers import layer_metrics, setup_rows

    traced = [rep for t, rep in reps if t]
    untraced = [rep for t, rep in reps if not t]
    metrics, rows, problems = layer_metrics(
        workload.kind, traced, workload.processes, tracer.acc,
        setup_tracer.acc, setup_wall, weight)
    metrics["untraced.items_per_s"] = ips(untraced)
    metrics["traced.items_per_s"] = ips(traced)
    metrics["trace.overhead_share"] = (
        1.0 - metrics["traced.items_per_s"]
        / metrics["untraced.items_per_s"])
    wall = metrics["breakdown.wall_s"]
    print(f"traced campaign breakdown over {len(traced)} rep(s), "
          f"wall {wall:.3f}s; unit time divided by {workload.processes} "
          f"process(es):")
    for name, v in sorted(rows.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<20} {v:10.4f}s {100 * v / wall:6.1f}%")
    print(f"breakdown {json.dumps({'wall_s': wall, 'rows': rows})}")
    print(f"traced cold set-up, wall {setup_wall:.3f}s (self times):")
    for name, v in setup_rows(setup_tracer.acc, setup_wall).items():
        print(f"  {name:<20} {v:10.4f}s")
    print(f"tracing overhead: {metrics['trace.overhead_share']:+.1%} "
          f"items/s ({metrics['traced.items_per_s']:.2f} traced vs "
          f"{metrics['untraced.items_per_s']:.2f} untraced)")
    for p in problems:
        print(f"trace problem: {p}")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0
