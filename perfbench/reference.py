"""Reference outcomes of a workload, from a fresh interpreter.

    python3 perfbench/reference.py --workload W --seed N [--smoke]

runs the workload's campaigns on the ``accel=False`` reference path and
prints their per-item outcomes and summaries as JSON.  It is its own
interpreter so the reference path's memory never counts toward the
measured campaign.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import WORKLOADS, smoke  # noqa: E402

#: pool size of the reference run (outcomes do not depend on it)
REFERENCE_PROCESSES = 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    from repro.campaign.engine import execute
    from repro.campaign.plans import get_spec

    from perfbench.campaign import engine_options, outcome_items

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    spec = get_spec(workload.kind)
    items: dict[str, str] = {}
    summary = []
    for config in workload.configs(args.seed, spec):
        plan = spec.build(dict(config, accel=False))
        results = execute(plan.units, engine_options(REFERENCE_PROCESSES),
                          context=plan.context)
        summary.append(spec.summarize(spec.aggregate(plan.config, results)))
        items.update(outcome_items(plan, results))
    print(json.dumps({"items": items, "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
