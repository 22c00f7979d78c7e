"""Workload generator: (workload name, seed) -> campaign configs.

The program only ever sees the generated configs. A workload fixes the
campaigns' shape (kind, apps, models, sizes, pool size); the seed draws
the campaign seeds, which draw the workload input data and every fault
descriptor or sampled fault.

An EPR workload is one campaign per app, each with its own campaign
seed.  The program draws a fault descriptor from (model, campaign seed,
injection index) alone, so a single campaign over several apps injects
the same faults into every app, and one unlucky draw (a fault that makes
every app run to completion, say) moves the whole campaign's time.  Per-app
seeds make the draws independent across apps at the same cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

#: the seed to tune on (the repository's default campaign seed)
TUNING_SEED = 0x5C23
#: a seed never used while tuning; performance claims are re-checked on it
HELD_OUT_SEED = 0x7E57


@dataclass(frozen=True)
class Workload:
    name: str
    #: campaign kind understood by ``repro.campaign.plans.get_spec``
    kind: str
    #: engine pool size (1 = serial, in the campaign process)
    processes: int
    #: overrides applied to the kind's default config
    overrides: tuple[tuple[str, object], ...]

    def configs(self, seed: int, spec) -> list[dict]:
        """The campaign configs the program receives for *seed*, run one
        after the other: one per app for EPR, one for gate."""
        base = spec.default_config(seed=int(seed) & 0xFFFFFFFF,
                                   **dict(self.overrides))
        if "apps" not in base:
            return [base]
        return [dict(base, apps=[app], seed=app_seed(seed, app))
                for app in base["apps"]]


def app_seed(seed: int, app: str) -> int:
    """Campaign seed of *app*'s campaign under workload seed *seed*."""
    digest = hashlib.sha256(f"{int(seed)}|{app}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


#: evaluation apps whose cost does not depend on the seed.  Left out:
#: lava, mxm, gemm, quicksort, lenet and yolov3, whose watchdog hangs cost
#: 0.2-1.9 s each, 20-200x a typical injection, so the number a seed draws
#: sets the campaign's time; accl and bfs, whose golden runs are 1.5-2.1x
#: longer for some seeds' input data (README.md, "Why not all 15 apps")
TINY_MIX_APPS = ("vectoradd", "hotspot", "gaussian", "lud", "nw", "cfd",
                 "mergesort")

#: per-kind size overrides of ``--smoke`` (self-tests: same code path,
#: seconds instead of minutes)
_SMOKE = {
    "epr": (("scale", "tiny"), ("apps", ["vectoradd", "bfs"]),
            ("models", ["WV", "IOC"]), ("injections_per_model", 12),
            ("chunk", 4)),
    "gate": (("max_faults", 96), ("max_stimuli", 4)),
}


def smoke(workload: Workload) -> Workload:
    """*workload* shrunk to a few seconds, same kind and pool size."""
    return replace(workload,
                   overrides=workload.overrides + _SMOKE[workload.kind])


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="epr-tiny-mix",
        kind="epr",
        processes=2,
        # the `repro.campaign run` defaults (all 11 SW-injectable models,
        # tiny scale, chunk 5) with 2 processes, on TINY_MIX_APPS
        overrides=(("scale", "tiny"), ("apps", list(TINY_MIX_APPS)),
                   ("injections_per_model", 12), ("chunk", 5)),
    ),
    Workload(
        name="epr-small-multilaunch",
        kind="epr",
        processes=1,
        # bfs is left out: its watchdog hangs at small scale (1.0-1.6 s)
        # and its seed-dependent length swing the time from seed to seed.
        # 16 injections per model, not 8: at 8 the fault draws alone
        # spread the campaign time by 0.13 (IQR over median) over seeds
        overrides=(("scale", "small"),
                   ("apps", ["gaussian", "lud", "nw"]),
                   ("injections_per_model", 16), ("chunk", 16)),
    ),
    Workload(
        name="gate-wsc",
        kind="gate",
        processes=1,
        overrides=(("unit", "wsc"), ("max_faults", 2048),
                   ("max_stimuli", 48)),
    ),
)}
