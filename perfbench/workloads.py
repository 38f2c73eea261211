"""The benchmark's three workloads, each generated from a seed.

A workload is a list of :class:`repro.api.Workload` inputs plus the way a
user would drive them: ``session`` workloads compile one workload and run
it through :class:`repro.api.Session`; the ``service`` workload is a
single closed-loop client sending jobs to a
:class:`repro.service.SchedulerService` (submit, wait, next job).

The seed sets ``DeviceSpec.seed`` (the random orbital blocks of the
synthetic device) and, on ``iv_tenants``, the job order, the bias of
every fresh job, which jobs are repeats and which tenant sends them.
The amount of work does not depend on the seed: SCBA runs use a fixed
number of Born iterations (``tolerance=0``), because the iteration count
to reach 1e-5 varies from 6 to 14 across device seeds 0-15 on the
quickstart device and would make every timing depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.api import SweepAxis, Workload, scenario

__all__ = ["Job", "BenchWorkload", "WORKLOADS", "make_workload"]


@dataclass(frozen=True)
class Job:
    """One service request of the ``iv_tenants`` stream."""

    workload: Workload
    tenant: str
    #: True when this job repeats an earlier job under another tenant
    repeat: bool = False


@dataclass
class BenchWorkload:
    """Generated inputs of one benchmark workload."""

    name: str
    #: ``session`` (one Session run per repetition) or ``service``
    kind: str
    #: the session workload (``kind == "session"``)
    workload: Optional[Workload] = None
    #: keyword arguments of ``Workload.compile``
    compile_kwargs: Dict[str, object] = field(default_factory=dict)
    #: the job stream (``kind == "service"``)
    jobs: List[Job] = field(default_factory=list)
    #: result-cache entries of the service (smaller than distinct jobs)
    cache_entries: int = 0


def _fixed_iterations(w: Workload, iterations: int) -> Workload:
    """Run exactly ``iterations`` Born iterations on every seed."""
    physics = replace(w.physics, tolerance=0.0, max_iterations=iterations)
    return replace(w, physics=physics)


def _quickstart(seed: int) -> Workload:
    base = scenario("quickstart")
    w = replace(base, device=replace(base.device, seed=seed))
    return _fixed_iterations(w, 9)


def quickstart(seed: int) -> BenchWorkload:
    return BenchWorkload(
        "quickstart", "session", _quickstart(seed), {"runtime": "serial"}
    )


def quickstart_pipe2(seed: int) -> BenchWorkload:
    return BenchWorkload(
        "quickstart_pipe2", "session", _quickstart(seed),
        {"runtime": "pipe", "ranks": 2},
    )


#: jobs per repetition of ``iv_tenants`` and how many of them repeat
IV_JOBS = 96
IV_REPEATS = 20
#: result-cache entries; a repeat always targets one of the last
#: ``IV_REPEAT_WINDOW`` fresh jobs, so it is a hit by construction
IV_CACHE_ENTRIES = 8
IV_REPEAT_WINDOW = 4
IV_TENANTS = 6


def iv_tenants(seed: int) -> BenchWorkload:
    """Single-point ballistic bias jobs on the ``finfet_iv`` device.

    Two energy grids make two structural groups; fresh jobs draw a bias
    in [0.1, 0.6] V, so no two fresh jobs share a cache key.
    """
    rng = random.Random(seed)
    base = scenario("finfet_iv")
    device = replace(base.device, seed=seed)
    grids = (base.grid, replace(base.grid, NE=24))
    n_fresh = IV_JOBS - IV_REPEATS
    grid_of = [grids[i % 2] for i in range(n_fresh)]
    rng.shuffle(grid_of)
    # repeats never come first, so there is always a fresh job to repeat
    repeat_at = set(rng.sample(range(1, IV_JOBS), IV_REPEATS))
    jobs: List[Job] = []
    fresh: List[Job] = []
    for i in range(IV_JOBS):
        if i in repeat_at:
            original = rng.choice(fresh[-IV_REPEAT_WINDOW:])
            tenant = rng.choice(
                [f"tenant-{t}" for t in range(IV_TENANTS)
                 if f"tenant-{t}" != original.tenant]
            )
            jobs.append(Job(
                replace(original.workload, name=tenant), tenant, repeat=True,
            ))
            continue
        tenant = f"tenant-{rng.randrange(IV_TENANTS)}"
        bias = rng.uniform(0.1, 0.6)
        job = Job(
            Workload(
                name=tenant, device=device, grid=grid_of[len(fresh)],
                physics=base.physics, sweeps=(SweepAxis("bias", (bias,)),),
            ),
            tenant,
        )
        fresh.append(job)
        jobs.append(job)
    return BenchWorkload(
        "iv_tenants", "service", jobs=jobs, cache_entries=IV_CACHE_ENTRIES
    )


WORKLOADS = {
    "quickstart": quickstart,
    "iv_tenants": iv_tenants,
    "quickstart_pipe2": quickstart_pipe2,
}


def make_workload(name: str, seed: int) -> BenchWorkload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return factory(seed)
