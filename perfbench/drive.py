"""One repetition of a workload, driven through the public API.

A repetition is what a user pays for one run of the workload, set-up
included: ``session`` workloads compile, open a :class:`repro.api.Session`,
run it and close it (rank processes included); the ``service`` workload
opens a :class:`repro.service.SchedulerService` and sends its whole job
stream from one closed-loop client.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.api import Session
from repro.service import ResultCache, SchedulerError, SchedulerService

from layers import ATTRS, END, NAME, START

__all__ = ["Rep", "run_rep", "setup_trial"]


@dataclass
class Rep:
    """What one repetition measured and produced."""

    wall_s: float
    #: index range of this repetition's spans in the tracer
    spans: range = range(0)
    #: start of the repetition (perf_counter), for set-up time
    t0: float = 0.0
    #: (job or None, RunResult) pairs to check
    runs: List[tuple] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: program counters of the repetition (boundary, cache, bytes)
    counters: Dict[str, float] = field(default_factory=dict)
    #: summed peak RSS of the rank processes alive at the end, KiB
    children_kib: int = 0
    plan: object = None


def _children_hwm_kib() -> int:
    total = 0
    for proc in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{proc.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def _session_rep(bw) -> Rep:
    t0 = time.perf_counter()
    plan = bw.workload.compile(**bw.compile_kwargs)
    with Session(plan) as session:
        sweep = session.run()
        children = _children_hwm_kib()
    wall = time.perf_counter() - t0
    (run,) = sweep.runs
    counters = {
        "boundary.solves": sweep.boundary_solves,
        "boundary.hits": sweep.boundary_hits,
    }
    if run.comm is not None:
        counters["parallel.sse_bytes"] = sum(run.comm["sse"]["recv_bytes"])
        counters["parallel.sse_messages"] = sum(run.comm["sse"]["messages"])
    return Rep(
        wall, t0=t0, runs=[(None, run)], latencies=[wall], attempted=1,
        counters=counters, children_kib=children, plan=plan,
    )


def _service_rep(bw, jobs=None) -> Rep:
    rep = Rep(0.0, t0=time.perf_counter())
    cache = ResultCache(max_entries=bw.cache_entries)
    with SchedulerService(mode="sync", cache=cache) as svc:
        for job in bw.jobs if jobs is None else jobs:
            rep.attempted += 1
            t = time.perf_counter()
            handle = svc.submit(job.workload, tenant=job.tenant)
            try:
                sweep = svc.wait(handle)
            except SchedulerError:
                rep.failed += 1
                continue
            finally:
                rep.latencies.append(time.perf_counter() - t)
            rep.runs.extend((job, run) for run in sweep.runs)
        stats = svc.stats()
    rep.wall_s = time.perf_counter() - rep.t0
    rep.counters = {
        "boundary.solves": stats["boundary_solves"],
        "boundary.hits": stats["boundary_hits"],
        "service.cache_hits": stats["cache"]["hits"],
        "service.cache_misses": stats["cache"]["misses"],
        "service.cache_evictions": stats["cache"]["evictions"],
        "service.boundary_solves_saved": stats["boundary_solves_saved"],
    }
    return rep


def run_rep(bw, tracer=None) -> Rep:
    """One repetition; its spans are those ``tracer`` records meanwhile."""
    first = len(tracer.spans) if tracer is not None else 0
    rep = _session_rep(bw) if bw.kind == "session" else _service_rep(bw)
    if tracer is not None:
        rep.spans = range(first, len(tracer.spans))
    return rep


def setup_seconds(rep: Rep, spans) -> Optional[float]:
    """Start of the repetition to the first point solve, plus rank start-up.

    None when the repetition solved no point (every job a cache hit).
    """
    first_run = None
    spawn = 0.0
    for i in rep.spans:
        s = spans[i]
        if s[NAME] == "scba.run" and first_run is None:
            first_run = s[START]
        elif s[NAME] == "runtime.spawn":
            spawn += s[END] - s[START]
    if first_run is None:
        return None
    return first_run - rep.t0 + spawn


def solve_seconds(rep: Rep, spans) -> tuple:
    """(seconds in point solves without rank start-up, grid points, iterations)."""
    seconds, points, iterations = 0.0, 0, []
    for i in rep.spans:
        s = spans[i]
        if s[NAME] == "scba.run":
            seconds += s[END] - s[START]
            points += s[ATTRS]["points"]
            iterations.append(s[ATTRS]["iterations"])
        elif s[NAME] == "runtime.spawn":
            seconds -= s[END] - s[START]
    return seconds, points, iterations


def setup_trial(bw, tracer) -> Optional[float]:
    """Set-up only, where the API allows stopping before the first solve.

    Serial sessions stop after building every group's simulation; the
    service and distributed sessions run a repetition (the service with
    its first job only), since their set-up ends inside the first solve.
    """
    first = len(tracer.spans)
    if bw.kind == "service":
        rep = _service_rep(bw, bw.jobs[:1])
    elif bw.compile_kwargs.get("runtime", "serial") == "serial":
        t0 = time.perf_counter()
        plan = bw.workload.compile(**bw.compile_kwargs)
        with Session(plan) as session:
            for gi in range(plan.n_groups):
                session.simulation(gi)
            return time.perf_counter() - t0
    else:
        rep = _session_rep(bw)
    rep.spans = range(first, len(tracer.spans))
    return setup_seconds(rep, tracer.spans)
