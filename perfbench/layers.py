"""Spans around calls into each layer's public functions.

The benchmark records its spans from outside ``src/``: :meth:`Tracer.patch`
replaces a module function or a class method with a wrapper that records
``[name, start, end, parent, attrs]`` and calls the original, and
:meth:`Tracer.restore` puts every original back.  Spans live in memory
until the run ends.  A span's self time is its duration minus the time
its child spans cover; calls are nested on one thread, so children never
overlap.

Two sets of wrappers exist.  :func:`probe_targets` is always installed:
it times ``SCBASimulation.run`` (solve time, grid points, iterations,
start of the first point) and rank start-up, a few spans per repetition.
:func:`layer_targets` adds one span per layer call for the traced run.
Forked rank processes inherit the wrappers but record nothing, so in the
distributed workload only parent-side time is split.
"""

from __future__ import annotations

import functools
import os
import time
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.api.plan as plan
import repro.api.workload as workload
import repro.negf.engine as engine
import repro.negf.scba as scba
import repro.service.scheduler as scheduler
from repro.api import Session
from repro.model.performance import rgf_flops
from repro.negf.engine import BoundaryCache
from repro.negf.scba import SCBASimulation
from repro.negf.sse import sse_flop_estimate
from repro.parallel import DaceExchange, OmenExchange
from repro.runtime import DistributedSCBARuntime, PipeTransport, SimTransport
from repro.service import RankPool, ResultCache, SchedulerService

__all__ = [
    "Tracer",
    "probe_targets",
    "layer_targets",
    "self_times",
    "totals",
    "covered_seconds",
]

# span record fields
NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._patches: List[tuple] = []

    def _wrap(self, name, fn: Callable, measure: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:  # a forked rank process
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [label, 0.0, 0.0, parent, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if measure is not None:
                span[ATTRS] = measure(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, measure=None) -> None:
        original = getattr(owner, attr)
        inherited = attr not in vars(owner)
        setattr(owner, attr, self._wrap(name, original, measure))
        self._patches.append((owner, attr, original, inherited))

    def install(self, targets) -> "Tracer":
        for target in targets:
            self.patch(*target)
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, inherited = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# -- measurements attached to spans ---------------------------------------------

def _scba_run(args, kwargs, result) -> Dict[str, float]:
    s = args[0].s
    return {
        "iterations": result.iterations,
        "points": result.iterations * (s.Nkz * s.NE + s.Nqz * s.Nw),
    }


def _nbytes(arrays) -> int:
    return int(sum(a.nbytes for a in arrays if a is not None))


def _rgf(args, kwargs, result) -> Dict[str, float]:
    diag = args[0]
    upper = args[1]
    sigma = args[2] if len(args) > 2 else kwargs.get("sigma_lesser")
    cubes = sum(d.shape[-1] ** 3 for d in diag)
    # the Table-3 RGF model at this call's dimensions: batch x bnum blocks
    dims = SimpleNamespace(
        Nkz=1, NE=diag[0].shape[0], bnum=len(diag),
        block_size=(cubes / len(diag)) ** (1.0 / 3.0),
    )
    return {
        "flops": rgf_flops(dims),
        "bytes": _nbytes(diag) + _nbytes(upper) + _nbytes(sigma or ())
        + _nbytes(result.GR) + _nbytes(result.Gl) + _nbytes(result.Gg),
    }


def _sigma(args, kwargs, result) -> Dict[str, float]:
    G, dH, Dcomb = args[0], args[1], args[2]
    variant = args[5] if len(args) > 5 else kwargs.get("variant", "dace")
    Nkz, NE, NA, Norb, _ = G.shape
    Nqz, Nw, _, NB, N3D, _ = Dcomb.shape
    return {
        "flops": sse_flop_estimate(Nkz, NE, Nqz, Nw, NA, NB, N3D, Norb, variant),
        "bytes": _nbytes((G, dH, Dcomb, result)),
    }


def _pi(args, kwargs, result) -> Dict[str, float]:
    return {"bytes": _nbytes((args[0], args[1], args[2], result))}


def _electron_points(args, kwargs, result) -> Dict[str, float]:
    s = args[0].s
    return {"points": s.Nkz * s.NE}


def _phonon_points(args, kwargs, result) -> Dict[str, float]:
    s = args[0].s
    return {"points": s.Nqz * s.Nw}


def _call_name(args) -> str:
    return f"runtime.call.{args[1]}"


# -- what gets wrapped ----------------------------------------------------------

def probe_targets() -> list:
    """Wrappers the end-to-end metrics need: point solves and rank start."""
    return [
        (SCBASimulation, "run", "scba.run", _scba_run),
        (PipeTransport, "start", "runtime.spawn"),
        (SimTransport, "start", "runtime.spawn"),
    ]


def layer_targets() -> list:
    """One span per call into each layer's public functions."""
    return probe_targets() + [
        (plan, "compile_workload", "api.compile"),
        (Session, "run", "api.session_run"),
        (workload, "build_hamiltonian_model", "hamiltonian.build"),
        (SCBASimulation, "solve_electrons", "engine.electron", _electron_points),
        (SCBASimulation, "solve_phonons", "engine.phonon", _phonon_points),
        (BoundaryCache, "electron_row", "boundary.electron"),
        (BoundaryCache, "phonon_row", "boundary.phonon"),
        (engine, "rgf_solve_batched", "rgf.solve", _rgf),
        (scba, "sigma_sse", "sse.sigma", _sigma),
        (scba, "pi_sse", "sse.pi", _pi),
        (DistributedSCBARuntime, "run", "runtime.run"),
        (PipeTransport, "call_all", _call_name),
        (SimTransport, "call_all", _call_name),
        (DaceExchange, "run_iteration", "parallel.exchange"),
        (OmenExchange, "run_iteration", "parallel.exchange"),
        (SchedulerService, "submit", "service.submit"),
        (SchedulerService, "wait", "service.wait"),
        (scheduler, "price_plan", "service.price"),
        (ResultCache, "get", "service.cache_get"),
        (ResultCache, "put", "service.cache_put"),
        (RankPool, "execute", "service.execute"),
    ]


# -- aggregation ----------------------------------------------------------------

def self_times(spans: List[list], first: int = 0) -> np.ndarray:
    """Per-span self time of ``spans[first:]`` (duration minus children)."""
    out = np.array([s[END] - s[START] for s in spans[first:]])
    for s in spans[first:]:
        if s[PARENT] >= first:
            out[s[PARENT] - first] -= s[END] - s[START]
    return out


def totals(spans: List[list], first: int = 0) -> Dict[str, Dict[str, float]]:
    """Per span name: count, inclusive and self seconds, summed attrs."""
    own = self_times(spans, first)
    out: Dict[str, Dict[str, float]] = {}
    for s, self_s in zip(spans[first:], own):
        t = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += s[END] - s[START]
        t["self_s"] += float(self_s)
        for key, value in (s[ATTRS] or {}).items():
            t[key] = t.get(key, 0.0) + value
    return out


def covered_seconds(spans: List[list], first: int, skip: str) -> float:
    """Time under spans whose ancestors are all named ``skip`` (or none),
    excluding ``skip`` spans themselves: the wall the named layers cover."""
    covered = 0.0
    for i in range(first, len(spans)):
        s = spans[i]
        if s[NAME] == skip:
            continue
        p = s[PARENT]
        while p >= first and spans[p][NAME] == skip:
            p = spans[p][PARENT]
        if p < first:
            covered += s[END] - s[START]
    return covered
