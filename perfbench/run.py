#!/usr/bin/env python3
"""The repository benchmark: three workloads driven through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 35 --trace 0

Workloads: ``quickstart``, ``iv_tenants``, ``quickstart_pipe2`` (see
``perfbench/README.md``).  The run repeats the workload for
``--seconds``, checks every output against the oracle path, prints every
metric with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
unwrapped repetitions with repetitions whose layer calls are wrapped in
spans, and reports the per-layer metrics.  BLAS runs single-threaded and
``REPRO_*`` variables are cleared, so the caller's environment cannot
change the plan.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up samples per run: repetitions first, then set-up-only trials
MIN_SETUP_SAMPLES = 7

#: percentile of ``job_latency_tail_s`` by workload kind: the highest of
#: 95 and 75 with at least ten samples beyond it in a run (over a thousand
#: jobs on ``iv_tenants``, about 40 repetitions on a session workload)
TAIL_PERCENTILE = {"service": 95, "session": 75}

#: span-name prefix of each layer, for the self-time breakdown
LAYERS = (
    "api", "hamiltonian", "scba", "engine", "boundary", "rgf", "sse",
    "runtime", "parallel", "service",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _pin_environment() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"


# -- repetitions ------------------------------------------------------------------

def _safe_rep(bw, tracer=None):
    """A repetition; an exception is reported and counted as one failure."""
    from drive import Rep, run_rep

    t0 = time.perf_counter()
    try:
        return run_rep(bw, tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Rep(time.perf_counter() - t0, attempted=1, failed=1)


def _completed(reps):
    return [r for r in reps if r.runs]


def check_outputs(bw, reps) -> None:
    """Count every run that fails the oracle, flux or bytes check.

    A run outside the oracle's tolerance is judged again against the
    exact (dense-inversion) answer.  That is solved, when first needed,
    for every point sharing the run's device and grid, which also gives
    the oracle's rounding error there.
    """
    import check

    if bw.kind == "session":
        points = [bw.workload]
        refs = {bw.workload.cache_key(): check.oracle_session(bw.workload)}
    else:
        points = [j.workload for j in bw.jobs if not j.repeat]
        refs = check.oracle_jobs(points)
    exact = {}

    def judged(run, workload) -> bool:
        ref = refs[workload.cache_key()]
        if check.matches_oracle(run, ref):
            return True
        group = (workload.device, workload.grid, workload.physics)
        if group not in exact:
            if bw.kind == "session":
                answers = {workload.cache_key(): check.exact_session(workload)}
            else:
                answers = check.exact_jobs([
                    w for w in points if (w.device, w.grid, w.physics) == group
                ])
            rounding = check.rounding_error(
                [(refs[key], answer) for key, answer in answers.items()]
            )
            exact[group] = answers, rounding
        answers, rounding = exact[group]
        return check.matches_exact(
            run, ref, answers[workload.cache_key()], rounding
        )

    if bw.kind == "session":
        model = None
        for rep in _completed(reps):
            (_, run), = rep.runs
            ok = judged(run, bw.workload)
            if run.comm is not None:
                model = model or bw.workload.device.build()
                expected = check.sse_model_bytes(rep.plan, model, run)
                ok = ok and check.bytes_match_model(run, expected)
                rep.counters["parallel.bytes_over_model"] = (
                    sum(run.comm["sse"]["recv_bytes"]) / expected[0].total_bytes
                )
            rep.failed += not ok
        return
    for rep in _completed(reps):
        for job, run in rep.runs:
            ok = judged(run, job.workload) and check.conserves_flux(run)
            rep.failed += not ok


def _next_rep_fits(reps, start: float, seconds: float, count: int = 1) -> bool:
    """Whether ``count`` more repetitions of the mean length end in time."""
    elapsed = time.perf_counter() - start
    return elapsed + count * elapsed / len(reps) <= seconds


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


# -- end-to-end run -------------------------------------------------------------

def end_to_end(bw, seconds: float):
    """Untraced repetitions for ``seconds``; returns (metrics, reps, notes)."""
    import numpy as np

    from drive import setup_seconds, setup_trial, solve_seconds
    from layers import Tracer, probe_targets

    tracer = Tracer().install(probe_targets())
    reps = []
    rss_kib = 0
    try:
        start = time.perf_counter()
        while not reps or _next_rep_fits(reps, start, seconds):
            reps.append(_safe_rep(bw, tracer))
            if len(reps) == 1:
                # peak of one run of the workload, parent plus ranks
                rss_kib = reps[0].children_kib + resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss
        done = _completed(reps)
        if not done:
            return None, reps, []
        setups = [setup_seconds(r, tracer.spans) for r in done]
        setups = [s for s in setups if s is not None]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(setup_trial(bw, tracer))
    finally:
        tracer.restore()

    rates, iterations = [], []
    for rep in done:
        solve_s, points, its = solve_seconds(rep, tracer.spans)
        if solve_s > 0:
            rates.append(points / solve_s)
        iterations.extend(its)
    latencies = [x for r in done for x in r.latencies]
    metrics = {
        "wall_s": _median(r.wall_s for r in done),
        "setup_s": _median(setups),
        "grid_points_per_s": _median(rates),
        "iterations": _median(iterations),
        "jobs_per_s": len(latencies) / sum(r.wall_s for r in done),
        "job_latency_p50_s": float(np.percentile(latencies, 50)),
        "job_latency_tail_s": float(
            np.percentile(latencies, TAIL_PERCENTILE[bw.kind])
        ),
        "peak_rss_mib": rss_kib / 1024.0,
    }
    notes = [
        f"repetitions: {len(done)} ({len(reps) - len(done)} raised)",
        f"set-up samples: {len(setups)}",
        f"job latency samples: {len(latencies)} "
        f"(tail: p{TAIL_PERCENTILE[bw.kind]})",
    ]
    return metrics, reps, notes


# -- traced run -------------------------------------------------------------------

def _block_sizes(bw):
    """Electron and phonon RGF blocks and the SSE orbital block."""
    w = bw.workload if bw.kind == "session" else bw.jobs[0].workload
    d = w.device
    slab = d.slab_width * d.ny_rows
    n3d = 3  # vibration directions per atom
    return sorted({slab * d.Norb, slab * n3d, d.Norb})


def _roofline(gflops, flops, nbytes, peak, bandwidth) -> float:
    if gflops <= 0 or nbytes <= 0:
        return 0.0
    return gflops / min(peak, bandwidth * flops / nbytes)


def layer_metrics(rep, spans, probe):
    """Per-layer metrics of one traced repetition."""
    from layers import covered_seconds, totals

    t = totals(spans[: rep.spans.stop], rep.spans.start)

    def get(name, key="s"):
        return float(t.get(name, {}).get(key, 0.0))

    c = rep.counters
    m = {
        "api.compile_s": get("api.compile"),
        "api.session_self_s": get("api.session_run", "self_s"),
        "hamiltonian.build_s": get("hamiltonian.build"),
        "engine.electron_s": get("engine.electron"),
        "engine.phonon_s": get("engine.phonon"),
        "engine.self_s": get("engine.electron", "self_s")
        + get("engine.phonon", "self_s"),
        "engine.electron_points": get("engine.electron", "points"),
        "engine.phonon_points": get("engine.phonon", "points"),
        "boundary.electron_s": get("boundary.electron"),
        "boundary.phonon_s": get("boundary.phonon"),
        "boundary.solves": float(c["boundary.solves"]),
        "boundary.hits": float(c["boundary.hits"]),
        "scba.self_s": get("scba.run", "self_s"),
        "runtime.run_s": get("runtime.run"),
        "runtime.solve_gf_s": get("runtime.call.solve_gf"),
        "runtime.spawn_s": get("runtime.spawn"),
        "parallel.exchange_s": get("parallel.exchange"),
        "parallel.sse_bytes": float(c.get("parallel.sse_bytes", 0)),
        "parallel.sse_messages": float(c.get("parallel.sse_messages", 0)),
        "parallel.bytes_over_model": float(
            c.get("parallel.bytes_over_model", 0.0)
        ),
        "service.plan_s": get("service.price"),
        "service.execute_s": get("service.execute"),
        "service.self_s": get("service.wait", "self_s")
        + get("service.submit", "self_s"),
        "service.cache_hits": float(c.get("service.cache_hits", 0)),
        "service.cache_misses": float(c.get("service.cache_misses", 0)),
        "service.cache_evictions": float(c.get("service.cache_evictions", 0)),
        "service.boundary_solves_saved": float(
            c.get("service.boundary_solves_saved", 0)
        ),
        "trace.spans": float(len(rep.spans)),
        "trace.coverage_frac": covered_seconds(
            spans[: rep.spans.stop], rep.spans.start, "api.session_run"
        ) / rep.wall_s,
    }
    # boundary hits count grid points served from the cache; solves count
    # the left and right lead separately, two per point
    lookups = m["boundary.hits"] + m["boundary.solves"] / 2
    m["boundary.hit_ratio"] = m["boundary.hits"] / lookups if lookups else 0.0

    m["rgf.s"] = get("rgf.solve")
    m["rgf.calls"] = get("rgf.solve", "calls")
    m["rgf.model_gflop"] = get("rgf.solve", "flops") / 1e9
    m["rgf.computed_bytes"] = get("rgf.solve", "bytes")
    m["rgf.gflops"] = m["rgf.model_gflop"] / m["rgf.s"] if m["rgf.s"] else 0.0
    m["rgf.roofline_frac"] = _roofline(
        m["rgf.gflops"], m["rgf.model_gflop"], m["rgf.computed_bytes"] / 1e9,
        probe["probe.matmul_gflops"], probe["probe.stream_gbs"],
    )
    m["sse.sigma_s"] = get("sse.sigma")
    m["sse.pi_s"] = get("sse.pi")
    m["sse.calls"] = get("sse.sigma", "calls") + get("sse.pi", "calls")
    m["sse.model_gflop"] = get("sse.sigma", "flops") / 1e9
    m["sse.computed_bytes"] = get("sse.sigma", "bytes") + get("sse.pi", "bytes")
    m["sse.gflops"] = (
        m["sse.model_gflop"] / m["sse.sigma_s"] if m["sse.sigma_s"] else 0.0
    )
    m["sse.roofline_frac"] = _roofline(
        m["sse.gflops"], m["sse.model_gflop"],
        get("sse.sigma", "bytes") / 1e9,
        probe["probe.matmul_gflops"], probe["probe.stream_gbs"],
    )
    return m, t


def traced(bw, seconds: float, trace_path: Path):
    """Alternate unwrapped and wrapped repetitions; per-layer metrics."""
    import check
    from layers import Tracer, layer_targets
    from probe import matmul_gflops, stream_copy_gbs

    blocks = _block_sizes(bw)
    rates = {b: matmul_gflops(b) for b in blocks}
    stream = stream_copy_gbs()
    probe = {
        "probe.matmul_gflops": max(rates.values()),
        "probe.stream_gbs": stream["gbs"],
        "probe.stream_array_mib": stream["array_mib"],
        "probe.llc_mib": stream["llc_mib"],
    }

    tracer = Tracer()
    plain, wrapped = [], []

    def traced_rep():
        tracer.install(layer_targets())
        try:
            wrapped.append(_safe_rep(bw, tracer))
        finally:
            tracer.restore()

    start = time.perf_counter()
    while not wrapped or _next_rep_fits(plain + wrapped, start, seconds, 2):
        # alternate the order so warm-up does not favour either side
        if len(wrapped) % 2 == 0:
            plain.append(_safe_rep(bw))
            traced_rep()
        else:
            traced_rep()
            plain.append(_safe_rep(bw))

    done_plain, done_wrapped = _completed(plain), _completed(wrapped)
    if not done_wrapped:
        return None, plain + wrapped, []
    identical = bool(done_plain) and all(
        check.bit_identical(a, b)
        for (_, a), (_, b) in zip(done_plain[0].runs, done_wrapped[0].runs)
    )
    check_outputs(bw, plain + wrapped)

    per_rep = [layer_metrics(r, tracer.spans, probe) for r in done_wrapped]
    metrics = {
        name: _median(m[name] for m, _ in per_rep) for name in per_rep[0][0]
    }
    metrics.update(probe)
    metrics["trace.bit_identical"] = 1.0 if identical else 0.0
    traced_wall = _median(r.wall_s for r in done_wrapped)
    plain_wall = _median((r.wall_s for r in done_plain), traced_wall)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    _write_trace(trace_path, tracer.spans, done_wrapped)

    notes = [
        "wall s, unwrapped: "
        + " ".join(f"{r.wall_s:.4g}" for r in done_plain),
        "wall s, traced:    "
        + " ".join(f"{r.wall_s:.4g}" for r in done_wrapped),
        f"stream copy: 2 arrays of {stream['array_mib']:.0f} MiB each, "
        f"last-level cache {stream['llc_mib']:.0f} MiB",
        "complex128 matmul GFLOP/s by block: "
        + ", ".join(f"{b}: {r:.3g}" for b, r in rates.items()),
        f"spans: {trace_path}",
    ]
    notes += _layer_shares(per_rep[0][1], done_wrapped[0].wall_s)
    # a result changed by the wrappers counts as one failed operation
    done_wrapped[0].failed += not identical
    return metrics, plain + wrapped, notes


def _layer_shares(t, wall_s):
    """Self time per layer of the first traced repetition, as wall shares."""
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, stats in t.items():
        by_layer[name.split(".")[0]] += stats["self_s"]
    lines = ["layer self time (first traced repetition):"]
    for layer, self_s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {layer:<12} {self_s:10.4f} s  {100 * self_s / wall_s:6.2f} %"
        )
    return lines


def _write_trace(path: Path, spans, reps) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = spans[0][1] if spans else 0.0
    payload = {
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[s[0], s[1] - t0, s[2] - t0, s[3]] for s in spans],
        "repetitions": [[r.spans.start, r.spans.stop] for r in reps],
    }
    path.write_text(json.dumps(payload) + "\n")


# -- main -------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package at {ROOT / 'src' / 'repro'}; "
            "run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    _pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import make_workload

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in catalogue}

    bw = make_workload(args.workload, args.seed)
    if args.trace:
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        metrics, reps, notes = traced(bw, args.seconds, trace_path)
    else:
        metrics, reps, notes = end_to_end(bw, args.seconds)
        if metrics is not None:
            check_outputs(bw, reps)
    if metrics is None:
        print("perfbench: every repetition raised", file=sys.stderr)
        return 1

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if args.trace:
        metrics["failed_frac"] = failed / attempted
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print(line)
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for name in units:
        print(f"{name:<32} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
