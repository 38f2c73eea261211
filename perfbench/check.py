"""Output checks: every result against the oracle path and the models.

* Oracle: the same inputs through ``engine="serial"`` with the pinned
  ``reference`` RGF kernel in the serial runtime.  Currents, dissipation
  and density must agree within 1e-10 (relative to the larger of 1 and the
  oracle's largest magnitude); ``converged`` and ``iterations`` must match.
* Exact answer: the RGF recursion loses accuracy where a left-connected
  block is nearly singular, even when the whole matrix is well
  conditioned, and the oracle is an RGF recursion too.  On one
  ``iv_tenants`` job (device seed 1903884388, NE=24, bias 0.273 V) the
  oracle's density is 3.9e-11 from the 40-digit answer and the
  program's 7.2e-11, in opposite directions, so the two differ by
  1.1e-10.  A run outside the oracle's 1e-10 is judged once more against
  the same inputs solved by dense inversion of the whole block-tridiagonal
  matrix (:class:`DenseKernel`, 1e-14 from the 40-digit answer there).
  It passes if it is within 1e-10 of that answer plus ten times the
  rounding error of the RGF recursion on its device and grid: the
  oracle's largest distance from the exact answer over the points that
  share them.  That error belongs to the device and the energy grid, but
  on one point it varies by a decade with the bias (device seed
  806402242: 8.7e-11 to 3.4e-9 in density).
* Flux: ballistic jobs must conserve current,
  ``|I_L + I_R| <= 5% |I_L| + 0.01``.  At ``eta=1e-6`` each lead current
  carries a zero-bias offset of about 2e-3 (device seeds 0-20, both
  grids), so the mismatch has a floor of about 5e-3 that does not shrink
  with the current; a sign or lead error shows as ``2 |I_L|``.
  The SCBA runs keep only diagonal Σ blocks and the Lake retarded
  approximation, which do not conserve current, so there the oracle
  comparison of ``I_L`` and ``I_R`` is the check.
* Bytes: a distributed run's per-rank SSE and residual bytes must equal
  the §4.1 models (``dace_exchange_stats``/``omen_exchange_stats`` and
  ``residual_allreduce_stats``) byte for byte.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import Session, SweepAxis, Workload
from repro.model.communication import (
    dace_exchange_stats,
    omen_exchange_stats,
    residual_allreduce_stats,
)
from repro.negf.kernels import RGFKernel, register_kernel
from repro.parallel import (
    CommStats,
    DaceDecomposition,
    OmenDecomposition,
    default_round_owner,
)

__all__ = [
    "ORACLE_RTOL",
    "ROUNDING_FACTOR",
    "FLUX_RTOL",
    "FLUX_ATOL",
    "DenseKernel",
    "oracle_session",
    "oracle_jobs",
    "exact_session",
    "exact_jobs",
    "matches_oracle",
    "rounding_error",
    "matches_exact",
    "conserves_flux",
    "bytes_match_model",
    "sse_model_bytes",
    "bit_identical",
]

ORACLE_RTOL = 1e-10
#: how many times the oracle's rounding error a run may add to
#: ``ORACLE_RTOL`` when judged against the exact answer
ROUNDING_FACTOR = 10.0
FLUX_RTOL = 0.05
FLUX_ATOL = 0.01

_COMPARED = ("current_left", "current_right", "density", "dissipation")
_ORACLE = {"runtime": "serial", "engine": "serial", "rgf_kernel": "reference"}
_EXACT = {
    "runtime": "serial", "engine": "batched", "rgf_kernel": "perfbench-dense",
}


def _H(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2).conj()


class DenseKernel(RGFKernel):
    """Diagonal blocks of ``inv(M)`` and ``Gᴿ Σ< Gᴬ`` by dense inversion.

    The batched form of :func:`repro.negf.rgf.dense_reference`: no
    recursion, so no left-connected block's conditioning enters.  Only
    the output checks use it.
    """

    name = "perfbench-dense"

    def _solve(self, diag, upper, sigma_lesser):
        offs = np.cumsum([0] + [d.shape[-1] for d in diag])
        blocks = [slice(a, b) for a, b in zip(offs[:-1], offs[1:])]
        M = np.zeros((diag[0].shape[0], offs[-1], offs[-1]), np.complex128)
        for i, d in enumerate(diag):
            M[:, blocks[i], blocks[i]] = d
        for i, u in enumerate(upper):
            M[:, blocks[i], blocks[i + 1]] = u
            M[:, blocks[i + 1], blocks[i]] = _H(u)
        G = np.linalg.inv(M)
        GR = [G[:, b, b].copy() for b in blocks]
        Gl = []
        if sigma_lesser is not None:
            for row in blocks:
                Gl.append(sum(
                    G[:, row, col] @ s @ _H(G[:, row, col])
                    for col, s in zip(blocks, sigma_lesser)
                ))
        return GR, Gl


register_kernel(DenseKernel.name, DenseKernel)


def oracle_session(workload: Workload, path=_ORACLE):
    """The oracle-path RunResult of a one-point workload."""
    with Session(workload.compile(**path)) as session:
        return session.run()[0]


def exact_session(workload: Workload):
    """The dense-inversion RunResult of a one-point workload."""
    return oracle_session(workload, _EXACT)


def oracle_jobs(workloads: List[Workload], path=_ORACLE) -> Dict[str, object]:
    """Oracle RunResults of single-point bias jobs, by cache key.

    Jobs sharing device, grid and physics run as one bias sweep, so the
    oracle reuses its operators and boundary conditions across biases.
    """
    groups: Dict[Tuple, Dict[float, Workload]] = {}
    for w in workloads:
        (axis,) = w.sweeps
        base = (w.device, w.grid, w.physics)
        groups.setdefault(base, {})[axis.values[0]] = w
    out: Dict[str, object] = {}
    for (device, grid, physics), by_bias in groups.items():
        biases = tuple(by_bias)
        sweep = Workload(
            device=device, grid=grid, physics=physics,
            sweeps=(SweepAxis("bias", biases),),
        )
        with Session(sweep.compile(**path)) as session:
            runs = session.run()
        for bias, run in zip(biases, runs):
            out[by_bias[bias].cache_key()] = run
    return out


def exact_jobs(workloads: List[Workload]) -> Dict[str, object]:
    """Dense-inversion RunResults of single-point bias jobs, by cache key."""
    return oracle_jobs(workloads, _EXACT)


def matches_oracle(run, ref) -> bool:
    """``run`` within ``ORACLE_RTOL`` of the oracle ``ref``."""
    return _within(run, ref, ref, dict.fromkeys(_COMPARED, 0.0))


def rounding_error(pairs) -> Dict[str, float]:
    """Per compared quantity, the largest distance of an oracle result
    from the exact one over ``(oracle, exact)`` pairs."""
    return {
        name: max(
            float(np.max(np.abs(
                getattr(ref.result, name) - getattr(exact.result, name)
            )))
            for ref, exact in pairs
        )
        for name in _COMPARED
    }


def matches_exact(run, ref, exact, rounding: Dict[str, float]) -> bool:
    """``run`` within ``ORACLE_RTOL`` of the ``exact`` answer plus
    ``ROUNDING_FACTOR`` times the oracle's ``rounding`` error."""
    return _within(run, ref, exact, rounding)


def _within(run, ref, target, rounding) -> bool:
    if run.converged != ref.converged or run.iterations != ref.iterations:
        return False
    for name in _COMPARED:
        b = getattr(ref.result, name)
        tol = ORACLE_RTOL * max(1.0, float(np.max(np.abs(b))))
        tol += ROUNDING_FACTOR * rounding[name]
        a = getattr(run.result, name)
        if not np.max(np.abs(a - getattr(target.result, name))) <= tol:
            return False
    return True


def conserves_flux(run) -> bool:
    mismatch = abs(run.current_left + run.current_right)
    return mismatch <= FLUX_RTOL * abs(run.current_left) + FLUX_ATOL


def sse_model_bytes(plan, model, run) -> Optional[Tuple[CommStats, CommStats]]:
    """The §4.1 per-rank (SSE, residual) bytes of a distributed run.

    Rebuilt from the plan's decomposition, independently of the runtime
    object; None for a serial plan.
    """
    if plan.runtime_plan is None:
        return None
    (entry,) = plan.runtime_plan
    s = plan.groups[0].base_settings
    dev = model.structure
    P = entry["P"]
    gf = OmenDecomposition(Nkz=s["Nkz"], NE=s["NE"], P=P)
    owner = default_round_owner(s["Nw"], P)
    if entry["schedule"] == "dace":
        tiles = DaceDecomposition(
            NE=s["NE"], NA=dev.NA, TE=entry["TE"], TA=entry["TA"], Nw=s["Nw"]
        )
        per_iter = dace_exchange_stats(
            gf, tiles, dev.neighbors, s["Nqz"], s["Nw"], model.Norb,
            model.N3D, owner,
        )
    else:
        per_iter = omen_exchange_stats(
            gf, s["Nqz"], s["Nw"], dev.NA, dev.NB, model.Norb, model.N3D,
            owner,
        )
    # a converged run breaks before the exchange of its last iteration
    exchanges = run.iterations - (1 if run.converged else 0)
    history = len(run.result.history)
    return per_iter.scaled(exchanges), residual_allreduce_stats(P, history)


def bytes_match_model(run, model_bytes) -> bool:
    sse, residual = model_bytes
    return CommStats.from_dict(run.comm["sse"]).matches(sse) and (
        CommStats.from_dict(run.comm["residual"]).matches(residual)
    )


def bit_identical(a, b) -> bool:
    """Exact equality of every tensor and scalar of two RunResults."""
    if a.iterations != b.iterations or a.converged != b.converged:
        return False
    return all(
        np.array_equal(getattr(a.result, f.name), getattr(b.result, f.name))
        for f in fields(a.result)
    )
