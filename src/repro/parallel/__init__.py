"""Simulated-MPI runtime, data decompositions, and SSE schedules."""

from .decomposition import (
    DaceDecomposition,
    OmenDecomposition,
    partition_spectral_grid,
)
from .schedules import (
    DaceExchange,
    DistributedSSEResult,
    OmenExchange,
    RankSSEStore,
    dace_sse_phase,
    default_round_owner,
    omen_sse_phase,
)
from .simmpi import CommStats, SimComm

__all__ = [
    "DaceDecomposition",
    "OmenDecomposition",
    "partition_spectral_grid",
    "DistributedSSEResult",
    "RankSSEStore",
    "OmenExchange",
    "DaceExchange",
    "default_round_owner",
    "dace_sse_phase",
    "omen_sse_phase",
    "CommStats",
    "SimComm",
]
