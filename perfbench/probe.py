"""Machine probe for the roofline: matmul rate and stream-copy bandwidth.

* ``matmul_gflops(b)``: batched complex128 ``b x b`` matmuls, 8 b^3 real
  flops each, best of several timed batches.
* ``stream_copy_gbs()``: ``np.copyto`` between two float64 arrays of at
  least four times the last-level cache each (read plus write bytes per
  second), best of three.  When the machine does not have three times
  both arrays free, the arrays shrink to fit and the reported
  ``array_mib`` says so.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict

import numpy as np

__all__ = ["llc_bytes", "matmul_gflops", "stream_copy_gbs"]

_FALLBACK_LLC = 32 << 20


def llc_bytes() -> int:
    """Size of the highest-level cache of CPU 0 (sysfs), else 32 MiB."""
    best_level, best_size = 0, _FALLBACK_LLC
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        scale = units.get(size[-1:].upper(), 1)
        digits = size[:-1] if size[-1:].upper() in units else size
        if level > best_level and digits.isdigit():
            best_level, best_size = level, int(digits) * scale
    return best_size


def _available_bytes() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) << 10
    except OSError:
        pass
    return 0


def matmul_gflops(b: int, target_bytes: int = 8 << 20, repeats: int = 5) -> float:
    """Best complex128 batched-matmul rate at block size ``b``."""
    batch = max(1, target_bytes // (16 * b * b))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((batch, b, b)) + 1j * rng.standard_normal((batch, b, b))
    B = rng.standard_normal((batch, b, b)) + 1j * rng.standard_normal((batch, b, b))
    C = np.empty_like(A)
    flops = 8.0 * b**3 * batch
    # enough calls per timing that each lasts about 20 ms
    t0 = time.perf_counter()
    np.matmul(A, B, out=C)
    calls = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-6)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            np.matmul(A, B, out=C)
        best = min(best, (time.perf_counter() - t0) / calls)
    return flops / best / 1e9


def stream_copy_gbs(repeats: int = 3) -> Dict[str, float]:
    """Copy bandwidth on arrays of at least 4x the last-level cache."""
    llc = llc_bytes()
    nbytes = 4 * llc
    available = _available_bytes()
    if available and 6 * nbytes > available:
        nbytes = available // 6
    n = nbytes // 8
    src = np.ones(n)
    dst = np.zeros(n)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    del src, dst
    return {
        "gbs": 2.0 * n * 8 / best / 1e9,
        "array_mib": n * 8 / (1 << 20),
        "llc_mib": llc / (1 << 20),
    }
