"""Shared helpers: statistics, process figures and the run's meta block."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np


def tail_percentile(samples: int) -> int:
    """Highest of p99/p95/p90 with at least ten samples beyond it (else 50)."""
    for percentile in (99, 95, 90):
        if samples * (100 - percentile) / 100.0 >= 10:
            return percentile
    return 50


def summary(values: Iterable[float]) -> Dict[str, float]:
    """Median, the supported tail percentile and the sample count."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        return {"p50": float("nan"), "tail": float("nan"), "tail_pct": 0,
                "n": 0}
    pct = tail_percentile(values.size)
    return {"p50": float(np.percentile(values, 50)),
            "tail": float(np.percentile(values, pct)),
            "tail_pct": pct, "n": int(values.size)}


# Share of a run's sweeps that fastest_sweeps keeps.
FASTEST_SHARE = 0.25


def fastest_sweeps(sweeps: Sequence[Sequence[float]],
                   min_ops: int = 100) -> np.ndarray:
    """Op times pooled over the fastest sweeps of a run.

    A run's work is split into equal sweeps spread over its whole length.
    On shared hardware other tenants slow the machine for spells of
    seconds; load only ever slows a sweep down, so the figures come from
    the fastest sweeps (by time per op): at least FASTEST_SHARE of them and at
    least ``min_ops`` ops.
    """
    ordered = sorted((np.asarray(s, dtype=np.float64) for s in sweeps
                      if len(s)), key=lambda s: s.sum() / s.size)
    need = max(1, int(np.ceil(FASTEST_SHARE * len(ordered))))
    taken: List[np.ndarray] = []
    for sweep in ordered:
        if len(taken) >= need and sum(t.size for t in taken) >= min_ops:
            break
        taken.append(sweep)
    return np.concatenate(taken)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class CpuWindow:
    """Process CPU time over a wall-clock window, as a share of all cores."""

    def __enter__(self) -> "CpuWindow":
        self.wall0, self.cpu0 = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.wall0
        self.cpu = cpu_seconds() - self.cpu0

    @property
    def share(self) -> float:
        """CPU seconds / wall seconds / number of cores."""
        return self.cpu / self.wall / (os.cpu_count() or 1)


def _blas() -> Dict[str, object]:
    info: Dict[str, object] = {"vendor": "unknown", "version": None,
                               "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = int(function())
                return info
    return info


def _git_commit(root: str) -> Optional[str]:
    """HEAD commit read from ``.git`` without starting a process."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return None


def meta(root: str, workload: str, seed: int, seconds: int,
         trace: bool) -> Dict[str, object]:
    """Machine and build facts that tell a slow row from a busy machine."""
    import scipy

    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg()),
            "blas": _blas(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": _git_commit(root)}
