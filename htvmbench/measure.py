"""Statistics and provenance helpers shared by the benchmark phases."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
from typing import Dict, Iterable, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    xs = list(values)
    if not xs or min(xs) <= 0:
        raise ValueError(f"geomean needs positive values, got {xs}")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def beyond(n: int, q: float) -> int:
    """Samples beyond the ``q``-th percentile of ``n`` samples."""
    return n - math.ceil(n * q / 100.0)


def _run(cmd: List[str], cwd: str) -> str:
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Dict[str, str]:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name")),
                "version": str(blas.get("version"))}
    except (TypeError, KeyError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def provenance(root: str) -> Dict[str, object]:
    """Where and with what a result was measured."""
    import numpy as np

    cc = os.environ.get("CC", "cc")
    env = {k: v for k, v in sorted(os.environ.items())
           if k.startswith(("OPENBLAS_", "OMP_", "REPRO_"))}
    return {
        "git_sha": _run(["git", "rev-parse", "HEAD"], root),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "cc": (_run([cc, "--version"], root) or "unknown").splitlines()[0],
        "env": env,
    }
