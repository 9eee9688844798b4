"""Environment and rationale record written next to every benchmark run."""

from __future__ import annotations

import glob
import hashlib
import os
import platform
import subprocess

import workloads

NOTES = (
    "Executions run one at a time with threads=1 and one BLAS thread, each "
    "in a fresh interpreter and a fresh output directory.",
    "convergence.age_clamp_events is not used as a metric: it sums over "
    "every step() call and is updated from worker threads without a lock, "
    "so it tracks the iteration count rather than clamping.",
    "The mc-check correctness check is a two-sided 3 SE test, so a correct "
    "program fails it on about 0.27% of seeds.",
)


def src_fingerprint(root: str) -> str:
    """sha256 over the paths and bytes of every .py file under src/."""
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(base, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, base).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _caches() -> dict:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def record(root: str, workload: str) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": _caches(),
        "commit": _commit(root),
        "src_sha256": src_fingerprint(root),
        "threads": 1,
        "workload": workload,
        "why": workloads.WHY[workload],
        "notes": list(NOTES),
    }
