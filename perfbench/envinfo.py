"""Environment block written into every results file."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """sha256 over the program's source files, names and contents.

    Identifies the code under test where no git metadata is available.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int | None) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root / "src"),
        "workload_seed": seed,
    }
