"""Machine context and BLAS thread verification for benchmark results.

Every result carries the context it was measured in, and the BLAS thread
count is read back from the loaded OpenBLAS libraries rather than assumed
from the environment variables that were meant to set it.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
from pathlib import Path

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = 1


def pin_blas_threads() -> None:
    """Ask every BLAS for one thread; effective only before numpy loads."""
    os.environ["OPENBLAS_NUM_THREADS"] = str(PINNED_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(PINNED_THREADS)


def _openblas_call(lib, name: str, restype):
    # numpy and scipy wheels export the OpenBLAS API under a
    # "scipy_openblas" prefix, numpy's build with a "64_" suffix.
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, prefix + name + suffix, None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def openblas_libraries() -> list[dict]:
    """Thread count and build string of each OpenBLAS loaded in this process.

    Reads the process's own memory map for the library paths, so it only
    sees what numpy and scipy have actually loaded.
    """
    with open("/proc/self/maps") as fh:
        paths = sorted(
            {ln.split()[-1] for ln in fh if "openblas" in ln.rsplit("/", 1)[-1].lower()}
        )
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _openblas_call(lib, "get_num_threads", ctypes.c_int)
        config = _openblas_call(lib, "get_config", ctypes.c_char_p)
        out.append(
            {
                "library": Path(path).name,
                "threads": threads,
                "config": config.decode() if config else None,
            }
        )
    return out


def verified_blas_threads() -> int:
    """The thread count every loaded OpenBLAS reports.

    Raises RuntimeError when no OpenBLAS is found, a count cannot be read,
    or the count differs from the pinned value: a timing taken then would
    silently measure another configuration.
    """
    libs = openblas_libraries()
    if not libs:
        raise RuntimeError("no OpenBLAS library is loaded; cannot verify the BLAS thread count")
    counts = {lib["library"]: lib["threads"] for lib in libs}
    if any(c != PINNED_THREADS for c in counts.values()):
        raise RuntimeError(
            f"BLAS thread pin did not take effect: expected {PINNED_THREADS}, got {counts}"
        )
    return PINNED_THREADS


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_context() -> dict:
    """Cores, CPU, caches, interpreter, library versions and thread settings."""
    import numpy
    import scipy

    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "threadpoolctl": (
            "present" if importlib.util.find_spec("threadpoolctl") else "absent"
        ),
    }
