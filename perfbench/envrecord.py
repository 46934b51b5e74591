"""Environment record stored with every benchmark result.

BLAS thread counts are read from the OpenBLAS libraries that numpy and
scipy ship and load, through the library's own getter, not assumed from
the environment.
"""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_GETTERS = ("scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _openblas_threads(package):
    """{library file name: threads} for the OpenBLAS copies bundled in
    `package`'s ``<name>.libs`` directory; None where no getter exists."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    out = {}
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        getter = next((getattr(lib, s) for s in _GETTERS if hasattr(lib, s)),
                      None)
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
        out[path.name] = None if getter is None else int(getter())
    return out


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": {"numpy": _openblas_threads(numpy),
                         "scipy": _openblas_threads(scipy)},
        "thread_env": {v: os.environ[v] for v in THREAD_VARS
                       if v in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def numpy_blas_threads(env):
    """Thread count of numpy's BLAS from an environment record, 0 when it
    could not be read."""
    counts = [n for n in env["blas_threads"]["numpy"].values() if n]
    return counts[0] if counts else 0
