"""Checkout paths, package loading and the environment stamp."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def use_checkout_package():
    """Import setstat from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import setstat

    if Path(setstat.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"setstat was imported from {setstat.__file__}, not from {SRC}")
    return setstat


def _openblas_runtime() -> dict:
    """Core name and thread count reported by numpy's bundled OpenBLAS."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        out = {}
        for key, names, restype in (
            ("core", ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                      "openblas_get_corename"), ctypes.c_char_p),
            ("threads", ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"), ctypes.c_int),
        ):
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    value = fn()
                    out[key] = value.decode() if isinstance(value, bytes) else value
                    break
        return out
    return {}


def stamp() -> dict:
    """Environment stamp printed with every result.

    ``digest_keys`` is the part that decides whether output bytes can be
    compared with recorded digests: numeric libraries and the CPU paths they
    dispatch to.
    """
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    runtime = _openblas_runtime()
    features = getattr(numpy._core._multiarray_umath, "__cpu_features__", {})
    simd = sorted(k for k, on in features.items() if on and k.startswith(("AVX", "FMA")))
    digest_keys = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_core": runtime.get("core", "?"),
        "simd": simd,
    }
    setstat = sys.modules.get("setstat")
    worker_count = getattr(getattr(setstat, "harness", None), "worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": runtime.get("threads", "?"),
        "blas_threads_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "SETSTAT_THREADS": os.environ.get("SETSTAT_THREADS", "unset"),
        "harness.workers": worker_count(1 << 20) if worker_count else 1,
        "digest_keys": digest_keys,
    }
