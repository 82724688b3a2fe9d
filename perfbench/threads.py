"""Thread pinning shared by the benchmark's entry points.

Imported before numpy so that BLAS and OpenMP read the values at load time.
Every computation in the package is single-worker, so one thread per pool
keeps runs steady on a shared machine and never exceeds nproc.
"""
import os

VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"


def pin() -> dict:
    """Set every pool size to THREADS; return the values now in force."""
    for var in VARS:
        os.environ[var] = THREADS
    return {var: os.environ[var] for var in VARS}
