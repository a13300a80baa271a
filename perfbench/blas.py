"""Read the BLAS thread count and build string back from the library.

NumPy wheels bundle OpenBLAS as `numpy.libs/libscipy_openblas64_*.so`
with symbol-suffixed entry points.  The count the library reports is the
one it uses, whatever the environment or a `--threads` flag claims.
"""

import ctypes
import glob
import os

import numpy as np


def info() -> dict:
    """{'blas_threads': int, 'blas_config': str} as the library reports them."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")))
    if not paths:
        raise RuntimeError(f"no bundled OpenBLAS under {libdir}")
    lib = ctypes.CDLL(paths[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return {"blas_threads": int(get_threads()),
            "blas_config": get_config().decode().strip()}
