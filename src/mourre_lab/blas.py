"""The OpenBLAS that NumPy wheels bundle, bound through ctypes.

NumPy ships it as `numpy.libs/libscipy_openblas64_*.so`, with ILP64
(64-bit integer) entry points whose names end in `64_`: the thread-count
setter and the LAPACKE routines, MRRR `dstemr` among them; no other module
knows those names.  The library is looked up at the first call, so nothing
is loaded before a caller needs it, and its handle is kept for every later
call; `lapacke` and `set_num_threads` ask `bundled_openblas` for it each time.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Optional

import numpy as np


def libdir() -> str:
    """Where NumPy keeps its bundled shared libraries."""
    return os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")


@functools.cache
def bundled_openblas() -> Optional[ctypes.CDLL]:
    """NumPy's bundled OpenBLAS (already loaded by `import numpy`), or None."""
    paths = sorted(glob.glob(os.path.join(libdir(), "libscipy_openblas64_*.so")))
    return ctypes.CDLL(paths[0]) if paths else None


def lapacke(name: str):
    """LAPACKE_<name> of the bundled OpenBLAS, or None if it is absent."""
    lib = bundled_openblas()
    return getattr(lib, f"scipy_LAPACKE_{name}64_", None) if lib is not None else None


def set_num_threads(count: int) -> bool:
    """Set the thread count of the bundled OpenBLAS in this process; False if it is absent.

    OpenBLAS reads OPENBLAS_NUM_THREADS only when it is loaded, which
    happens with `import numpy`, so the count is applied at run time.
    """
    lib = bundled_openblas()
    if lib is None:
        return False
    setter = lib.scipy_openblas_set_num_threads64_
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(count)
    return True
