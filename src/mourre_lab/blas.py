"""The OpenBLAS that NumPy wheels bundle, bound through ctypes.

NumPy ships it as `numpy.libs/libscipy_openblas64_*.so`, with ILP64
(64-bit integer) entry points whose names end in `64_`: the thread-count
setter and the LAPACKE routines, MRRR `dstemr` among them.  The lookup
runs at the first call, so nothing is loaded before a caller needs it, and
its handle is kept for every later call.
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
