"""The OpenBLAS that NumPy wheels bundle, bound through ctypes.

NumPy ships it as `numpy.libs/libscipy_openblas64_*.so`, with ILP64
(64-bit integer) entry points whose names end in `64_`: the thread-count
setter and the LAPACKE routines (`dstedc`, `dstemr`, `zgtsv`).  This is
the one module that knows that foreign interface: the symbol names, the
ctypes signature of each routine with its ILP64 integers (`_SIGNATURES`),
the column-major layout and the check on LAPACK's `info`; `lapacke` hands
out a routine that takes plain NumPy arrays and numbers.  The library is
looked up at the first call, so nothing is loaded before a caller needs
it, and its handle is kept for every later call; each call looks its
symbol up anew (`_symbol`), so no two callers type a shared object.
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


def _symbol(name: str):
    """`name` in the bundled OpenBLAS as a new function object for the caller
    to type (`getattr` returns the one `CDLL` caches and shares), or None."""
    try:
        return bundled_openblas()[name]
    except (TypeError, AttributeError):  # no library, or no such symbol
        return None


_COL_MAJOR = 102  # LAPACK_COL_MAJOR, the layout of every LAPACKE call here
_I64, _LAYOUT, _CHAR = ctypes.c_int64, ctypes.c_int, ctypes.c_char
_VEC = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
_MAT = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
_IVEC = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_CPLX = np.ctypeslib.ndpointer(np.complex128, flags="C_CONTIGUOUS")

# name -> argument types of each LAPACKE routine in use; integers are ILP64
_SIGNATURES = {
    "dstedc": [_LAYOUT, _CHAR, _I64, _VEC, _VEC,      # layout, compz, n, d, e
               _MAT, _I64],                           # z, ldz
    "dstemr": [_LAYOUT, _CHAR, _CHAR, _I64,           # layout, jobz, range, n
               _VEC, _VEC, ctypes.c_double, ctypes.c_double,  # d, e, vl, vu
               _I64, _I64, _IVEC, _VEC,               # il, iu, m, w
               _MAT, _I64, _I64,                      # z, ldz, nzc
               _IVEC, _IVEC],                         # isuppz, tryrac
    "zgtsv": [_LAYOUT, _I64, _I64,                    # layout, n, nrhs
              _CPLX, _CPLX, _CPLX, _CPLX,             # dl, d, du, b
              _I64],                                  # ldb
}


def lapacke(name: str):
    """LAPACKE_<name> of the bundled OpenBLAS, typed, or None if it is absent.

    The routine is column-major with its layout argument already bound, so
    a caller passes the LAPACK arguments alone, as `_SIGNATURES[name]` lists
    them after the layout; it raises `LinAlgError` when LAPACK returns a
    nonzero info.  It is looked up and typed at each call.
    """
    routine = _symbol(f"scipy_LAPACKE_{name}64_")
    if routine is None:
        return None

    def check_info(info, func, args):
        if info != 0:
            raise np.linalg.LinAlgError(f"{name} failed with info {info}")
        return info

    routine.restype, routine.argtypes, routine.errcheck = _I64, _SIGNATURES[name], check_info
    return functools.partial(routine, _COL_MAJOR)


def set_num_threads(count: int) -> bool:
    """Set the thread count of the bundled OpenBLAS in this process; False if it is absent.

    OpenBLAS reads OPENBLAS_NUM_THREADS only when it is loaded, which
    happens with `import numpy`, so the count is applied at run time.
    """
    setter = _symbol("scipy_openblas_set_num_threads64_")
    if setter is None:
        return False
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(count)
    return True
