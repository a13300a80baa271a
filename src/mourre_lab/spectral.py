"""Eigendecomposition and everything derived from it.

Functions of an operator are formed from its eigenpairs: projections
onto energy windows, smooth localization functions of H, resolvents and
the unitary propagator.  H gets either its full basis from a dense
`eigh` or only the pairs in an energy window, from MRRR (LAPACK
`dstemr` of the OpenBLAS that NumPy bundles) with no n x n array; the
channel operators -Delta + v_pm need no solver, because the Dirichlet
Laplacian has a closed-form sine (DST-I) eigenbasis, which can also be
built for an energy window alone.  A function f(H) costs what its
support costs: only eigenvectors where f is nonzero enter
U f(Lambda) U*, so a compactly supported eta gives a low-rank product,
which `sandwich` keeps in factored form.  Propagation of a complex state
in a real eigenbasis stays in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .operators import Band

__all__ = [
    "SpectralDecomposition",
    "EnergyWindow",
    "SmoothingFunction",
    "eigendecompose",
    "dirichlet_decomposition",
    "spectral_projection",
    "apply_function",
    "sandwich",
    "ThinProduct",
    "resolvent",
    "propagate",
    "scattering_projector",
    "bump",
    "gaussian",
    "plateau",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns

    @property
    def source_dim(self) -> int:
        return self.eigenvectors.shape[0]

    def window_mask(self, win: "EnergyWindow") -> np.ndarray:
        return win.contains(self.eigenvalues)


@dataclass(frozen=True)
class EnergyWindow:
    lam: float
    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("window half-width eps must be positive")

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Mask of the values inside the open interval (lam-eps, lam+eps)."""
        return (x > self.lam - self.eps) & (x < self.lam + self.eps)


@dataclass(frozen=True)
class SmoothingFunction:
    """Real localization function eta with eta(center) != 0."""

    kind: str                 # bump | gaussian | resolvent_power | custom
    center: float
    width: float
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float))


def bump(center: float, width: float) -> SmoothingFunction:
    """C_c-infinity bump exp(1 - 1/(1-u^2)) on |u| < 1, u = (x-center)/width."""

    def f(x: np.ndarray) -> np.ndarray:
        u = (x - center) / width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out

    return SmoothingFunction("bump", center, width, f)


def gaussian(center: float, width: float) -> SmoothingFunction:
    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(-((x - center) ** 2) / (2 * width**2))

    return SmoothingFunction("gaussian", center, width, f)


def plateau(lo: float, hi: float, shoulder: float) -> SmoothingFunction:
    """Smooth function equal to 1 on [lo, hi], 0 outside [lo-shoulder, hi+shoulder]."""
    from .grid import smoothstep

    def f(x: np.ndarray) -> np.ndarray:
        up, _ = smoothstep(x, lo - shoulder, lo)
        down, _ = smoothstep(-x, -hi - shoulder, -hi)
        return up * down

    return SmoothingFunction("plateau", 0.5 * (lo + hi), hi - lo, f)


def eigendecompose(op: Band, window: Optional[EnergyWindow] = None) -> SpectralDecomposition:
    """Eigenpairs of a real symmetric band, eigenvalues ascending.

    With no window, all n pairs from a dense `eigh`.  With a window, only
    the pairs inside its open interval, as `dirichlet_decomposition`
    returns them; a tridiagonal band gets them from MRRR (LAPACK `dstemr`)
    in O(n k) for k pairs, with no n x n array.  Without the bundled
    OpenBLAS, or for a wider band, the window is cut from the dense `eigh`.
    """
    if window is not None and op.b == 1:
        stemr = _dstemr()
        if stemr is not None:
            return _mrrr(stemr, op, window)
    w, u = np.linalg.eigh(op.dense())
    if window is not None:
        keep = window.contains(w)
        w, u = w[keep], u[:, keep]
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


_COL_MAJOR = 102  # LAPACK_COL_MAJOR


def _dstemr():
    """LAPACKE_dstemr of the bundled OpenBLAS (ILP64), or None if it is absent."""
    import ctypes

    from . import blas

    lib = blas.bundled_openblas()
    stemr = getattr(lib, "scipy_LAPACKE_dstemr64_", None) if lib is not None else None
    if stemr is None:
        return None
    i64, dbl = ctypes.c_int64, np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    i64p = ctypes.POINTER(i64)
    stemr.restype = i64
    stemr.argtypes = [
        ctypes.c_int, ctypes.c_char, ctypes.c_char, i64,  # layout, jobz, range, n
        dbl, dbl, ctypes.c_double, ctypes.c_double,       # d, e, vl, vu
        i64, i64, i64p, dbl,                              # il, iu, m, w
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"),  # z
        i64, i64,                                         # ldz, nzc
        np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS"),    # isuppz
        i64p,                                             # tryrac
    ]
    return stemr


def _mrrr(stemr, op: Band, window: EnergyWindow) -> SpectralDecomposition:
    """The eigenpairs of a symmetric tridiagonal band inside the open window.

    dstemr with RANGE='V' returns the half-open (lo, hi]; the window's own
    mask cuts it to (lo, hi).  Z is column-major with ldz = n, so its
    columns are the rows of a C-ordered (columns, n) array.
    """
    import ctypes

    n = op.n
    lo, hi = window.lam - window.eps, window.lam + window.eps
    w = np.empty(n)
    isuppz = np.empty(2 * n, dtype=np.int64)

    def call(z, nzc):
        d = op.entries[1].copy()  # d and e are overwritten
        e = np.zeros(n)
        e[:-1] = op.entries[2, :-1]
        m, tryrac = ctypes.c_int64(0), ctypes.c_int64(0)
        info = stemr(_COL_MAJOR, b"V", b"V", n, d, e, lo, hi, 0, 0, ctypes.byref(m), w, z,
                     n, nzc, isuppz, ctypes.byref(tryrac))
        if info != 0:
            raise np.linalg.LinAlgError(f"dstemr failed with info {info}")
        return m.value

    query = np.zeros((1, n))
    call(query, -1)  # the column count of Z comes back in its first entry
    cols = int(query[0, 0])
    if cols == 0:
        return SpectralDecomposition(eigenvalues=np.empty(0), eigenvectors=np.empty((n, 0)))
    z = np.empty((cols, n))
    found = call(z, cols)
    keep = window.contains(w[:found])
    return SpectralDecomposition(eigenvalues=w[:found][keep].copy(), eigenvectors=z[:found][keep].T)


def spectral_projection(dec: SpectralDecomposition, win: EnergyWindow) -> np.ndarray:
    """Orthogonal projection onto the eigenvalues inside (lam-eps, lam+eps)."""
    sel = dec.window_mask(win)
    u = dec.eigenvectors[:, sel]
    return u @ u.conj().T


def dirichlet_decomposition(
    n: int, dx: float, shift: float = 0.0, window: Optional[EnergyWindow] = None
) -> SpectralDecomposition:
    """Closed-form eigenpairs of the 3-point Dirichlet -Delta + shift on n nodes.

    Eigenvalues 4/dx^2 sin^2(k pi / 2(n+1)) + shift, ascending in k = 1..n;
    eigenvectors sqrt(2/(n+1)) sin(j k pi / (n+1)), the DST-I basis.  With a
    window only the eigenpairs inside (lam-eps, lam+eps) are built.
    """
    k = np.arange(1, n + 1)
    w = 4.0 / dx**2 * np.sin(k * (np.pi / (2 * (n + 1)))) ** 2 + shift
    if window is not None:
        keep = window.contains(w)
        k, w = k[keep], w[keep]
    # j*k reduced modulo the period 2(n+1) in integers keeps the sine argument in [0, 2 pi)
    u = (np.outer(np.arange(1, n + 1), k) % (2 * (n + 1))) * (np.pi / (n + 1))
    np.sin(u, out=u)
    u *= math.sqrt(2.0 / (n + 1))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def _support(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]):
    """(U_S, f_S): the eigenvectors where f is nonzero and the values of f there.

    The test is exact (f == 0), so dropping those columns changes U f(Lambda) U*
    only by rounding; U is sliced only when the support is a proper subset.
    """
    fw = np.asarray(f(dec.eigenvalues))
    if not np.all(np.isfinite(fw)):
        raise ValueError("function is singular or undefined at an eigenvalue")
    u = dec.eigenvectors
    nonzero = fw != 0
    if not nonzero.all():
        u, fw = u[:, nonzero], fw[nonzero]
    return u, fw


def apply_function(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """U f(Lambda) U^dagger over the support of f; raises if f is singular on the spectrum."""
    u, fw = _support(dec, f)
    return (u * fw[None, :]) @ u.conj().T


@dataclass(frozen=True)
class ThinProduct:
    """The n x n matrix F C F^dagger kept as its factors: F is n x r, C is r x r.

    It acts like the matrix under `@`, `.T` and `.conj()`, at O(n r) per
    vector and without forming n x n.
    """

    factor: np.ndarray
    core: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.factor.shape[0], self.factor.shape[0])

    @property
    def dtype(self):
        return np.result_type(self.factor, self.core)

    @property
    def T(self) -> "ThinProduct":
        return ThinProduct(self.factor.conj(), self.core.T)

    def conj(self) -> "ThinProduct":
        return ThinProduct(self.factor.conj(), self.core.conj())

    def __matmul__(self, x):
        return self.factor @ (self.core @ (self.factor.conj().T @ x))


def sandwich(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray], m) -> ThinProduct:
    """f(H) M f(H) as U_S (f_S (U_S^dagger M U_S) f_S) U_S^dagger, with S the support of f.

    M is a matrix or a Band; it is applied to the thin U_S only.
    """
    u, fw = _support(dec, f)
    core = fw[:, None] * (u.conj().T @ (m @ u)) * fw[None, :]
    return ThinProduct(u, core)


def resolvent(dec: SpectralDecomposition, z: complex) -> np.ndarray:
    """(H - z)^{-1} through the eigendecomposition."""
    if np.iscomplexobj(np.array(z)) and np.imag(z) == 0 and np.any(
        np.isclose(dec.eigenvalues, np.real(z))
    ):
        raise ValueError("real z collides with an eigenvalue")
    return apply_function(dec, lambda x: 1.0 / (x - z))


def propagate(dec: SpectralDecomposition, state: np.ndarray, t: float) -> np.ndarray:
    """e^{-itH} applied to a state vector."""
    if state.shape[0] != dec.source_dim:
        raise ValueError("state dimension does not match the decomposition")
    u = dec.eigenvectors
    phases = np.exp(-1j * t * dec.eigenvalues)
    if np.iscomplexobj(u):
        return u @ (phases * (u.conj().T @ state))
    # real basis: transform the real and imaginary parts together, never casting U to complex
    parts = u.T @ np.column_stack((state.real, state.imag))
    coef = phases * (parts[:, 0] + 1j * parts[:, 1])
    out = u @ np.column_stack((coef.real, coef.imag))
    return out[:, 0] + 1j * out[:, 1]


def scattering_projector(dec: SpectralDecomposition, threshold: float, delta: float = 0.01) -> np.ndarray:
    """Finite-box surrogate for the absolutely-continuous projection.

    Projects onto eigenvalues above threshold + delta; on the box every
    eigenvalue is discrete, so states below the lowest channel threshold
    (bound states) are treated as the point-spectrum analogue.  This is a
    heuristic surrogate, not an identity, and delta is reported wherever
    the projector is used.
    """
    sel = dec.eigenvalues > threshold + delta
    u = dec.eigenvectors[:, sel]
    return u @ u.conj().T
