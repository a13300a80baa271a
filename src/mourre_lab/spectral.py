"""Eigendecomposition and everything derived from it.

Functions of an operator are formed from its eigenpairs: projections
onto energy windows, smooth localization functions of H, resolvents and
the unitary propagator.  H gets either its full basis from a dense
`eigh` or only the pairs in an energy window, from MRRR (LAPACK
`dstemr` of the OpenBLAS that NumPy bundles) with no n x n array; the
channel operators -Delta + v_pm need no solver, because the Dirichlet
Laplacian has a closed-form sine (DST-I) eigenbasis, built only where a
function such as eta is nonzero; `dst1` applies that basis by FFT, so a
channel function f(-Delta + v) acts as dst1(f(w + v) dst1(x)) with no n x n
array.  A function f(H) costs what its support costs: only eigenvectors
where f is nonzero enter U f(Lambda) U*, so a compactly supported eta
gives a low-rank product.  A finite-rank operator is a `ThinProduct`,
factors (left, core, right) for left @ core @ right^dagger, never its
matrix (`sandwich`, `thin_sum`).  `propagate` moves a state, or one state
per time, over a whole time ladder in two products with U, staying in real
arithmetic for a complex state in a real eigenbasis; `scattering_projector`
is applied to states, never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import Band

__all__ = [
    "SpectralDecomposition",
    "EnergyWindow",
    "SmoothingFunction",
    "eigendecompose",
    "dirichlet_eigenvalues",
    "dirichlet_decomposition",
    "dst1",
    "spectral_projection",
    "support",
    "apply_function",
    "sandwich",
    "ThinProduct",
    "thin_sum",
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


def dirichlet_eigenvalues(n: int, dx: float) -> np.ndarray:
    """4/dx^2 sin^2(k pi / 2(n+1)), k = 1..n: the ascending spectrum of the
    3-point Dirichlet -Delta on n nodes, in the order of the DST-I coefficients."""
    k = np.arange(1, n + 1)
    return 4.0 / dx**2 * np.sin(k * (np.pi / (2 * (n + 1)))) ** 2


def dirichlet_decomposition(
    n: int, dx: float, shift: float = 0.0,
    where: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> SpectralDecomposition:
    """Closed-form eigenpairs of the 3-point Dirichlet -Delta + shift on n nodes.

    Eigenvalues `dirichlet_eigenvalues` + shift, ascending in k = 1..n;
    eigenvectors sqrt(2/(n+1)) sin(j k pi / (n+1)), the DST-I basis.  With
    `where` (a function such as eta or `EnergyWindow.contains`) only the
    eigenpairs with where(w) != 0 are built.
    """
    k = np.arange(1, n + 1)
    w = dirichlet_eigenvalues(n, dx) + shift
    if where is not None:
        keep = np.asarray(where(w)) != 0
        k, w = k[keep], w[keep]
    # j*k reduced modulo the period 2(n+1) in integers keeps the sine argument in [0, 2 pi)
    u = (np.outer(np.arange(1, n + 1), k) % (2 * (n + 1))) * (np.pi / (n + 1))
    np.sin(u, out=u)
    u *= math.sqrt(2.0 / (n + 1))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def support(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]):
    """(U_S, f_S): the eigenvectors where f is nonzero and the values of f there,
    so that f(H) = U_S diag(f_S) U_S^dagger.

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
    u, fw = support(dec, f)
    return (u * fw[None, :]) @ u.conj().T


@dataclass(frozen=True)
class ThinProduct:
    """A finite-rank operator kept as its factors: left @ core @ right^dagger.

    left is m x r, core r x s and right k x s, so the operator is m x k and
    its rank is at most min(r, s); `hypotheses.singular_values` reads it.
    """

    left: np.ndarray
    core: np.ndarray
    right: np.ndarray


def thin_sum(*terms: ThinProduct) -> ThinProduct:
    """The sum of thin products as one: [L_1 .. L_k] diag(C_1 .. C_k) [R_1 .. R_k]^dagger."""
    core = np.block([[t.core if i == k else np.zeros((t.core.shape[0], u.core.shape[1]))
                      for k, u in enumerate(terms)] for i, t in enumerate(terms)])
    return ThinProduct(np.hstack([t.left for t in terms]), core,
                       np.hstack([t.right for t in terms]))


def sandwich(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray], m) -> ThinProduct:
    """f(H) M f(H) as U_S (f_S (U_S^dagger M U_S) f_S) U_S^dagger, with S the support of f.

    M is a matrix or a Band; it is applied to the thin U_S only.
    """
    u, fw = support(dec, f)
    core = fw[:, None] * (u.conj().T @ (m @ u)) * fw[None, :]
    return ThinProduct(u, core, u)


def resolvent(dec: SpectralDecomposition, z: complex) -> np.ndarray:
    """(H - z)^{-1} through the eigendecomposition."""
    if np.imag(z) == 0 and np.any(np.isclose(dec.eigenvalues, np.real(z))):
        raise ValueError("real z collides with an eigenvalue")
    return apply_function(dec, lambda x: 1.0 / (x - z))


def dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along axis 0, y_k = sqrt(2/(n+1)) sum_j x_j sin(j k pi / (n+1)).

    It is its own inverse, and y holds the coefficients of x in the
    eigenbasis of `dirichlet_decomposition`.  The DFT of the odd extension
    (0, x, 0, -reversed x) of length 2(n+1) is -2i times the sine sum, so a
    real FFT gives it in O(n log n) per column with no n x n basis.  A
    complex x is transformed one part at a time, which halves the scratch.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        out = np.empty(x.shape, dtype=complex)
        out.real, out.imag = dst1(x.real), dst1(x.imag)
        return out
    n = x.shape[0]
    z = np.zeros((2 * (n + 1),) + x.shape[1:])
    z[1:n + 1] = x
    z[n + 2:] = -x[::-1]
    return np.fft.rfft(z, axis=0)[1:n + 1].imag * -math.sqrt(0.5 / (n + 1))


def propagate(dec: SpectralDecomposition, states: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """e^{-itH} over a time ladder: an n x T block whose column k is at times[k].

    `states` is one vector, moved to every time, or an n x T block whose
    column k is moved to times[k].  One product U^dagger states, the phases
    broadcast over its columns, one product back; a real basis stays in real
    arithmetic by multiplying the interleaved real and imaginary parts.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D sequence")
    if states.shape[0] != dec.source_dim:
        raise ValueError("state dimension does not match the decomposition")
    if states.ndim == 2 and states.shape[1] != times.size:
        raise ValueError("a block of states needs one column per time")
    u = dec.eigenvectors
    cols = np.ascontiguousarray(states, dtype=complex).reshape(dec.source_dim, -1)
    phases = np.exp(-1j * np.outer(dec.eigenvalues, times))
    if np.iscomplexobj(u):
        phases *= u.conj().T @ cols
        return u @ phases
    # a complex C-ordered array viewed as float interleaves (re, im) along its rows
    phases *= (u.T @ cols.view(np.float64)).view(np.complex128)
    return (u @ phases.view(np.float64)).view(np.complex128)


def scattering_projector(
    dec: SpectralDecomposition, states: np.ndarray, threshold: float, delta: float = 0.01
) -> np.ndarray:
    """Finite-box surrogate for the absolutely-continuous projection, applied to states.

    Projects onto eigenvalues above threshold + delta as U_s (U_s^dagger states),
    with no n x n matrix; on the box every eigenvalue is discrete, so states
    below the lowest channel threshold (bound states) are treated as the
    point-spectrum analogue.  This is a heuristic surrogate, not an
    identity, and delta is reported wherever the projector is used.
    """
    u = dec.eigenvectors
    coef = u.conj().T @ states
    coef[dec.eigenvalues <= threshold + delta] = 0.0  # U_s^dagger states, padded with zeros
    return u @ coef
