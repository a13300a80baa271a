"""Eigendecomposition and everything derived from it.

Functions of an operator are formed from its eigenpairs: smooth
localization functions of H and the unitary propagator; an
energy window is a mask of eigenvalues (`EnergyWindow.contains`).  H
gets either its full basis by divide and conquer (LAPACK `dstedc`, the
same bits as a dense `eigh`) or only the pairs in an energy window, from
MRRR (`dstemr`) with no n x n array; the channel operators -Delta + v_pm
need no solver, because the Dirichlet Laplacian has a closed-form sine
(DST-I) eigenbasis, built only where a function such as eta is nonzero;
`dst1` applies that basis by FFT, so a channel function f(-Delta + v)
acts as dst1(f(w + v) dst1(x)) with no n x n array.  A function f(H)
costs what its support costs: only eigenvectors in the `support_mask` of
f enter U f(Lambda) U*, so a compactly supported eta gives a low-rank
product.  A finite-rank operator is a `ThinProduct`, factors (left, core,
right) for left @ core @ right^dagger, never its matrix (`sandwich`,
`thin_sum`, `singular_values`).
A resolvent needs no eigenpairs at all: `resolvent` gives (T - z)^{-1} X
for a tridiagonal T (H or a channel) and a vector or a thin block X by
LAPACK `zgtsv`, in O(n k).  `propagate` moves a state, or one state per
time, over a whole time ladder in two products with the real basis U,
staying in real arithmetic for a complex state.  `scattering_projector`
applies 1 - U_low U_low^dagger, with U_low the few eigenvectors at or
below threshold, to states and never forms it.  `opnorm` is the spectral
norm of an operator given only its action and that of its adjoint.

The LAPACK routines are those of the OpenBLAS that NumPy bundles, handed
out typed by `blas.lapacke`; this module passes them arrays and numbers
only.  Without that library, or for a band wider than tridiagonal, the
dense `eigh` and `solve` of NumPy take their place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .blas import lapacke
from .grid import smoothstep
from .operators import Band

__all__ = [
    "SpectralDecomposition",
    "EnergyWindow",
    "SmoothingFunction",
    "eigendecompose",
    "dirichlet_eigenvalues",
    "dirichlet_decomposition",
    "dst1",
    "support",
    "support_mask",
    "sandwich",
    "ThinProduct",
    "thin_sum",
    "singular_values",
    "resolvent",
    "propagate",
    "scattering_projector",
    "bump",
    "plateau",
    "opnorm",
]

AC_DELTA = 0.01  # offset of the scattering-surrogate projector above threshold
SUPPORT_RTOL = 1e-12  # f(H) keeps the eigenpairs where |f| > SUPPORT_RTOL * max |f|
TOP = 40  # leading singular values `singular_values` returns by default
# Power iteration of `opnorm`: at most OPNORM_ITERS steps from a start drawn with OPNORM_SEED.
OPNORM_ITERS = 200
OPNORM_SEED = 7


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns

    @property
    def source_dim(self) -> int:
        return self.eigenvectors.shape[0]


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
    """Real localization function eta with eta(center) != 0.  `bump` and
    `plateau` vanish outside center +- width, so EnergyWindow(center, width)
    holds every x with eta(x) != 0; `compactness_ladder` relies on it, and
    refuses an eta for (ii)-(iv) that is nonzero at an end of that window."""

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

    return SmoothingFunction(center, width, f)


def plateau(lo: float, hi: float, shoulder: float) -> SmoothingFunction:
    """Smooth function equal to 1 on [lo, hi], 0 outside [lo-shoulder, hi+shoulder]."""

    def f(x: np.ndarray) -> np.ndarray:
        up, _ = smoothstep(x, lo - shoulder, lo)
        down, _ = smoothstep(-x, -hi - shoulder, -hi)
        return up * down

    return SmoothingFunction(0.5 * (lo + hi), 0.5 * (hi - lo) + shoulder, f)


def eigendecompose(op: Band, window: Optional[EnergyWindow] = None) -> SpectralDecomposition:
    """Eigenpairs of a real symmetric band, eigenvalues ascending.

    With no window, all n pairs; a tridiagonal band gets them by divide and
    conquer (LAPACK `dstedc` with COMPZ = 'I'), bit for bit those of the
    dense `eigh`.  That `eigh` is `dsyevd`: `dsytrd` reduces the matrix to
    tridiagonal form, `dstedc('I')` solves the tridiagonal problem and
    `dormtr` applies the reduction to its eigenvectors.  On a matrix that
    is already tridiagonal every Householder reflector of `dsytrd` has
    tau = 0, so the reduction returns the same diagonals and `dormtr`
    applies the identity: calling `dstedc` directly gives the same bits
    without the n x n densify, the O(n^3) reduction and the back-transform.
    With a window, only the pairs inside its open interval, as
    `dirichlet_decomposition` returns them; a tridiagonal band gets them
    from MRRR (LAPACK `dstemr`) in O(n k) for k pairs, with no n x n array.
    Without the bundled OpenBLAS, or for a wider band, both come from the
    dense `eigh`, the window cut by its mask.
    """
    if op.b == 1 and window is None and (stedc := lapacke("dstedc")) is not None:
        return _divide_and_conquer(stedc, op)
    if op.b == 1 and window is not None and (stemr := lapacke("dstemr")) is not None:
        return _mrrr(stemr, op, window)
    w, u = np.linalg.eigh(op.dense())
    if window is not None:
        keep = window.contains(w)
        w, u = w[keep], u[:, keep]
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def _divide_and_conquer(stedc, op: Band) -> SpectralDecomposition:
    """All eigenpairs of a symmetric tridiagonal band, from dstedc with COMPZ = 'I'.

    d comes back as the ascending eigenvalues.  Z is column-major with
    ldz = n, so its columns are the rows of a C-ordered n x n array; the
    eigenvectors are a C-ordered copy of its transpose, as `eigh` returns them.
    """
    n = op.n
    d, e = op.entries[1].copy(), op.entries[2, :-1].copy()  # d and e are overwritten
    z = np.empty((n, n))
    stedc(b"I", n, d, e, z, n)
    return SpectralDecomposition(eigenvalues=d, eigenvectors=np.ascontiguousarray(z.T))


def _mrrr(stemr, op: Band, window: EnergyWindow) -> SpectralDecomposition:
    """The eigenpairs of a symmetric tridiagonal band inside the open window.

    dstemr with RANGE='V' returns the half-open (lo, hi]; the window's own
    mask cuts it to (lo, hi).  Z is column-major with ldz = n, so its
    columns are the rows of a C-ordered (columns, n) array.
    """
    n = op.n
    lo, hi = window.lam - window.eps, window.lam + window.eps
    w = np.empty(n)
    isuppz = np.empty(2 * n, dtype=np.int64)

    def call(z, nzc):
        d = op.entries[1].copy()  # d and e are overwritten
        e = np.zeros(n)
        e[:-1] = op.entries[2, :-1]
        m, tryrac = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        stemr(b"V", b"V", n, d, e, lo, hi, 0, 0, m, w, z, n, nzc, isuppz, tryrac)
        return int(m[0])

    query = np.zeros((1, n))
    call(query, -1)  # the column count of Z comes back in its first entry
    cols = int(query[0, 0])
    if cols == 0:
        return SpectralDecomposition(eigenvalues=np.empty(0), eigenvectors=np.empty((n, 0)))
    z = np.empty((cols, n))
    found = call(z, cols)
    keep = window.contains(w[:found])
    return SpectralDecomposition(eigenvalues=w[:found][keep].copy(), eigenvectors=z[:found][keep].T)


def resolvent(op: Band, z: complex, x: np.ndarray) -> np.ndarray:
    """(T - z)^{-1} x for a tridiagonal band T and a vector or an n x k block x.

    LAPACK `zgtsv` (Gaussian elimination with partial pivoting) solves all k
    right-hand sides in O(n k) with no n x n array.  Without the bundled
    OpenBLAS, or for a wider band, `np.linalg.solve` on the dense band.
    """
    x, n = np.asarray(x), op.n
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side must be a vector or a block with {n} rows, "
                         f"got shape {x.shape}")
    gtsv = lapacke("zgtsv") if op.b == 1 else None
    if gtsv is None:
        return np.linalg.solve(op.dense() - z * np.eye(n), x)
    # sub-, main and superdiagonal, overwritten by the factorization
    dl, d, du = (op.entries[0, 1:].astype(complex), op.entries[1] - complex(z),
                 op.entries[2, :-1].astype(complex))
    b = np.array(x.T, dtype=complex, order="C")  # column-major n x k with ldb = n
    gtsv(n, 1 if x.ndim == 1 else x.shape[1], dl, d, du, b, n)
    return b.T


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
    eigenpairs in the `support_mask` of where(w) are built.
    """
    k = np.arange(1, n + 1)
    w = dirichlet_eigenvalues(n, dx) + shift
    if where is not None:
        keep = support_mask(np.asarray(where(w)))
        k, w = k[keep], w[keep]
    # j*k reduced modulo the period 2(n+1) in integers keeps the sine argument in [0, 2 pi)
    u = (np.outer(np.arange(1, n + 1), k) % (2 * (n + 1))) * (np.pi / (n + 1))
    np.sin(u, out=u)
    u *= math.sqrt(2.0 / (n + 1))
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def support_mask(fw: np.ndarray) -> np.ndarray:
    """Where |fw| > SUPPORT_RTOL * max |fw|, the eigenpairs a function with the values
    fw keeps: dropping the others changes U f(Lambda) U* only by rounding."""
    return np.abs(fw) > SUPPORT_RTOL * np.abs(fw).max(initial=0.0)


def support(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray]):
    """(U_S, f_S), the eigenvectors in the `support_mask` of f and the values of f
    there: f(H) = U_S diag(f_S) U_S^dagger.  U is sliced only for a proper subset."""
    fw = np.asarray(f(dec.eigenvalues))
    if not np.all(np.isfinite(fw)):
        raise ValueError("function is singular or undefined at an eigenvalue")
    u = dec.eigenvectors
    keep = support_mask(fw)
    if not keep.all():
        u, fw = u[:, keep], fw[keep]
    return u, fw


@dataclass(frozen=True)
class ThinProduct:
    """A finite-rank operator kept as its factors: left @ core @ right^dagger.

    left is m x r, core r x s and right k x s, so the operator is m x k and
    its rank is at most min(r, s); `singular_values` reads it.
    """

    left: np.ndarray
    core: np.ndarray
    right: np.ndarray


def singular_values(left: np.ndarray, core: np.ndarray, right: np.ndarray,
                    top: int = TOP) -> np.ndarray:
    """Leading singular values of left @ core @ right^dagger, zero-padded to
    min(top, rows, cols) values: a tall factor F = Q R (orthonormal Q) is
    replaced by R, and one SVD of the small core that is left gives them.
    When right is left, its R is taken once."""
    count = min(top, left.shape[0], right.shape[0])

    def r_factor(f):
        return np.linalg.qr(f, mode="r") if f.shape[0] > f.shape[1] else f

    rl = r_factor(left)
    rr = rl if right is left else r_factor(right)
    sv = np.linalg.svd(rl @ core @ rr.conj().T, compute_uv=False)[:count]
    return np.pad(sv, (0, count - sv.size))


def thin_sum(*terms: ThinProduct) -> ThinProduct:
    """The sum of thin products as one: [L_1 .. L_k] diag(C_1 .. C_k) [R_1 .. R_k]^dagger.

    When every term has right is left, the sum's right is its left too."""
    core = np.block([[t.core if i == k else np.zeros((t.core.shape[0], u.core.shape[1]))
                      for k, u in enumerate(terms)] for i, t in enumerate(terms)])
    left = np.hstack([t.left for t in terms])
    same = all(t.right is t.left for t in terms)
    return ThinProduct(left, core, left if same else np.hstack([t.right for t in terms]))


def sandwich(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray], m) -> ThinProduct:
    """f(H) M f(H) as U_S (f_S (U_S^dagger M U_S) f_S) U_S^dagger, with S the support of f.

    M is a matrix or a Band; it is applied to the thin U_S only.
    """
    u, fw = support(dec, f)
    core = fw[:, None] * (u.conj().T @ (m @ u)) * fw[None, :]
    return ThinProduct(u, core, u)


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
    column k is moved to times[k].  One product U^T states, the phases
    broadcast over its columns, one product back.  The basis must be real,
    as every eigensolver here returns it, and a complex one is a ValueError.
    The products stay in real arithmetic: a complex C-ordered array viewed
    as float interleaves (re, im) along its rows, so both multiply real
    arrays and no complex copy of U is made.
    """
    u = dec.eigenvectors
    if np.iscomplexobj(u):
        raise ValueError("propagate needs a real eigenbasis")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D sequence")
    if states.shape[0] != dec.source_dim:
        raise ValueError("state dimension does not match the decomposition")
    if states.ndim == 2 and states.shape[1] != times.size:
        raise ValueError("a block of states needs one column per time")
    cols = np.ascontiguousarray(states, dtype=complex).reshape(dec.source_dim, -1)
    phases = np.exp(-1j * np.outer(dec.eigenvalues, times))
    coef = np.multiply(phases, (u.T @ cols.view(np.float64)).view(np.complex128), out=phases)
    return (u @ coef.view(np.float64)).view(np.complex128)


def scattering_projector(dec: SpectralDecomposition, states: np.ndarray,
                         threshold: float) -> np.ndarray:
    """Finite-box surrogate for the absolutely-continuous projection, applied to states.

    Projects out the eigenvalues at or below threshold + AC_DELTA, as
    states - U_low (U_low^dagger states): U_low holds those few columns, so
    the cost is O(n k) for k of them and no other eigenvector is read.  On
    the box every eigenvalue is discrete, so states below the lowest channel
    threshold (bound states) are treated as the point-spectrum analogue.
    This is a heuristic surrogate, not an identity.  AC_DELTA is a fixed
    module constant (0.01), which the initial-set norm of
    `scattering.wave_operator_probe` shares; no report carries it.
    """
    low = dec.eigenvectors[:, dec.eigenvalues <= threshold + AC_DELTA]
    return states - low @ (low.conj().T @ states)


def opnorm(apply, apply_h, n: int) -> float:
    """Spectral norm of an operator M on C^n by power iteration on M*M, given
    the actions x -> M x and x -> M* x (a deterministic complex start)."""
    rng = np.random.default_rng(OPNORM_SEED)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    s = 0.0
    for _ in range(OPNORM_ITERS):
        w = apply_h(apply(v))
        s_new = np.linalg.norm(w)
        if s_new == 0:
            return 0.0
        v = w / s_new
        if abs(s_new - s) <= 1e-12 * s_new:
            s = s_new
            break
        s = s_new
    return math.sqrt(s)
