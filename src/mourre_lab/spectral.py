"""Eigendecomposition and everything derived from it.

Functions of an operator are formed from its eigenpairs: smooth
localization functions of H and the unitary propagator; an
energy window is a mask of eigenvalues (`EnergyWindow.contains`), and
`SmoothingFunction.window` holds every point where an eta is nonzero.
`eigendecompose` is the one way to eigenpairs of H and alone picks the
solver: all of them by divide and conquer (LAPACK `dstedc`, the bits of a
dense `eigh`), one window's from MRRR (`dstemr`), several windows' from
one `tails_eigenpairs` solve, which reads the constant channel tails of
H: its work is nearly flat in the number of pairs, while MRRR is cheaper
for a single window of a few pairs.  A band whose off-diagonal is not one
negative constant has no tails solve; its windows come from MRRR over
their span.  The channel operators -Delta + v_pm
need no solver, because the Dirichlet Laplacian has a closed-form sine
(DST-I) eigenbasis, built only where a function such as eta is nonzero;
`dst1` applies that basis by FFT, so a channel function f(-Delta + v)
acts as dst1(f(w + v) dst1(x)) with no n x n array.  A function f(H)
costs what its support costs: only eigenvectors in the `support_mask` of
f enter U f(Lambda) U*, so a compactly supported eta gives a low-rank
product.  A finite-rank operator is a `ThinProduct`, factors (left, core,
right) for left @ core @ right^dagger, never its matrix (`sandwich`,
`thin_sum`, `singular_values`).  The compression U^dagger M U of a band M
onto thin columns U (`compress`) is formed in blocks of ROW_BLOCK rows,
so it holds no n x k array beside U.
A resolvent needs no eigenpairs at all: `resolvent` gives (T - z)^{-1} X
for a tridiagonal T (H or a channel) and a vector or a thin block X by
LAPACK `zgtsv`, in O(n k).  `propagate` moves a state, or one state per
time, over a whole time ladder in two products with the real basis U,
staying in real arithmetic for a complex state (`real_matmul`).
`scattering_projector` applies 1 - U_low U_low^dagger, with U_low the few
eigenvectors at or below threshold, to states and never forms it.  `opnorm` is the spectral
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
    "tails_eigenpairs",
    "dirichlet_eigenvalues",
    "dirichlet_decomposition",
    "dst1",
    "support",
    "support_mask",
    "compress",
    "sandwich",
    "ThinProduct",
    "thin_sum",
    "singular_values",
    "resolvent",
    "real_matmul",
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
# `compress` forms M U in blocks of ROW_BLOCK rows.  Measured on the widest eta
# window of rho-scan-L160 (1601 x 48) and of a rho scan at n = 12801 (12801 x 201),
# 2 vCPU, min of repeats: 256 rows took 0.92 / 38-39 ms, 512 took 0.91 / 41 ms and
# 1024 took 0.88 / 41-43 ms, while the traced peak of that scan's compressions
# grows with the block (0.34, 0.52 and 0.88 MiB at n = 1601).  512 is within 5 %
# of the fastest at both sizes.
ROW_BLOCK = 512


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
    `plateau` vanish outside center +- width, so `window` holds every x with
    eta(x) != 0; `compactness_ladder` refuses an eta for (ii)-(iv) that is
    nonzero at an end of it."""

    center: float
    width: float
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float))

    @property
    def window(self) -> EnergyWindow:
        return EnergyWindow(self.center, self.width)


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


def eigendecompose(op: Band,
                   windows: Optional[Sequence[EnergyWindow]] = None) -> SpectralDecomposition:
    """Eigenpairs of a real symmetric band, eigenvalues ascending: all n with
    no windows, else each pair inside any of the open windows once.

    All n pairs of a tridiagonal band come from divide and conquer (LAPACK
    `dstedc` with COMPZ = 'I'), bit for bit those of the dense `eigh`.  That
    `eigh` is `dsyevd`: `dsytrd` reduces the matrix to tridiagonal form,
    `dstedc('I')` solves the tridiagonal problem and `dormtr` applies the
    reduction to its eigenvectors.  On a matrix that is already tridiagonal
    every Householder reflector of `dsytrd` has tau = 0, so the reduction
    returns the same diagonals and `dormtr` applies the identity: calling
    `dstedc` directly gives the same bits without the n x n densify, the
    O(n^3) reduction and the back-transform.  No windows ([]) give no pairs,
    one its pairs from MRRR (LAPACK `dstemr`) in O(n k) for k pairs, several
    theirs from one `tails_eigenpairs` solve, or, on a band that solve refuses
    (an off-diagonal that is not one negative constant), from MRRR over their
    span.  Without the bundled OpenBLAS (for none, one, or a refused band), or
    for a wider band, the dense `eigh` cut by the masks.
    """
    if windows is None:
        if op.b == 1 and (stedc := lapacke("dstedc")) is not None:
            return _divide_and_conquer(stedc, op)
    elif not windows:
        return SpectralDecomposition(eigenvalues=np.empty(0), eigenvectors=np.empty((op.n, 0)))
    elif op.b == 1 and len(windows) > 1 and _constant_negative_off(op):
        return tails_eigenpairs(op, windows)
    elif op.b == 1 and (stemr := lapacke("dstemr")) is not None:
        return _mrrr(stemr, op, windows)
    w, u = np.linalg.eigh(op.dense())
    if windows is not None:
        keep = _inside(windows, w)
        w, u = w[keep], u[:, keep]
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def _inside(windows: Sequence[EnergyWindow], x: np.ndarray) -> np.ndarray:
    """Mask of the values inside any of the windows."""
    return np.logical_or.reduce([win.contains(x) for win in windows])


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


def _mrrr(stemr, op: Band, windows: Sequence[EnergyWindow]) -> SpectralDecomposition:
    """The eigenpairs of a symmetric tridiagonal band inside any of the open windows.

    dstemr with RANGE='V' returns the half-open (lo, hi] of their span; the
    windows' masks cut it to them.  Z is column-major with ldz = n, so its
    columns are the rows of a C-ordered (columns, n) array.
    """
    n = op.n
    lo = min(w.lam - w.eps for w in windows)
    hi = max(w.lam + w.eps for w in windows)
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
    keep = _inside(windows, w[:found])
    return SpectralDecomposition(eigenvalues=w[:found][keep].copy(), eigenvectors=z[:found][keep].T)


def tails_eigenpairs(op: Band, windows: Sequence[EnergyWindow]) -> SpectralDecomposition:
    """The eigenpairs of a symmetric tridiagonal band T with a constant off-diagonal
    -s that lie in any of the windows, each once and ascending, in one solve.

    The diagonal is constant on a first block of nodes and on a last one (the
    channel tails of H, where v = v_pm); S is the nodes between them.  On a
    tail of m nodes the pivots of T - lam from its Dirichlet end are
    s U_{j+1}(c/2) / U_j(c/2), c = (a - lam)/s, with U the Chebyshev polynomials
    of the second kind, so the tail's count of negative pivots and its last
    pivot come in closed form, and a twisted factorization run across S from
    both sides counts the eigenvalues below lam in O(|S|).  All wanted indices
    of all windows are bisected at once on that count.  Each vector is then
    built from both Dirichlet ends in difference form (D_{j+1} = D_j +
    g_j z_j, z_{j+1} = z_j + D_{j+1}, with g_j = (v_j - lam)/s), which keeps
    the relative accuracy of lam - v_j that orthogonality needs at gaps far
    below ||T||; the two halves are matched on two rows of S, lam takes one
    Rayleigh step from the residual of those rows and the vector is rebuilt
    in place.  Above the middle of the band the recurrence runs on the
    mirrored vector (-1)^j z_j.  The work is nearly flat in the number of
    pairs; a band with short tails is correct, only slower.  Orthogonality
    rests on gaps far above the rounding of lam - v_j, as in the channel
    bands here; MRRR has no such limit, and it is cheaper for a single
    window of a few pairs (`eigendecompose`).
    """
    a, off = op.entries[1], op.entries[2, :-1]
    n = op.n
    if op.b != 1 or n < 3:
        raise ValueError("the tails solve needs a tridiagonal band of at least 3 nodes")
    if not _constant_negative_off(op):
        raise ValueError("the tails solve needs a constant negative off-diagonal")
    tails = _Tails(a, -float(off[0]))
    # eigenvalue number i lies in [lo, hi) when count(lo) <= i < count(hi); an
    # index in several windows takes the bracket of the first
    ends = np.array([(w.lam - w.eps, w.lam + w.eps) for w in windows]).reshape(-1, 2)
    lo, hi = np.full(n, np.nan), np.full(n, np.nan)
    for (l, h), (c_lo, c_hi) in reversed(list(zip(ends, tails.count(ends)))):
        lo[c_lo:c_hi], hi[c_lo:c_hi] = l, h
    wanted = np.flatnonzero(~np.isnan(lo))
    if not wanted.size:
        return SpectralDecomposition(eigenvalues=np.empty(0), eigenvectors=np.empty((n, 0)))
    lam = tails.bisect(wanted, lo[wanted], hi[wanted])
    lam, z = tails.vectors(lam)
    inside = _inside(windows, lam)
    if not inside.all():  # a pair that rounding moved onto an end of its window
        lam, z = lam[inside], z[:, inside]
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=z)


def _constant_negative_off(op: Band) -> bool:
    """Whether the off-diagonal of a tridiagonal band is one constant -s < 0."""
    off = op.entries[2, :-1]
    return bool(off[0] < 0 and np.all(off == off[0]))


def _tail_pivots(v, s: float, m, lam):
    """(negative pivots, last pivot) of T_m - lam for each lam, with T_m the
    m x m Dirichlet block of a tail whose diagonal is 2s + v and off-diagonal
    -s; v and m broadcast against lam.  With sin^2(theta/2) = (lam - v)/4s, the
    pivots are s U_{j+1}/U_j and U_j = sin((j+1) theta)/sin(theta): the first
    m - 1 pivots hold floor(m theta / pi) negatives (the sign changes of U_0 ..
    U_{m-1}), and the last is s sin((m+1) theta)/sin(m theta).  Both are read
    from the same reduced angles, so the count is exact for the computed theta.
    Outside the band of the tail, theta = i phi or pi + i phi and the sines
    become sinh."""
    lo = (lam - v) / (4 * s)                # sin^2(theta / 2)
    hi = ((v - lam) + 4 * s) / (4 * s)      # cos^2(theta / 2)
    theta = 2 * np.arctan2(np.sqrt(np.maximum(lo, 0.0)), np.sqrt(np.maximum(hi, 0.0)))
    turns_m = np.floor(m * theta / math.pi)
    turns_m1 = np.floor((m + 1) * theta / math.pi)

    def sin_reduced(angle, turns):  # |sin|, from the angle reduced into [0, pi]
        return np.sin(np.minimum(np.maximum(angle - turns * math.pi, 0.0), math.pi))

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = sin_reduced((m + 1) * theta, turns_m1) / sin_reduced(m * theta, turns_m)
        ratio = np.where(turns_m1 == turns_m, ratio, -ratio)
        # sinh((m+1) phi) / sinh(m phi), and its limit (m+1)/m at phi = 0
        phi = 2 * np.arcsinh(np.sqrt(np.maximum(np.maximum(-lo, -hi), 0.0)))
        grow = np.exp(phi) * np.expm1(-2 * (m + 1) * phi) / np.expm1(-2 * m * phi)
    grow = np.where(phi == 0, (m + 1) / m, grow)
    below, above = lo <= 0, hi <= 0
    # + 0.0 turns a pivot of -0.0 into +0.0: a zero pivot counts as nonnegative
    # and sends the next one to -inf, as the recurrence itself does
    pivot = s * np.where(below, grow, np.where(above, -grow, ratio)) + 0.0
    negatives = np.where(below, 0, np.where(above, m - 1, turns_m)).astype(np.int64)
    return negatives + (pivot < 0), pivot


class _Tails:
    """The tails solve of `tails_eigenpairs` on the diagonal a and off-diagonal -s:
    constant tails of p and n - q nodes, and S = [p, q) between them, never
    empty (a constant diagonal is cut in the middle)."""

    def __init__(self, a: np.ndarray, s: float):
        n = a.size
        varies = np.flatnonzero(a != a[0])
        if not varies.size:
            p = (n - 1) // 2
            q = p + 1
        else:
            p = int(varies[0])
            q = min(max(int(np.flatnonzero(a != a[-1])[-1]) + 1, p + 1), n - 1)
            p = min(p, q - 1)
        self.a, self.s, self.n, self.p, self.q = a, s, n, p, q
        self.v_ends = np.array([[a[0] - 2 * s], [a[-1] - 2 * s]])
        self.m_ends = np.array([[p], [n - q]])

    def _ends(self, lam):
        """Negative pivots and last pivots of both tails, each of shape (2,) + lam.shape."""
        shape = (2,) + (1,) * lam.ndim
        return _tail_pivots(self.v_ends.reshape(shape), self.s, self.m_ends.reshape(shape), lam)

    def count(self, lam: np.ndarray) -> np.ndarray:
        """The number of eigenvalues below each lam, from the twisted
        factorization with its twist at node p."""
        a, s2, p, q = self.a, self.s**2, self.p, self.q
        negs, (top, d) = self._ends(lam)
        piv = a[p:q].reshape((-1,) + (1,) * lam.ndim) - lam
        with np.errstate(divide="ignore"):
            for i in range(q - p - 1, 0, -1):  # pivots from the bottom tail up to p + 1
                d = np.subtract(piv[i], s2 / d, out=piv[i])
            piv[0] -= s2 / top + s2 / d        # the twist element at p
        return negs.sum(axis=0) + (piv < 0).sum(axis=0)

    def bisect(self, index: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Eigenvalue number `index` in its bracket (lo, hi), for all at once, to
        the rounding level 2 eps ||T|| of the count."""
        tol = 2 * np.finfo(float).eps * (np.abs(self.a).max() + 2 * self.s)
        for _ in range(max(0, math.ceil(math.log2(np.max(hi - lo) / tol)))):
            mid = 0.5 * (lo + hi)
            above = self.count(mid) > index
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        return 0.5 * (lo + hi)

    def _twist(self, lam: np.ndarray) -> np.ndarray:
        """Per eigenvalue, the node k in S with the smallest twist element |gamma_k|,
        where the eigenvector is largest."""
        a, s2, p, q = self.a, self.s**2, self.p, self.q
        _, (top, bottom) = self._ends(lam)
        down = np.empty((q - p, lam.size))  # pivot at node p - 1 + i, from the top
        up = np.empty((q - p, lam.size))    # pivot at node p + 1 + i, from the bottom
        down[0], up[-1] = top, bottom
        with np.errstate(divide="ignore"):
            for i in range(1, q - p):
                down[i] = (a[p - 1 + i] - lam) - s2 / down[i - 1]
            for i in range(q - p - 2, -1, -1):
                up[i] = (a[p + 1 + i] - lam) - s2 / up[i + 1]
            gamma = (a[p:q, None] - lam) - s2 / down - s2 / up
        return p + np.argmin(np.abs(gamma), axis=0)

    def vectors(self, lam: np.ndarray):
        """(eigenvalues, n x k eigenvectors) from the bisected lam: one build, one
        Rayleigh step, one rebuild, all in the one n x k array."""
        a, s = self.a, self.s
        twist = self._twist(lam)
        mirror = np.where(lam > 0.5 * (a[0] + a[-1]), -1.0, 1.0)
        # lam relative to the bottom of each tail's band (or mirrored, its top),
        # so that g_j = mirror (lam - v_j)/s keeps the accuracy of lam - v_j
        shift_top = lam - (a[0] - 2 * s * mirror)
        shift_bottom = lam - (a[-1] - 2 * s * mirror)
        z = np.empty((self.n, lam.size))
        step = self._build(z, shift_top, shift_bottom, mirror, twist)
        self._build(z, shift_top + step, shift_bottom + step, mirror, twist)
        flip = np.flatnonzero(mirror < 0)
        if flip.size:
            z[1::2, flip] *= -1.0
        return shift_top + step + (a[0] - 2 * s * mirror), z

    def _build(self, z, shift_top, shift_bottom, mirror, twist) -> np.ndarray:
        """Fill z with the unit vectors at lam (given by its shifts) and return
        the Rayleigh step of lam from their residual."""
        a, s, n, p, q = self.a, self.s, self.n, self.p, self.q
        cols = np.arange(z.shape[1])
        _sweep(z[:q + 1], p, -mirror * shift_top / s, (a[p:q] - a[0]) / s, mirror,
               shift_top / s)
        top = z[p:q + 1].copy()  # the top half on S, before the bottom sweep writes there
        _sweep(z[::-1][:n - p], n - q, -mirror * shift_bottom / s,
               (a[q - 1:p:-1] - a[-1]) / s, mirror, shift_bottom / s)
        # match the bottom half to the top on rows k, k + 1 by least squares
        t0, t1 = top[twist - p, cols], top[twist + 1 - p, cols]
        b0, b1 = z[twist, cols], z[twist + 1, cols]
        size = np.maximum(np.abs(b0), np.abs(b1))
        alpha = (t0 * (b0 / size) + t1 * (b1 / size)) / ((b0 / size) ** 2 + (b1 / size) ** 2) / size
        for i, j in enumerate(range(p, q + 1)):
            mine = j <= twist
            z[j] = np.where(mine, top[i], alpha * z[j])
        z[q + 1:] *= alpha
        # the glued vector leaves the residuals s (t1 - alpha b1) on row k and
        # s (alpha b0 - t0) on row k + 1; take norms without overflow
        size = np.maximum(z.max(axis=0), -z.min(axis=0))
        z /= size
        norm = np.sqrt(np.einsum("ij,ij->j", z, z))
        z /= norm
        size *= norm
        zk, zk1 = t0 / size, alpha * b1 / size
        return mirror * s * (zk * (t1 - alpha * b1) / size + zk1 * (alpha * b0 - t0) / size)


def _sweep(z, m: int, g_tail, w, mirror, mu) -> None:
    """Fill the rows of z, in sweep order from a Dirichlet end, with the
    difference-form solution z_0 = D_0 = 1: the first m steps are the tail's,
    with g = g_tail, and step m + i takes g = mirror (w_i - mu).  Columns
    whose entries pass 2^256 are rescaled by 2^-511 with the rows before them;
    the checks are spaced so that no entry can overflow in between (each step
    grows |z| + |D| at most by 2 + 2|g|)."""
    rows, g_s = list(z), [mirror * (wi - mu) for wi in w]
    gs = [g_tail] * m + g_s
    bound = max([np.abs(g).max() for g in [g_tail] + g_s])
    every = max(1, int(511 // math.log2(2 + 2 * bound)))
    d, t = np.ones(z.shape[1]), np.empty(z.shape[1])
    multiply, add = np.multiply, np.add
    rows[0][:] = 1.0
    for start in range(0, len(rows) - 1, every):
        for j in range(start, min(start + every, len(rows) - 1)):
            multiply(gs[j], rows[j], t)
            add(d, t, d)
            add(rows[j], d, rows[j + 1])
        for c in np.flatnonzero(np.maximum(np.abs(rows[j + 1]), np.abs(d)) > 2.0**256):
            z[:j + 2, c] *= 2.0**-511
            d[c] *= 2.0**-511


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


def compress(m: Band, u: np.ndarray) -> np.ndarray:
    """U^dagger M U for a band M of half-width b and an n x w block U, with no
    n x w array: rows lo..hi of M U read only the rows lo - b..hi + b of U, so
    each block of ROW_BLOCK rows of M U is formed from its own rows of U and
    folded into the sum as U[lo:hi]^dagger (M U)[lo:hi] at once.  Its rows
    are bitwise those of the full product M U, so for n <= ROW_BLOCK the
    result is bitwise U^dagger (M U); beyond, only the order of the block
    sums differs.  ROW_BLOCK is 512; its measurements stand beside it."""
    n, b = m.n, m.b

    def block(lo):
        hi = min(n, lo + ROW_BLOCK)
        a, z = max(0, lo - b), min(n, hi + b)
        mu = Band(m.entries[:, a:z]) @ u[a:z]  # exact on rows lo..hi, which reach a..z only
        return u[lo:hi].conj().T @ mu[lo - a:hi - a]

    out = block(0)
    for lo in range(ROW_BLOCK, n, ROW_BLOCK):
        out += block(lo)
    return out


def sandwich(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray],
             m: Band) -> ThinProduct:
    """f(H) M f(H) as U_S (f_S (U_S^dagger M U_S) f_S) U_S^dagger, with S the
    support of f, for a band M; U_S^dagger M U_S comes from `compress`."""
    u, fw = support(dec, f)
    return ThinProduct(u, fw[:, None] * compress(m, u) * fw[None, :], u)


def dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along axis 0, y_k = sqrt(2/(n+1)) sum_j x_j sin(j k pi / (n+1)).

    It is its own inverse, and y holds the coefficients of x in the
    eigenbasis of `dirichlet_decomposition`.  The DFT of the odd extension
    (0, x, 0, -reversed x) of length 2(n+1) is -2i times the sine sum, so a
    real FFT gives it in O(n log n) per column with no n x n basis.  A
    complex x is transformed one part at a time, which halves the scratch.
    The FFT's cost follows the largest prime factor of n + 1: a complex
    801 x 11 block (n + 1 = 2 * 401) takes about 2.5 ms, a 601 x 11 one
    (n + 1 = 2 * 7 * 43) about 0.3 ms (2 vCPU).
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


def real_matmul(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """u @ y for a real u and a complex 2-D block y, in real arithmetic: a complex
    C-ordered array viewed as float interleaves (re, im) along its rows, so u
    multiplies a real array and no complex copy of u is made.  Every
    eigensolver here returns a real basis; a complex u is a ValueError."""
    if np.iscomplexobj(u):
        raise ValueError("real_matmul needs a real eigenbasis")
    y = np.ascontiguousarray(y, dtype=complex)
    return (u @ y.view(np.float64)).view(np.complex128)


def propagate(dec: SpectralDecomposition, states: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """e^{-itH} over a time ladder: an n x T block whose column k is at times[k].

    `states` is one vector, moved to every time, or an n x T block whose
    column k is moved to times[k].  One product U^T states, the phases
    broadcast over its columns, one product back, both by `real_matmul`,
    which refuses a complex basis.
    """
    u = dec.eigenvectors
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D sequence")
    if states.shape[0] != dec.source_dim:
        raise ValueError("state dimension does not match the decomposition")
    if states.ndim == 2 and states.shape[1] != times.size:
        raise ValueError("a block of states needs one column per time")
    phases = np.exp(-1j * np.outer(dec.eigenvalues, times))
    coef = np.multiply(phases, real_matmul(u.T, states.reshape(dec.source_dim, -1)), out=phases)
    return real_matmul(u, coef)


def scattering_projector(dec: SpectralDecomposition, states: np.ndarray,
                         threshold: float) -> np.ndarray:
    """Finite-box surrogate for the absolutely-continuous projection, applied to states.

    Projects out the eigenvalues at or below threshold + AC_DELTA, as
    states - U_low (U_low^T states), both by `real_matmul`: U_low holds those
    few columns, so the cost is O(n k) for k of them and no other eigenvector
    is read.  On the box every eigenvalue is discrete, so the states below
    the lowest channel threshold (bound states) stand for the point spectrum.
    This is a heuristic surrogate, not an identity; the exact statement at one
    energy is `scattering.wave_operator_probe`.  AC_DELTA is a fixed module
    constant (0.01) that only this projector reads; no report carries it.
    """
    low = dec.eigenvectors[:, dec.eigenvalues <= threshold + AC_DELTA]
    block = states.reshape(states.shape[0], -1)
    return states - real_matmul(low, real_matmul(low.T, block)).reshape(states.shape)


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
