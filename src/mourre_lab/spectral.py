"""Eigendecomposition and everything derived from it.

Functions of an operator are formed from its eigenpairs: projections
onto energy windows, smooth localization functions of H, resolvents and
the unitary propagator.  H comes from one dense `eigh`; the channel
operators -Delta + v_pm need none, because the Dirichlet Laplacian has a
closed-form sine (DST-I) eigenbasis, which can also be built for an
energy window alone.  A function f(H) costs what its support costs: only
eigenvectors where f is nonzero enter U f(Lambda) U*, so a compactly
supported eta gives a low-rank product.  Propagation of a complex state
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


def eigendecompose(op: Band) -> SpectralDecomposition:
    w, u = np.linalg.eigh(op.dense())
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


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


def sandwich(dec: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray], m) -> np.ndarray:
    """f(H) M f(H) as U_S (f_S (U_S^dagger M U_S) f_S) U_S^dagger, with S the support of f.

    M is a matrix or a Band; it is applied to the thin U_S only.
    """
    u, fw = _support(dec, f)
    uh = u.conj().T
    core = fw[:, None] * (uh @ (m @ u)) * fw[None, :]
    return u @ core @ uh


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
