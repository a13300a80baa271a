"""Commutator-positivity estimators and the transfer verification.

The closed-form positivity function of the channel pair is piecewise
linear in energy with kinks at the two asymptotic potential values.
The numerical estimators compress the commutator i[H,A] onto an energy
window (sharp projection or a smooth localization function) and report
both the raw smallest eigenvalue and a corrected value obtained after
discarding compression modes that are spatially localized, either in
the interaction region or near the box ends.

On the finite box the raw compressed commutator can never be uniformly
positive: for any exact eigenvector u of H one has <u, i[H,A] u> = 0
(the finite-dimensional virial identity), so the compression is always
traceless.  The positivity of the continuum model shows up as a ladder
of positive modes accompanied by a few strongly negative, spatially
localized ones -- the finite-volume shadow of the compact correction.
The discard policy makes that split auditable: raw and corrected values
are always reported together with per-mode localization diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .operators import OperatorSet
from .spectral import (
    EnergyWindow,
    SmoothingFunction,
    SpectralDecomposition,
    ThinProduct,
    bump,
    dirichlet_decomposition,
    eigendecompose,
    sandwich,
)

__all__ = [
    "DiscardPolicy",
    "RhoEstimate",
    "TransferReport",
    "analytic_rho",
    "estimate_rho_window",
    "estimate_rho_eta",
    "virial_defects",
    "transfer_verify",
    "rho_scan",
    "pair_matrices",
    "opnorm",
]

PAIRS = ("H_A", "channel-", "channel+")


@dataclass(frozen=True)
class DiscardPolicy:
    """Flags compression modes whose mass concentrates in the interaction
    region or near the box ends.

    A mode is discarded when at least `theta` of its probability mass sits
    in |x| <= interaction_radius, or within boundary_fraction * L of either
    end.  The boundary width scales with L because the spurious modes decay
    on a scale set by the box, not by the lattice.
    """

    theta: float = 0.5
    interaction_radius: float = 4.0
    boundary_fraction: float = 0.25
    discard_nothing: bool = False

    def boundary_width(self, L: float) -> float:
        return self.boundary_fraction * L


@dataclass(frozen=True)
class RhoEstimate:
    lam: float
    eps: float
    raw_min: float
    corrected: float
    n_discarded: int
    compression_spectrum: np.ndarray
    discard_log: list = field(default_factory=list)
    note: str = ""


@dataclass(frozen=True)
class TransferReport:
    lambda_samples: list
    rho0_analytic: list
    rho_H_estimate: list
    margins: list
    excluded: list
    eone_residuals: list
    verdict: bool
    tol: float


def analytic_rho(v_minus: float, v_plus: float, lam: float) -> float:
    """Closed-form positivity function of the channel pair.

    +infinity below the lower threshold, then 2(lam - min), then
    2(lam - max) from the upper threshold on (the >= branch applies at
    lam == max, where the value is 0).
    """
    lo = min(v_minus, v_plus)
    hi = max(v_minus, v_plus)
    if lam < lo:
        return math.inf
    if lam < hi:
        return 2.0 * (lam - lo)
    return 2.0 * (lam - hi)


def pair_matrices(opset: OperatorSet, pair: str):
    """(energy operator, commutator i[.,.], node positions) for a pair tag, as bands."""
    nodes = opset.grid.nodes
    if pair == "H_A":
        return opset.H, opset.commutator_iHA, nodes
    if pair in ("channel-", "channel+"):
        side = pair[-1]
        cm, cp = opset.commutator_iH0A0_channel
        return opset.channel_hamiltonian(side), cm if side == "-" else cp, nodes
    raise ValueError(f"unknown pair {pair!r}, expected one of {PAIRS}")


def _region_grams(us: np.ndarray, positions: np.ndarray, L: float, policy: DiscardPolicy):
    """U_S^dagger P U_S for the whole box, the interaction region and the
    boundary region (P the 0/1 projection onto the region's nodes), stacked."""
    inner = np.abs(positions) <= policy.interaction_radius
    bdry = np.abs(positions) >= L - policy.boundary_width(L)
    return np.stack([u.conj().T @ u for u in (us, us[inner], us[bdry])])


def _localization(vec: np.ndarray, grams, policy: DiscardPolicy):
    """Per-mode interaction/boundary mass fractions and flags of the modes
    U_S vec, from the region Gram matrices of U_S: a mode v has mass
    v^dagger G v in a region, at O(k^2) per mode instead of O(n k)."""
    total, inner, bdry = np.sum(vec.conj() * (grams @ vec), axis=1).real
    total[total == 0] = 1.0
    inner, bdry = inner / total, bdry / total
    if policy.discard_nothing:
        flags = np.zeros(vec.shape[1], dtype=bool)
    else:
        flags = (inner >= policy.theta) | (bdry >= policy.theta)
    return inner, bdry, flags


def estimate_rho_window(
    opset: OperatorSet,
    dec: Optional[SpectralDecomposition],
    pair: str,
    win: EnergyWindow,
    policy: DiscardPolicy = DiscardPolicy(),
) -> RhoEstimate:
    """Compress i[H,A] onto the sharp spectral window of H and diagonalize."""
    energy, comm, positions = pair_matrices(opset, pair)
    if dec is None:
        dec = eigendecompose(energy, win)
    sel = dec.window_mask(win)
    if not np.any(sel):
        return RhoEstimate(
            lam=win.lam, eps=win.eps, raw_min=math.inf, corrected=math.inf,
            n_discarded=0, compression_spectrum=np.array([]),
            note="no spectrum in window",
        )
    us = dec.eigenvectors[:, sel]
    csub = us.conj().T @ (comm @ us)
    csub = 0.5 * (csub + csub.conj().T)
    eig, vec = np.linalg.eigh(csub)
    inner, bdry, flags = _localization(vec, _region_grams(us, positions, opset.grid.L, policy),
                                       policy)
    kept = eig[~flags]
    corrected = float(kept.min()) if kept.size else math.inf
    log = [
        {"eigenvalue": float(eig[k]), "interaction_mass": float(inner[k]),
         "boundary_mass": float(bdry[k]), "discarded": bool(flags[k])}
        for k in range(eig.size)
    ]
    return RhoEstimate(
        lam=win.lam, eps=win.eps, raw_min=float(eig.min()), corrected=corrected,
        n_discarded=int(flags.sum()), compression_spectrum=eig, discard_log=log,
    )


def _bisect_sup(holds, lo: float, hi: float, tol: float) -> float:
    """Bisect for the largest a in [lo, hi] where the monotone test `holds(a)`
    is true, until the bracket is below tol * max(1, |lo|) (at most 60 steps)."""
    for _ in range(60):
        if hi - lo <= tol * max(1.0, abs(lo)):
            break
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def estimate_rho_eta(
    opset: OperatorSet,
    dec: Optional[SpectralDecomposition],
    pair: str,
    eta: SmoothingFunction,
    policy: DiscardPolicy = DiscardPolicy(),
    bisect_tol: float = 1e-3,
    psd_rtol: float = 1e-3,
) -> RhoEstimate:
    """Largest a with eta(H) i[H,A] eta(H) - a eta(H)^2 >= 0 after discards.

    The supremum is located by bisection; positive-semidefiniteness is
    tested on the compression eigenmodes that survive the discard policy,
    with an absolute slack psd_rtol * max(1, ||M||) absorbing modes whose
    eta-weight is negligible.
    """
    energy, comm, positions = pair_matrices(opset, pair)
    if dec is None:
        dec = eigendecompose(energy)
    weights = eta(dec.eigenvalues)
    wmax = np.abs(weights).max()
    if wmax == 0:
        raise ValueError("eta(H) is numerically zero on the computed spectrum")
    keep = np.abs(weights) > 1e-12 * wmax
    us = dec.eigenvectors[:, keep]
    ek = weights[keep]
    csub = us.conj().T @ (comm @ us)
    csub = 0.5 * (csub + csub.conj().T)
    m = ek[:, None] * csub * ek[None, :]
    nmat = np.diag(ek**2)
    slack = psd_rtol * max(1.0, float(np.abs(m).max()))
    grams = _region_grams(us, positions, opset.grid.L, policy)

    def min_unflagged(a: float):
        g = m - a * nmat
        eig, vec = np.linalg.eigh(0.5 * (g + g.conj().T))
        inner, bdry, flags = _localization(vec, grams, policy)
        kept = eig[~flags]
        return (float(kept.min()) if kept.size else math.inf), eig, inner, bdry, flags

    def min_all(a: float) -> float:
        g = m - a * nmat
        return float(np.linalg.eigvalsh(0.5 * (g + g.conj().T)).min())

    scale = float(np.abs(csub).max()) or 1.0
    corrected = _bisect_sup(lambda a: min_unflagged(a)[0] >= -slack, -scale - 1.0, scale + 1.0,
                            bisect_tol)
    raw = min(_bisect_sup(lambda a: min_all(a) >= -slack, -scale - 1.0, scale + 1.0, bisect_tol),
              corrected)

    _, eig, inner, bdry, flags = min_unflagged(corrected)
    log = [
        {"eigenvalue": float(eig[k]), "interaction_mass": float(inner[k]),
         "boundary_mass": float(bdry[k]), "discarded": bool(flags[k])}
        for k in range(eig.size)
    ]
    spectrum = np.linalg.eigvalsh(csub)
    return RhoEstimate(
        lam=eta.center, eps=eta.width, raw_min=raw, corrected=corrected,
        n_discarded=int(flags.sum()), compression_spectrum=spectrum, discard_log=log,
    )


def opnorm(matrix, iters: int = 200, seed: int = 7) -> float:
    """Spectral norm by power iteration on M*M (deterministic start).

    M is an array or a `ThinProduct`, which is applied factor by factor.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(matrix.shape[1])
    if np.iscomplexobj(matrix):
        v = v + 1j * rng.standard_normal(matrix.shape[1])
    v /= np.linalg.norm(v)
    mh = matrix.conj().T
    s = 0.0
    for _ in range(iters):
        w = mh @ (matrix @ v)
        s_new = np.linalg.norm(w)
        if s_new == 0:
            return 0.0
        v = w / s_new
        if abs(s_new - s) <= 1e-12 * s_new:
            s = s_new
            break
        s = s_new
    return math.sqrt(s)


def virial_defects(
    opset: OperatorSet,
    dec: SpectralDecomposition,
    indices,
    comm_norm: Optional[float] = None,
) -> np.ndarray:
    """|<u_k, i[H,A] u_k>| / ||i[H,A]|| for the requested eigenvectors."""
    c = opset.commutator_iHA
    if comm_norm is None:
        comm_norm = opnorm(c.dense())
    out = []
    for k in indices:
        u = dec.eigenvectors[:, k]
        out.append(abs(np.real(u.conj() @ (c @ u))) / comm_norm)
    return np.array(out)


def _interior_window(opset: OperatorSet) -> np.ndarray:
    """Smooth spatial weight, 1 on |x| <= L/2, 0 beyond 3L/4."""
    from .grid import smoothstep

    x = opset.grid.nodes
    L = opset.grid.L
    up, _ = smoothstep(x, -0.75 * L, -0.5 * L)
    down, _ = smoothstep(-x, -0.75 * L, -0.5 * L)
    return up * down


def _span(lambdas, eps: float) -> EnergyWindow:
    """The open window (min lambda - eps, max lambda + eps): every eta of half-width
    eps centred on a sample is supported inside it."""
    lo, hi = min(lambdas) - eps, max(lambdas) + eps
    return EnergyWindow(0.5 * (lo + hi), 0.5 * (hi - lo))


def _block_diagonal(*blocks: np.ndarray) -> np.ndarray:
    out = np.zeros((sum(b.shape[0] for b in blocks),) * 2,
                   dtype=np.result_type(*blocks))
    k = 0
    for b in blocks:
        out[k:k + b.shape[0], k:k + b.shape[0]] = b
        k += b.shape[0]
    return out


def transfer_verify(
    opset: OperatorSet,
    dec_H: Optional[SpectralDecomposition],
    lambda_samples,
    eps: float,
    tol: float,
    policy: DiscardPolicy = DiscardPolicy(),
) -> TransferReport:
    """Check the transferred estimate rho_H >= rho_channel at each sample.

    Samples closer than 2*eps to a threshold are excluded (the closed form
    changes branch there).  For each retained sample the corrected eta-form
    estimate for (H, A) is compared against the closed-form channel value,
    and the interior-weighted residual of
    eta(H) i[H,A] eta(H) - J eta(H0) i[H0,A0] eta(H0) J* is recorded as a
    compactness candidate.  Each eta(.) M eta(.) is formed on the support
    of eta only; the channel eigenpairs in that window come in closed form,
    and with dec_H None only the eigenpairs of H around the retained
    samples are computed.  The residual chi (lhs - rhs) chi is
    F C F^T with F = [chi U_H, chi J- U-, chi J+ U+] and C block diagonal,
    so its norm never needs an n x n array.
    """
    pot = opset.potential
    grid = opset.grid
    samples, excluded = [], []
    for lam in lambda_samples:
        near = min(abs(lam - pot.v_minus), abs(lam - pot.v_plus)) < 2 * eps
        (excluded if near else samples).append(float(lam))
    if dec_H is None and samples:
        dec_H = eigendecompose(opset.H, _span(samples, eps))
    chi = _interior_window(opset)
    cm, cp = opset.commutator_iH0A0_channel
    weights = (chi, chi * opset.cutoffs.j_minus, chi * opset.cutoffs.j_plus)

    rho0s, rhos, margins, residuals = [], [], [], []
    for lam in samples:
        eta = bump(lam, eps)
        rho0 = analytic_rho(pot.v_minus, pot.v_plus, lam)
        est = estimate_rho_eta(opset, dec_H, "H_A", eta, policy)
        rho0s.append(rho0)
        rhos.append(est.corrected)
        margins.append(est.corrected - rho0 if math.isfinite(rho0) else math.nan)

        win = EnergyWindow(lam, eps)
        dec_m = dirichlet_decomposition(grid.n, grid.dx, pot.v_minus, win)
        dec_p = dirichlet_decomposition(grid.n, grid.dx, pot.v_plus, win)
        terms = (sandwich(dec_H, eta, opset.commutator_iHA),
                 sandwich(dec_m, eta, cm), sandwich(dec_p, eta, cp))
        diff = ThinProduct(
            np.hstack([w[:, None] * t.factor for w, t in zip(weights, terms)]),
            _block_diagonal(terms[0].core, -terms[1].core, -terms[2].core))
        residuals.append(opnorm(diff))

    verdict = bool(samples) and all(m >= -tol for m in margins if not math.isnan(m))
    return TransferReport(
        lambda_samples=samples, rho0_analytic=rho0s, rho_H_estimate=rhos,
        margins=margins, excluded=excluded, eone_residuals=residuals,
        verdict=verdict, tol=tol,
    )


def rho_scan(
    opset: OperatorSet,
    dec: Optional[SpectralDecomposition],
    lambdas,
    eps: float,
    policy: DiscardPolicy = DiscardPolicy(),
):
    """Rows (lambda, rho0_analytic, rho_raw, rho_corrected, n_discarded, margin).

    With dec None only the eigenpairs of H inside the window spanned by the
    samples' eta supports are computed.
    """
    pot = opset.potential
    lambdas = [float(lam) for lam in lambdas]
    if dec is None and lambdas:
        dec = eigendecompose(opset.H, _span(lambdas, eps))
    rows = []
    for lam in lambdas:
        rho0 = analytic_rho(pot.v_minus, pot.v_plus, lam)
        eta = bump(lam, eps)
        if not np.any(np.abs(eta(dec.eigenvalues)) > 0):
            # window below (or in a gap of) the computed spectrum
            rows.append((lam, rho0, math.inf, math.inf, 0, math.nan))
            continue
        est = estimate_rho_eta(opset, dec, "H_A", eta, policy)
        margin = est.corrected - rho0 if math.isfinite(rho0) else math.nan
        rows.append((lam, rho0, est.raw_min, est.corrected, est.n_discarded, margin))
    return rows
