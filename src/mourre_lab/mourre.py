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
The discard rule makes that split auditable: a mode is dropped when at
least THETA of its mass sits in |x| <= INTERACTION_RADIUS or within
BOUNDARY_FRACTION * L of either box end, and raw and corrected values
are always reported together with per-mode localization diagnostics.

The eta-form estimator takes a whole list of eta at once: a rho scan or
a transfer check hands it every sample, and `estimate_rho_eta` a list
of one.  The scan and the check compute the eigenpairs of H only where
some eta is nonzero: `eigendecompose` on the windows of all eta at once.
It compresses i[H,A] and the region Gram matrices once per window of
eigenvector columns (at most twice as wide as the widest eta support,
and together holding every support) and slices each eta's k x k blocks
out of them.  The windows bound the work, n w^2 per window of w columns,
and the w x w blocks held; the rows bound the scratch: `compress` forms
i[H,A] U in blocks of ROW_BLOCK rows, and the Gram matrices sum row
slices of U, so no n x w array is made beside the eigenvectors.  With
E = diag(eta) on the support and s the PSD slack, the raw test
E C E - a E^2 >= -s holds iff C - a + s E^-2 >= 0: the raw value is
lambda_min(C + s E^-2), one stacked `eigvalsh` per support size k, clipped
to [floor, corrected], floor = -(max |C_ij| + 1) where the corrected bracket
opens.  Only the corrected value is bisected, in lockstep: each eta keeps
its own bracket and stop rule, so it meets the midpoints it would meet
alone, and each step diagonalizes the still-active eta of one support
size k in one stacked `eigh`.

The corrected test is not monotone: which modes the discard rule flags
changes with a, so the test can hold on an interval and fail on both
sides of it.  On the rho-scan-L160 operators at lambda = 3.0 (L = 160,
n = 1601, eps = 0.1, the 7 eigenpairs of H in (2.9, 3.1)) it fails for
a <= -5.22, where one mode is flagged and the unflagged pencil has crossed,
holds on [-5.215, 3.98] with two flagged, and fails from 3.985 on.  The
bracket -(max |C_ij| + 1) .. max |C_ij| + 1 is symmetric, so its first
midpoint is 0 and the bisection returns the upper edge, 3.98154 (rho0 = 4).
In general the corrected value is a point where the test holds, within
the bisection tolerance of a midpoint above it where it fails (or of the
top of the bracket): which such edge is found is set by the midpoints.
A bisection whose first midpoint falls below -5.22 there ends at the
floor of its bracket or at another edge, and rho moves by O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .operators import Band, OperatorSet
from .spectral import (
    EnergyWindow,
    SmoothingFunction,
    SpectralDecomposition,
    ThinProduct,
    bump,
    compress,
    dirichlet_decomposition,
    eigendecompose,
    opnorm,
    plateau,
    sandwich,
    singular_values,
    support_mask,
    thin_sum,
)

__all__ = [
    "RhoEstimate",
    "TransferReport",
    "analytic_rho",
    "estimate_rho_window",
    "estimate_rho_eta",
    "virial_defects",
    "transfer_verify",
    "rho_scan",
]

# The bisection for rho stops once its bracket is below BISECT_TOL * max(1, |rho|);
# eta M eta - a eta^2 counts as >= 0 down to -PSD_RTOL * max(1, ||eta M eta||).
BISECT_TOL = 1e-3
PSD_RTOL = 1e-3
# A compression mode is discarded when at least THETA of its mass sits in
# |x| <= INTERACTION_RADIUS or within BOUNDARY_FRACTION * L of either end;
# THETA = math.inf discards nothing.  The boundary width scales with L
# because the spurious modes decay on a scale set by the box, not the lattice.
THETA = 0.5
INTERACTION_RADIUS = 4.0
BOUNDARY_FRACTION = 0.25


@dataclass(frozen=True)
class RhoEstimate:
    """A rho estimate; `modes` holds the arrays (eigenvalue, interaction mass,
    boundary mass, discard flag) of the compression modes it was decided on."""

    lam: float
    eps: float
    raw_min: float
    corrected: float
    n_discarded: int
    compression_spectrum: np.ndarray
    modes: tuple = ()
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


def _runs(mask: np.ndarray) -> list:
    """The maximal runs of True in a 1-D mask, as slices."""
    edges = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=0, append=0))
    return [slice(a, z) for a, z in zip(edges[::2], edges[1::2])]


def _compress(us: np.ndarray, comm: Band, grid: Grid):
    """The symmetrized compression of the commutator band comm onto the
    columns U_S (`compress`, in row blocks), and U_S^dagger P U_S for the
    interaction region and the boundary region (P the 0/1 projection onto
    the region's nodes), stacked.  The nodes ascend, so a region is one run
    of rows (|x| <= INTERACTION_RADIUS) or two (the box ends), and each
    Gram matrix sums views of U_S: no row of U_S is copied."""
    c = compress(comm, us)
    x, L = np.abs(grid.nodes), grid.L
    grams = np.zeros((2,) + c.shape, dtype=c.dtype)
    for g, mask in zip(grams, (x <= INTERACTION_RADIUS, x >= L - BOUNDARY_FRACTION * L)):
        for rows in _runs(mask):
            g += us[rows].conj().T @ us[rows]
    return 0.5 * (c + c.conj().T), grams


def _localization(vec: np.ndarray, grams: np.ndarray):
    """Per-mode interaction/boundary mass fractions and flags of the modes
    U_S vec, for a stack of b mode matrices vec (b, k, k) and the region
    Gram matrices of each U_S (b, 2, k, k): a unit mode v has mass
    v^dagger G v in a region, at O(k^2) per mode instead of O(n k); U_S and
    vec are orthonormal, so the total mass is 1.  Each result is (b, k)."""
    masses = np.sum(vec.conj()[:, None] * (grams @ vec[:, None]), axis=-2).real
    inner, bdry = masses.transpose(1, 0, 2)
    return inner, bdry, (inner >= THETA) | (bdry >= THETA)


def estimate_rho_window(
    opset: OperatorSet,
    dec: SpectralDecomposition,
    comm: Band,
    win: EnergyWindow,
) -> RhoEstimate:
    """Compress the commutator band comm (i[H,A], or a channel's i[H0,A0])
    onto the sharp spectral window of dec and diagonalize."""
    sel = win.contains(dec.eigenvalues)
    if not np.any(sel):
        return RhoEstimate(
            lam=win.lam, eps=win.eps, raw_min=math.inf, corrected=math.inf,
            n_discarded=0, compression_spectrum=np.array([]),
            note="no spectrum in window",
        )
    csub, grams = _compress(dec.eigenvectors[:, sel], comm, opset.grid)
    eig, vec = np.linalg.eigh(csub)
    inner, bdry, flags = (a[0] for a in _localization(vec[None], grams[None]))
    kept = eig[~flags]
    corrected = float(kept.min()) if kept.size else math.inf
    return RhoEstimate(
        lam=win.lam, eps=win.eps, raw_min=float(eig.min()), corrected=corrected,
        n_discarded=int(flags.sum()), compression_spectrum=eig, modes=(eig, inner, bdry, flags),
    )


def _bisect_sup(holds, lo, hi) -> np.ndarray:
    """Bisect, entry by entry, for the largest a in [lo[i], hi[i]] where a
    test holds.  `holds(mid, active)` gets the midpoints of the entries
    still bisecting and their indices, and returns one bool each.  An entry
    stops once its bracket is below BISECT_TOL * max(1, |lo|) (at most 60
    steps), so it meets the same midpoints as it would bisected alone.
    The corrected test is not monotone (see the module docstring): the
    result is an edge of a run of holding midpoints, the one the first
    midpoint leads to, and moving that midpoint can move it by O(1)."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    for _ in range(60):
        active = np.flatnonzero(~(hi - lo <= BISECT_TOL * np.maximum(1.0, np.abs(lo))))
        if not active.size:
            break
        mid = 0.5 * (lo[active] + hi[active])
        ok = holds(mid, active)
        lo[active[ok]] = mid[ok]
        hi[active[~ok]] = mid[~ok]
    return lo


def _estimate_rho_batch(
    opset: OperatorSet,
    dec: SpectralDecomposition,
    comm: Band,
    etas,
) -> list:
    """The `RhoEstimate` of `estimate_rho_eta` for every eta at once (see the
    module docstring), each with the modes at its corrected value, and None
    for an eta whose `support_mask` on dec holds no column."""
    values = [eta(dec.eigenvalues) for eta in etas]
    supports = [np.flatnonzero(support_mask(w)) for w in values]
    values = [w[s] for w, s in zip(values, supports)]  # each eta's values on its support only
    live = [j for j, s in enumerate(supports) if s.size]
    out = [None] * len(etas)
    if not live:
        return out
    # Each window of columns is compressed once.  Taken by first column, a
    # support opens a window when it starts at least `span` (the widest
    # support) after the first column of the open window, and otherwise
    # widens the open window to its last column; so no window is wider than
    # 2 * span.  The windows bound the n w^2 flops and the w x w blocks of a
    # compression (one window over all columns would multiply both); its
    # row blocks (`compress`) bound its scratch to ROW_BLOCK x w.  Disjoint
    # supports, and a single one, get exactly their own columns.
    span = max(supports[j][-1] - supports[j][0] + 1 for j in live)
    starts, ends, opened = {}, {}, -span
    for j in sorted(live, key=lambda i: supports[i][0]):
        s = supports[j]
        if s[0] >= opened + span:
            opened = s[0]
        starts[j], ends[opened] = opened, max(ends.get(opened, 0), s[-1] + 1)
    windows = {lo: _compress(dec.eigenvectors[:, lo:hi], comm, opset.grid)
               for lo, hi in ends.items()}
    blocks = {j: np.ix_(supports[j] - starts[j], supports[j] - starts[j]) for j in live}

    for k in {supports[j].size for j in live}:
        group = [j for j in live if supports[j].size == k]
        csub = np.stack([windows[starts[j]][0][blocks[j]] for j in group])
        gsub = np.stack([windows[starts[j]][1][(slice(None),) + blocks[j]] for j in group])
        ek = np.stack([values[j] for j in group])
        m = ek[:, :, None] * csub * ek[:, None, :]
        nmat = ek[:, :, None] ** 2 * np.eye(k)
        slack = PSD_RTOL * np.maximum(1.0, np.abs(m).max(axis=(1, 2)))

        def unflagged(a, active):
            g = m[active] - a[:, None, None] * nmat[active]
            eig, vec = np.linalg.eigh(0.5 * (g + g.conj().mT))
            inner, bdry, flags = _localization(vec, gsub[active])
            return np.where(flags, math.inf, eig).min(axis=1), eig, inner, bdry, flags

        scale = np.abs(csub).max(axis=(1, 2))
        scale[scale == 0] = 1.0
        floor, top = -scale - 1.0, scale + 1.0
        corrected = _bisect_sup(lambda a, act: unflagged(a, act)[0] >= -slack[act], floor, top)
        # raw = lambda_min(C + s E^-2) in [floor, corrected].  A column whose
        # s / eta^2 reaches 1e8 * top (up to 1e21 at a support edge) is cut loose
        # and held at top >= corrected: raw moves by about max|C_ij|^2 / (1e8 top),
        # and eigvalsh, whose error follows the norm, never sees that diagonal.
        shift = slack[:, None] / ek**2
        near = shift < 1e8 * top[:, None]
        pencil = csub * (near[:, :, None] & near[:, None, :])
        pencil[:, range(k), range(k)] += np.where(near, shift, top[:, None])
        raw = np.minimum(np.maximum(np.linalg.eigvalsh(pencil).min(axis=1), floor), corrected)

        _, eig, inner, bdry, flags = unflagged(corrected, np.arange(len(group)))
        spectra = np.linalg.eigvalsh(csub)
        for row, j in enumerate(group):
            # a raw value clipped at its floor bounds nothing: the closed form lies below
            out[j] = RhoEstimate(
                lam=etas[j].center, eps=etas[j].width, raw_min=float(raw[row]),
                corrected=float(corrected[row]), n_discarded=int(flags[row].sum()),
                compression_spectrum=spectra[row],
                modes=(eig[row], inner[row], bdry[row], flags[row]),
                note="raw_min is its bracket floor" if raw[row] == floor[row] else "",
            )
    return out


def estimate_rho_eta(
    opset: OperatorSet,
    dec: SpectralDecomposition,
    comm: Band,
    eta: SmoothingFunction,
) -> RhoEstimate:
    """Largest a with eta(H) C eta(H) - a eta(H)^2 >= 0 after discards, for
    the commutator band C = comm (i[H,A], or a channel's i[H0,A0] with dec
    its eigenpairs).

    The supremum is located by bisection to BISECT_TOL; positive-
    semidefiniteness is tested on the compression eigenmodes that survive
    the discard rule (THETA, INTERACTION_RADIUS, BOUNDARY_FRACTION), with an absolute slack PSD_RTOL * max(1, ||M||)
    absorbing modes whose eta-weight is negligible.  This is the lockstep
    estimator of `rho_scan` and `transfer_verify` run on one eta, so the
    compression covers exactly the `support_mask` of eta; an eta with no
    column there is a ValueError.
    """
    est = _estimate_rho_batch(opset, dec, comm, [eta])[0]
    if est is None:
        raise ValueError("eta(H) is numerically zero on the computed spectrum")
    return est


def virial_defects(opset: OperatorSet, dec: SpectralDecomposition, indices) -> np.ndarray:
    """|<u_k, i[H,A] u_k>| / ||i[H,A]|| for the requested eigenvectors; the
    norm comes from `opnorm` on the band, which is its own adjoint."""
    c = opset.commutator_iHA
    comm_norm = opnorm(lambda v: c @ v, lambda v: c @ v, opset.n)
    out = []
    for k in indices:
        u = dec.eigenvectors[:, k]
        out.append(abs(np.real(u.conj() @ (c @ u))) / comm_norm)
    return np.array(out)


def _windowed_estimates(opset: OperatorSet, lambdas: list, eps: float):
    """(dec, etas, estimates) for the samples lambdas: the eigenpairs of H
    where some eta = bump(lambda, eps) is nonzero, each once and ascending,
    from `eigendecompose` on the windows of those eta, the eta, and the
    `RhoEstimate` of each from one lockstep estimate (see the module
    docstring), None for an eta that meets no computed eigenvalue."""
    etas = [bump(lam, eps) for lam in lambdas]
    dec = eigendecompose(opset.H, [eta.window for eta in etas])
    return dec, etas, _estimate_rho_batch(opset, dec, opset.commutator_iHA, etas)


def _margin(est: RhoEstimate, rho0: float) -> float:
    """Corrected estimate minus the closed form, nan where the closed form is infinite."""
    return est.corrected - rho0 if math.isfinite(rho0) else math.nan


def transfer_verify(
    opset: OperatorSet,
    lambda_samples,
    eps: float,
    tol: float,
) -> TransferReport:
    """Check the transferred estimate rho_H >= rho_channel at each sample.

    Samples closer than 2*eps to a threshold are excluded (the closed form
    changes branch there); a run that excludes every sample is a ValueError,
    and so is one that retains only samples below both thresholds, where
    rho0 is +inf and no margin is finite.
    For each retained sample the corrected eta-form estimate for (H, A) is
    compared against the closed-form channel value, and the interior-weighted
    residual of
    eta(H) i[H,A] eta(H) - J eta(H0) i[H0,A0] eta(H0) J* is recorded as a
    compactness candidate.  The eigenpairs of H and the estimates come from
    `_windowed_estimates`, and a sample whose eta meets none of those pairs
    is a ValueError.  Each eta(.) M eta(.) is formed on the support of eta
    only; the channel eigenpairs there come in closed form.  The residual
    chi (lhs - rhs) chi, with chi = plateau(-L/2, L/2, L/4) on the nodes (1 on
    |x| <= L/2, 0 beyond 3L/4), is F C F^T with F = [chi U_H, chi J- U-, chi J+ U+]
    and C block diagonal; its norm is the largest singular value of those
    factors, so it never needs an n x n array.
    """
    pot = opset.potential
    grid = opset.grid
    samples, excluded = [], []
    for lam in lambda_samples:
        near = min(abs(lam - pot.v_minus), abs(lam - pot.v_plus)) < 2 * eps
        (excluded if near else samples).append(float(lam))
    if not samples:  # a run that checks nothing has no verdict to give
        raise ValueError(f"no lambda sample lies 2 eps clear of a threshold: "
                         f"excluded {excluded} at eps={eps}")
    if not any(math.isfinite(analytic_rho(pot.v_minus, pot.v_plus, lam)) for lam in samples):
        raise ValueError(f"every retained lambda sample {samples} lies below both thresholds, "
                         f"where rho0 is +inf: no margin is finite")
    dec_H, etas, ests = _windowed_estimates(opset, samples, eps)
    chi = plateau(-0.5 * grid.L, 0.5 * grid.L, 0.25 * grid.L)(grid.nodes)
    c0 = opset.commutator_iH0A0
    weights = (chi, chi * opset.cutoffs.j_minus, chi * opset.cutoffs.j_plus)

    rho0s, rhos, margins, residuals = [], [], [], []
    for lam, eta, est in zip(samples, etas, ests):
        if est is None:
            raise ValueError(f"eta(H) is numerically zero on the computed spectrum "
                             f"at lambda={lam}, eps={eps}")
        rho0 = analytic_rho(pot.v_minus, pot.v_plus, lam)
        rho0s.append(rho0)
        rhos.append(est.corrected)
        margins.append(_margin(est, rho0))

        dec_m = dirichlet_decomposition(grid.n, grid.dx, pot.v_minus, eta)
        dec_p = dirichlet_decomposition(grid.n, grid.dx, pot.v_plus, eta)
        terms = (sandwich(dec_H, eta, opset.commutator_iHA),
                 sandwich(dec_m, eta, c0), sandwich(dec_p, eta, c0))
        # each term has right is left, so one weighted factor serves as both
        diff = thin_sum(*(ThinProduct(f := w[:, None] * t.left, sign * t.core, f)
                          for w, t, sign in zip(weights, terms, (1.0, -1.0, -1.0))))
        residuals.append(float(singular_values(diff.left, diff.core, diff.right, top=1)[0]))

    verdict = all(m >= -tol for m in margins if not math.isnan(m))
    return TransferReport(
        lambda_samples=samples, rho0_analytic=rho0s, rho_H_estimate=rhos,
        margins=margins, excluded=excluded, eone_residuals=residuals,
        verdict=verdict, tol=tol,
    )


def rho_scan(opset: OperatorSet, lambdas, eps: float):
    """Rows (lambda, rho0_analytic, rho_raw, rho_corrected, n_discarded, margin)
    from `_windowed_estimates`; a sample whose eta meets no computed eigenvalue
    gets the row (lambda, rho0, inf, inf, 0, nan).
    """
    pot = opset.potential
    lambdas = [float(lam) for lam in lambdas]
    rows = []
    for lam, est in zip(lambdas, _windowed_estimates(opset, lambdas, eps)[2]):
        rho0 = analytic_rho(pot.v_minus, pot.v_plus, lam)
        if est is None:
            rows.append((lam, rho0, math.inf, math.inf, 0, math.nan))
        else:
            rows.append((lam, rho0, est.raw_min, est.corrected, est.n_discarded,
                         _margin(est, rho0)))
    return rows
