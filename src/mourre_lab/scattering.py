"""Wave-packet probes of the wave operators and scattering coefficients.

Strong limits are replaced by finite-time stabilization: the approximant
e^{itH} J e^{-itH0} phi is tracked over a ladder of times together with
a Cauchy defect and a boundary margin, and the image is taken at the
best admissible time.  The Dirichlet box makes t -> infinity meaningless
(recurrences), so every probe rejects times where the packet bulk gets
close to the ends.

Each probe works on the whole time ladder at once: `propagate` moves a
state to every time (or column k of a block to time k) in one product
with the eigenbasis of H, the channel dynamics e^{-itH0} act by DST-I
(`dst1`) with no channel basis, and norms, boundary margins and masses
are reductions down the columns of those n x T blocks.  The probes take
the operators and the eigendecomposition of H alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import Grid
from .operators import OperatorSet
from .spectral import (
    AC_DELTA,
    SpectralDecomposition,
    dirichlet_eigenvalues,
    dst1,
    propagate,
    scattering_projector,
)

__all__ = [
    "TwoSpaceState",
    "WaveProbeReport",
    "CompletenessReport",
    "ScatteringCoefficients",
    "make_channel_packet",
    "wave_operator_probe",
    "completeness_probe",
    "scattering_coefficients",
    "sharp_step_oracle",
    "gaussian_averaged_oracle",
]

# A completeness probe passes when both gluing defects fall below DECAY_TARGET at a
# time whose packet bulk is at least BOUNDARY_GUARD from the box ends.
DECAY_TARGET = 0.05
BOUNDARY_GUARD = 4.0
CAPTURE_RADIUS = 4.0  # |x| radius of the step region in `scattering_coefficients`
SCATTER_TIMES = 60  # times of its ladder, t = 0 included
ORACLE_NPTS = 2001  # momentum nodes of `gaussian_averaged_oracle`


@dataclass(frozen=True)
class TwoSpaceState:
    """State (phi_minus, phi_plus) in the two-channel space."""

    grid: Grid
    phi_minus: np.ndarray
    phi_plus: np.ndarray
    sigma: Optional[float] = None

    def norm(self) -> float:
        return math.sqrt(
            self.grid.dx
            * float(np.sum(np.abs(self.phi_minus) ** 2 + np.abs(self.phi_plus) ** 2))
        )


@dataclass(frozen=True)
class WaveProbeReport:
    direction: str
    times: list
    defects: list
    cauchy_ladder: list
    boundary_margins: list
    admissible: list
    best_time: float
    isometry_ratio: float
    image: np.ndarray


@dataclass(frozen=True)
class CompletenessReport:
    """`range_defect` is ||(1 - P_sc) g|| / ||g|| for the best glued column g,
    the same ratio as for its image e^{itH} g (see `completeness_probe`)."""

    times: list
    froufrou_norms: list      # ||(J Jt - 1) e^{-itH} psi|| / ||psi||
    converse_norms: list      # ||(Jt J - 1) e^{-itH0} J* psi|| / ||J* psi||
    boundary_margins: list
    admissible: list
    range_defect: float
    verdict: bool


@dataclass(frozen=True)
class ScatteringCoefficients:
    energy: float
    reflection: float
    transmission: float
    flux_defect: float


def _l2(grid: Grid, vec: np.ndarray):
    """Grid L2 norm of a vector, or of each column of an n x T block."""
    return np.sqrt(grid.dx * np.sum(np.abs(vec) ** 2, axis=0))


def _bulk_radius(grid: Grid, density: np.ndarray, fraction: float = 0.99) -> np.ndarray:
    """Per column of an n x T density, the smallest |x| radius holding the mass fraction
    (0 for a column with no mass)."""
    order = np.argsort(np.abs(grid.nodes))
    cum = np.cumsum(density[order], axis=0)
    total = cum[-1]
    held = total > 0
    below = cum[:, held] / total[held] < fraction
    idx = np.minimum(np.count_nonzero(below, axis=0), grid.n - 1)
    radius = np.zeros(density.shape[1])
    radius[held] = np.abs(grid.nodes[order][idx])
    return radius


def make_channel_packet(
    grid: Grid, channel: str, x0: float, k0: float, sigma: float
) -> TwoSpaceState:
    """Normalized Gaussian exp(ik0 x) exp(-(x-x0)^2 / 4 sigma^2) in one channel."""
    if channel not in ("+", "-"):
        raise ValueError("channel must be '+' or '-'")
    if k0 == 0:
        raise ValueError("packet needs nonzero mean momentum")
    if abs(x0) + 5 * sigma > grid.L:
        raise ValueError("packet tail reaches the boundary: need |x0| + 5 sigma <= L")
    if channel == "-" and x0 >= -4:
        raise ValueError("channel '-' packet must start in the flat region x0 < -4")
    if channel == "+" and x0 <= 4:
        raise ValueError("channel '+' packet must start in the flat region x0 > 4")
    x = grid.nodes
    psi = np.exp(1j * k0 * x - (x - x0) ** 2 / (4 * sigma**2))
    psi = psi / _l2(grid, psi)
    zero = np.zeros_like(psi)
    phi_minus, phi_plus = (psi, zero) if channel == "-" else (zero, psi)
    return TwoSpaceState(grid=grid, phi_minus=phi_minus, phi_plus=phi_plus, sigma=sigma)


def _free_evolve(opset: OperatorSet, state: TwoSpaceState, times: np.ndarray):
    """e^{-itH0} of both channels over the time ladder: two n x T blocks.

    H0_pm = -Delta + v_pm share the DST-I eigenbasis, so the phases of -Delta
    serve both and v_pm adds one phase per time.
    """
    phases = np.exp(-1j * np.outer(dirichlet_eigenvalues(opset.n, opset.grid.dx), times))
    pot = opset.potential
    return tuple(
        dst1(phases * dst1(phi)[:, None]) * np.exp(-1j * v * times)
        for phi, v in ((state.phi_minus, pot.v_minus), (state.phi_plus, pot.v_plus))
    )


def _p0_norm(opset: OperatorSet, state: TwoSpaceState) -> float:
    """Norm of the initial-set surrogate projection of the packet.

    In each channel that is the Parseval norm of the DST-I coefficients
    whose eigenvalue lies above the channel threshold + AC_DELTA.
    """
    w = dirichlet_eigenvalues(opset.n, opset.grid.dx)
    pot = opset.potential
    mass = sum(float(np.sum(np.abs(dst1(phi)[w + v > v + AC_DELTA]) ** 2))
               for phi, v in ((state.phi_minus, pot.v_minus), (state.phi_plus, pot.v_plus)))
    return math.sqrt(opset.grid.dx * mass)


def wave_operator_probe(
    opset: OperatorSet,
    dec_H: SpectralDecomposition,
    packet: TwoSpaceState,
    direction: str,
    times: Sequence[float],
) -> WaveProbeReport:
    """Finite-time approximants of e^{itH} J e^{-itH0} on one packet.

    `times` are magnitudes; the sign is set by `direction` ('+' probes
    t -> +infinity).  The image is the approximant at the admissible time
    with the smallest Cauchy defect.  One free-evolution block serves both
    the approximants and the defects: e^{itH} is unitary, so the defect
    ||e^{-itH} image - J e^{-itH0} phi|| is read as ||image - approximant_t||.
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    ts = (1.0 if direction == "+" else -1.0) * np.asarray(times, dtype=float)
    if packet.sigma is None:
        raise ValueError("packet has no width sigma; the boundary guard is 5 sigma")
    grid = opset.grid
    guard = 5 * packet.sigma

    pm, pp = _free_evolve(opset, packet, ts)
    glued = opset.apply_J(pm, pp)
    # bulk location = median-|x| radius; tails are covered by the 5 sigma guard
    margins = grid.L - _bulk_radius(grid, grid.dx * (np.abs(pm) ** 2 + np.abs(pp) ** 2),
                                    fraction=0.5)
    del pm, pp
    approximants = propagate(dec_H, glued, -ts)  # column k: e^{i t_k H} (...)

    admissible = margins >= guard
    cauchy = _l2(grid, np.diff(approximants, axis=1))
    pairs = admissible[:-1] & admissible[1:]
    if not pairs.any():
        raise RuntimeError(
            "no admissible probe time: packet reaches the boundary before the "
            "approximant stabilizes; increase L or shorten the time ladder"
        )
    best_idx = int(np.argmin(np.where(pairs, cauchy, np.inf)))
    image = approximants[:, best_idx + 1]
    p0 = _p0_norm(opset, packet)
    iso = _l2(grid, image) / p0 if p0 > 0 else math.inf
    defects = _l2(grid, image[:, None] - approximants)

    return WaveProbeReport(
        direction=direction, times=list(times), defects=defects.tolist(),
        cauchy_ladder=cauchy.tolist(), boundary_margins=margins.tolist(),
        admissible=admissible.tolist(), best_time=float(ts[best_idx + 1]),
        isometry_ratio=float(iso), image=image,
    )


def completeness_probe(
    opset: OperatorSet,
    dec_H: SpectralDecomposition,
    psi: np.ndarray,
    times: Sequence[float],
) -> CompletenessReport:
    """Decay probes for the gluing defects J J* - 1 and J* J - 1, forward in time.

    Uses Jt = J* as the reverse identification.  The forward norm tracks
    (JJ* - 1) e^{-itH} psi, the converse norm (J*J - 1) e^{-itH0} J* psi.
    The verdict requires both to fall below DECAY_TARGET at some
    admissible time; a stationary state (bound state) never decays and
    fails the probe.

    The range defect is the share of the best approximant e^{itH} g (g the
    glued column at the admissible time of the smallest forward norm) that
    P_sc = 1 - U_low U_low^T removes.  U_low holds eigenvectors of the same
    H, so U_low^T e^{itH} g = e^{it Lambda_low} U_low^T g: e^{itH} changes
    neither norm of the ratio, which is therefore read from g unpropagated.
    """
    ts = np.asarray(times, dtype=float)
    grid = opset.grid
    psi = np.asarray(psi, dtype=complex)
    npsi = _l2(grid, psi)
    w = opset.cutoffs.jj_sum_sq - 1.0   # JJ* - 1 as a multiplication
    jm, jp = opset.cutoffs.j_minus[:, None], opset.cutoffs.j_plus[:, None]

    ev = propagate(dec_H, psi, ts)
    frous = _l2(grid, w[:, None] * ev) / npsi
    margins = grid.L - _bulk_radius(grid, grid.dx * np.abs(ev) ** 2, fraction=0.5)
    del ev  # each n x T block is released before the next is built (peak memory)
    admissible = margins >= BOUNDARY_GUARD

    fm, fp = opset.apply_J_star(psi)
    phi0 = TwoSpaceState(grid=grid, phi_minus=fm, phi_plus=fp)
    pm, pp = _free_evolve(opset, phi0, ts)
    glued = opset.apply_J(pm, pp)
    convs = np.sqrt(grid.dx * np.sum(np.abs(jm * glued - pm) ** 2
                                     + np.abs(jp * glued - pp) ** 2, axis=0)) / phi0.norm()

    ok_f = bool(np.any(admissible & (frous < DECAY_TARGET)))
    ok_c = bool(np.any(admissible & (convs < DECAY_TARGET)))

    # the best approximant e^{itH} g against the scattering surrogate, read from g
    if not admissible.any():
        raise RuntimeError("no admissible time in the completeness probe; increase L")
    g = glued[:, int(np.argmin(np.where(admissible, frous, np.inf)))]
    p_sc_g = scattering_projector(dec_H, g, min(opset.potential.v_minus, opset.potential.v_plus))
    ng = _l2(grid, g)
    range_defect = _l2(grid, g - p_sc_g) / ng if ng > 0 else math.inf

    return CompletenessReport(
        times=list(times), froufrou_norms=frous.tolist(), converse_norms=convs.tolist(),
        boundary_margins=margins.tolist(), admissible=admissible.tolist(),
        range_defect=float(range_defect), verdict=ok_f and ok_c,
    )


def _coefficients(lam: float, refl: float, trans: float) -> ScatteringCoefficients:
    """R and T at energy lam with their flux defect |R + T - 1|, never clamped."""
    return ScatteringCoefficients(lam, refl, trans, abs(refl + trans - 1.0))


def _step_rt(k, kp):
    """Plane-wave matching at a sharp step, incoming momentum k and outgoing k':
    (R, T) = (((k-k')/(k+k'))^2, 4 k k' / (k+k')^2), for numbers or arrays."""
    return ((k - kp) / (k + kp)) ** 2, 4 * k * kp / (k + kp) ** 2


def sharp_step_oracle(lam: float, v_minus: float, v_plus: float) -> ScatteringCoefficients:
    """Plane-wave matching (`_step_rt`) for the sharp step at energy lam."""
    if lam <= max(v_minus, v_plus):
        raise ValueError("closed channel: need lam > max(v_minus, v_plus)")
    refl, trans = _step_rt(math.sqrt(lam - v_minus), math.sqrt(lam - v_plus))
    return _coefficients(lam, refl, trans)


def gaussian_averaged_oracle(
    lam: float, v_minus: float, v_plus: float, sigma: float
) -> ScatteringCoefficients:
    """Sharp-step oracle averaged over the packet momentum distribution.

    A Gaussian packet with spatial width sigma carries the momentum density
    |phi_hat(k)|^2 ~ exp(-2 sigma^2 (k - k0)^2); closed-channel momenta
    reflect completely.
    """
    k0 = math.sqrt(lam - v_minus)
    dk = 1.0 / (2 * sigma)
    ks = np.linspace(max(1e-9, k0 - 8 * dk), k0 + 8 * dk, ORACLE_NPTS)
    weight = np.exp(-2 * sigma**2 * (ks - k0) ** 2)
    energies = ks**2 + v_minus
    open_ch = energies > max(v_minus, v_plus)
    refl = np.ones_like(ks)
    trans = np.zeros_like(ks)
    refl[open_ch], trans[open_ch] = _step_rt(ks[open_ch], np.sqrt(energies[open_ch] - v_plus))
    z = np.trapezoid(weight, ks)
    rbar = float(np.trapezoid(weight * refl, ks) / z)
    tbar = float(np.trapezoid(weight * trans, ks) / z)
    return _coefficients(lam, rbar, tbar)


def scattering_coefficients(
    opset: OperatorSet,
    dec_H: SpectralDecomposition,
    lam: float,
    x0: float = -25.0,
    sigma: float = 3.0,
) -> ScatteringCoefficients:
    """Reflection/transmission from a left-incoming packet at mean energy lam.

    The packet is launched in the flat left region, propagated under H
    until the reflected and transmitted bulks have separated past the
    capture radius, and the probabilities are read off as the captured
    mass on each side.  Probability conservation makes the transmitted
    mass flux-normalized automatically; the defect |R + T - 1| is
    reported, never clamped.  The ladder holds SCATTER_TIMES equally
    spaced times, from t = 0 to the time the transmitted bulk needs to
    clear the capture radius well; its later times are propagated as one
    block, whose columns are scanned until the bulk nears the boundary.
    """
    pot = opset.potential
    grid = opset.grid
    if lam <= max(pot.v_minus, pot.v_plus):
        raise ValueError("closed channel: need lam > max(v_minus, v_plus)")
    k0 = math.sqrt(lam - pot.v_minus)
    width = k0 / sigma  # energy spread of the packet
    if lam - max(pot.v_minus, pot.v_plus) <= width:
        raise ValueError("closed channel within the packet energy width; raise lam or sigma")
    packet = make_channel_packet(grid, "-", x0, k0, sigma)
    psi0 = opset.cutoffs.j_minus * packet.phi_minus
    psi0 = psi0 / _l2(grid, psi0)

    kp = math.sqrt(lam - pot.v_plus)
    max_time = (abs(x0) + CAPTURE_RADIUS + 6 * sigma) / (2 * min(k0, kp))
    times = np.linspace(0.0, max_time, SCATTER_TIMES)
    x = grid.nodes
    mid = np.abs(x) <= CAPTURE_RADIUS
    left = x < -CAPTURE_RADIUS
    right = x > CAPTURE_RADIUS

    dens = grid.dx * np.abs(propagate(dec_H, psi0, times[1:])) ** 2
    margins = grid.L - _bulk_radius(grid, dens)
    mid_mass = dens[mid].sum(axis=0)
    best = None
    peak = 0.0
    for k, margin in enumerate(margins):
        if margin < 2.0:
            break
        peak = max(peak, mid_mass[k])
        # accept only times after the packet has traversed the step
        if peak > 0.05 and mid_mass[k] < 0.5 * peak:
            if best is None or mid_mass[k] < mid_mass[best]:
                best = k
    if best is None or mid_mass[best] > 0.01:
        raise RuntimeError(
            "channels not separated before the boundary was reached; increase L"
        )
    refl = float(dens[left, best].sum())
    trans = float(dens[right, best].sum())
    return _coefficients(lam, refl, trans)
