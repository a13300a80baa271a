"""Wave-packet completeness probes, and the stationary two-space scattering.

A state of the channel space H0 = l2(channel -) (+) l2(channel +) is the
pair (phi_-, phi_+) that `OperatorSet.apply_J_star` returns, and J glues
a pair back into one state of H (`OperatorSet.apply_J`).  The probes
start from `make_channel_packet`: a Gaussian in one channel, glued by J.

The completeness probe replaces strong limits by finite-time
stabilization: the gluing defects of e^{-itH} psi are tracked over a
ladder of times with a boundary margin, since the Dirichlet box makes
t -> infinity meaningless (recurrences).  The ladder is walked in
blocks of at most LADDER_BLOCK times: `propagate` moves a state to every
time of a block in one product with the eigenbasis of H, the channels
move by DST-I (`dst1`), and norms and margins are reductions down the
columns of those n x LADDER_BLOCK blocks into length-T arrays.  The
blocks of one time block are released before the next time block is
built, the converse defect is reduced in place, and the DST-I of J* psi
is taken once.  Beyond the basis of H the probe holds about 6 such
blocks (1.8 MiB at n = 601), whatever the number of times T: less than
the divide and conquer that builds the basis, which sets a completeness
run's peak.

The rest needs no time and no basis of H.  Outside the box the
potential is the constant v_pm, so two corner entries of H
(`outgoing_band`) make the box the infinite lattice with an outgoing
boundary, and R(lam + i0) is one banded solve.  It gives R and T of a
plane wave (`stationary_coefficients`) and the two-space wave operator
W- phi = J phi - R(lam + i0)(HJ - JH0) phi at one energy
(`wave_operator_probe`).  The lattice R and T are judged against the
continuum ones of the same potential (`continuum_oracle`): the continuum
equation is integrated across the region |x| <= reach where V varies and
matched to plane waves at its ends.  The sharp step's reach is 0, so its
oracle is the plane-wave matching at x = 0 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Grid
from .operators import Band, OperatorSet
from .spectral import (
    SpectralDecomposition,
    dirichlet_eigenvalues,
    dst1,
    propagate,
    resolvent,
    scattering_projector,
)

__all__ = [
    "WaveProbeReport",
    "CompletenessReport",
    "ScatteringCoefficients",
    "make_channel_packet",
    "wave_operator_probe",
    "completeness_probe",
    "scattering_coefficients",
    "stationary_coefficients",
    "outgoing_root",
    "outgoing_band",
    "continuum_oracle",
    "gaussian_averaged_oracle",
]

# A completeness probe passes when both gluing defects fall below DECAY_TARGET at a
# time whose packet bulk is at least BOUNDARY_GUARD from the box ends.
DECAY_TARGET = 0.05
BOUNDARY_GUARD = 4.0
# The probe propagates at most LADDER_BLOCK times at once, so its memory does not
# grow with the ladder.  Narrower blocks repeat the product U^T psi and run more,
# smaller products with the basis: 16 was slower than 32 at n = 601.
LADDER_BLOCK = 32
ORACLE_NPTS = 2001  # momentum nodes of the packet average of R and T
# RK4 step of `continuum_oracle`: at 2e-3 (1000 steps across the smooth step) its R
# agrees with 2000 steps to 10 digits, and R + T = 1 to 1e-14.
RK4_STEP = 2e-3


@dataclass(frozen=True)
class WaveProbeReport:
    """W- at one energy, from `wave_operator_probe`."""

    energy: float
    images: np.ndarray        # n x m: W- phi of each incoming wave, channel - first
    flux: list                # d lam / dk of each image
    outgoing_residuals: list  # ||W- phi|| / ||J phi|| of each outgoing wave
    density: float            # Im <f, R(lam + i0) f> / pi
    image_density: float      # sum of |<psi, f>|^2 / (2 pi d lam / dk) over the images


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


def _bulk_radius(order: np.ndarray, radii: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Per column of an n x T density, the smallest |x| radius holding half the mass
    (0 for a column with no mass); `order` is argsort(|x|) of the nodes and `radii`
    the |x| in that order."""
    cum = np.cumsum(density[order], axis=0)
    total = cum[-1]
    held = total > 0
    below = cum[:, held] / total[held] < 0.5
    idx = np.minimum(np.count_nonzero(below, axis=0), radii.size - 1)
    radius = np.zeros(density.shape[1])
    radius[held] = radii[idx]
    return radius


def make_channel_packet(opset: OperatorSet, x0: float, k0: float, sigma: float) -> np.ndarray:
    """J of the normalized Gaussian exp(ik0 x) exp(-(x-x0)^2 / 4 sigma^2) in the
    channel on the side of x0 (+ for x0 > 0), rescaled to unit grid norm."""
    grid = opset.grid
    if k0 == 0:
        raise ValueError("packet needs nonzero mean momentum")
    if abs(x0) + 5 * sigma > grid.L:
        raise ValueError("packet tail reaches the boundary: need |x0| + 5 sigma <= L")
    if abs(x0) <= 4:
        raise ValueError("packet must start in a flat region: need |x0| > 4")
    x = grid.nodes
    g = np.exp(1j * k0 * x - (x - x0) ** 2 / (4 * sigma**2))
    g = g / _l2(grid, g)
    psi = (opset.cutoffs.j_plus if x0 > 0 else opset.cutoffs.j_minus) * g
    return psi / (math.sqrt(grid.dx) * np.linalg.norm(psi))


def _free_evolve(opset: OperatorSet, coefs, times: np.ndarray):
    """e^{-itH0} at each of T times of the pair phi = (phi_-, phi_+), given by its
    DST-I coefficients coefs = (dst1(phi_-), dst1(phi_+)): two n x T blocks.

    H0_pm = -Delta + v_pm share the DST-I eigenbasis, so the phases of -Delta
    serve both and v_pm adds one phase per time.  The second channel takes
    the phases' array in place, so no third n x T block is held.
    """
    phases = np.exp(-1j * np.outer(dirichlet_eigenvalues(opset.n, opset.grid.dx), times))
    (cm, cp), pot = coefs, opset.potential
    pm = dst1(phases * cm[:, None])
    pm *= np.exp(-1j * pot.v_minus * times)
    pp = dst1(np.multiply(phases, cp[:, None], out=phases))
    pp *= np.exp(-1j * pot.v_plus * times)
    return pm, pp


def completeness_probe(
    opset: OperatorSet,
    dec_H: SpectralDecomposition,
    psi: np.ndarray,
    times: Sequence[float],
) -> CompletenessReport:
    """Decay probes for the gluing defects J J* - 1 and J* J - 1, forward in time.

    Uses Jt = J* as the reverse identification.  The forward norm tracks
    (JJ* - 1) e^{-itH} psi, the converse norm (J*J - 1) e^{-itH0} J* psi, with
    J* psi the channel pair of `OperatorSet.apply_J_star`.  The verdict
    requires both to fall below DECAY_TARGET at some admissible time: an
    outgoing `make_channel_packet` passes, and a stationary state (bound
    state) never decays and fails the probe.

    The times are taken in blocks of at most LADDER_BLOCK: each block is
    propagated by H, reduced to its forward norms and margins and released
    before its channel pair is moved, glued and reduced to converse norms,
    and the pair is released before the next block is propagated.

    The range defect is the share of the best approximant e^{itH} g that
    P_sc = 1 - U_low U_low^T removes, with g = J e^{-itH0} J* psi at the first
    admissible time whose forward norm is within 16 n eps of the smallest
    (a bound state's is the same at every time, so rounding never picks it),
    rebuilt after the ladder with no basis of H.  U_low holds eigenvectors of
    the same H, so U_low^T e^{itH} g = e^{it Lambda_low} U_low^T g: e^{itH}
    changes neither norm of the ratio, which is read from g unpropagated.
    """
    ts = np.asarray(times, dtype=float)
    grid = opset.grid
    psi = np.asarray(psi, dtype=complex)
    npsi = _l2(grid, psi)
    w = opset.cutoffs.jj_sum_sq - 1.0   # JJ* - 1 as a multiplication
    jm, jp = opset.cutoffs.j_minus[:, None], opset.cutoffs.j_plus[:, None]
    fm, fp = opset.apply_J_star(psi)
    n0 = math.sqrt(grid.dx * float(np.sum(np.abs(fm) ** 2 + np.abs(fp) ** 2)))
    coefs = dst1(fm), dst1(fp)
    order = np.argsort(np.abs(grid.nodes))
    radii = np.abs(grid.nodes[order])

    frous, convs, margins = np.empty(ts.size), np.empty(ts.size), np.empty(ts.size)
    for lo in range(0, ts.size, LADDER_BLOCK):
        blk = slice(lo, lo + LADDER_BLOCK)
        ev = propagate(dec_H, psi, ts[blk])
        frous[blk] = _l2(grid, w[:, None] * ev) / npsi
        margins[blk] = grid.L - _bulk_radius(order, radii, grid.dx * np.abs(ev) ** 2)
        del ev  # each n x LADDER_BLOCK block is released before the next is built

        pm, pp = _free_evolve(opset, coefs, ts[blk])
        glued = opset.apply_J(pm, pp)
        pm -= jm * glued  # (1 - J*J) of the pair, in place: the norm of (J*J - 1)
        pp -= jp * glued
        convs[blk] = np.sqrt(grid.dx * np.sum(np.abs(pm) ** 2 + np.abs(pp) ** 2, axis=0)) / n0
        del pm, pp, glued
    admissible = margins >= BOUNDARY_GUARD

    ok_f = bool(np.any(admissible & (frous < DECAY_TARGET)))
    ok_c = bool(np.any(admissible & (convs < DECAY_TARGET)))

    # the best approximant e^{itH} g against the scattering surrogate, read from g
    if not admissible.any():
        raise RuntimeError("no admissible time in the completeness probe; increase L")
    scores = np.where(admissible, frous, np.inf)
    best = int(np.argmax(scores <= scores.min() + 16 * grid.n * np.finfo(float).eps))
    g = opset.apply_J(*_free_evolve(opset, coefs, ts[best:best + 1]))[:, 0]
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


def _continuum_rt(energies: np.ndarray, v_minus: float, v_plus: float, potential, reach: float):
    """R and T of -d^2/dx^2 + V at each energy E of an array, open in both channels,
    where V = potential(x) on [-reach, reach] and v_pm beyond.  psi'' = (V - E) psi
    is integrated by RK4 from x = reach, where psi = e^{i k+ x}, to x = -reach, all
    energies at once, and matched there to A e^{i k- x} + B e^{-i k- x}:
    R = |B / A|^2 and T = (k+ / k-) / |A|^2.  At reach 0 no step is taken, and the
    match at x = 0 is the plane-wave matching of a sharp step."""
    km, kp = np.sqrt(energies - v_minus), np.sqrt(energies - v_plus)
    steps = math.ceil(2 * reach / RK4_STEP)
    h = -2 * reach / max(steps, 1)
    v = potential(reach + 0.5 * h * np.arange(2 * steps + 1))  # V at every half step
    psi = np.exp(1j * kp * reach)
    dpsi = 1j * kp * psi
    s2 = v[0] - energies
    for i in range(steps):  # psi'' = (V - E) psi, with V - E at x, x + h/2 and x + h
        s0, s1, s2 = s2, v[2 * i + 1] - energies, v[2 * i + 2] - energies
        p2, d2 = psi + 0.5 * h * dpsi, dpsi + 0.5 * h * s0 * psi
        p3, d3 = psi + 0.5 * h * d2, dpsi + 0.5 * h * s1 * p2
        p4, d4 = psi + h * d3, dpsi + h * s1 * p3
        psi, dpsi = (psi + h / 6 * (dpsi + 2 * d2 + 2 * d3 + d4),
                     dpsi + h / 6 * (s0 * psi + 2 * s1 * (p2 + p3) + s2 * p4))
    a = 0.5 * (psi + dpsi / (1j * km)) * np.exp(1j * km * reach)
    b = 0.5 * (psi - dpsi / (1j * km)) * np.exp(-1j * km * reach)
    return np.abs(b / a) ** 2, (kp / km) / np.abs(a) ** 2


def continuum_oracle(lam: float, v_minus: float, v_plus: float, potential,
                     reach: float) -> ScatteringCoefficients:
    """R and T at energy lam of the continuum potential V = potential(x) on
    [-reach, reach] and v_pm beyond, by RK4 across [-reach, reach]."""
    if lam <= max(v_minus, v_plus):
        raise ValueError("closed channel: need lam > max(v_minus, v_plus)")
    refl, trans = _continuum_rt(np.array([float(lam)]), v_minus, v_plus, potential, reach)
    return _coefficients(lam, float(refl[0]), float(trans[0]))


def _packet_average(lam: float, v_minus: float, v_plus: float, sigma: float, rt):
    """R and T averaged over the momentum density |phi_hat(k)|^2 ~ exp(-2 sigma^2
    (k - k0)^2) of a Gaussian packet of width sigma, k0 = sqrt(lam - v_minus).
    rt(E) gives (R, T) at the energies E = k^2 + v_minus open in both channels;
    closed momenta reflect completely."""
    if lam <= max(v_minus, v_plus):
        raise ValueError("closed channel: need lam > max(v_minus, v_plus)")
    k0 = math.sqrt(lam - v_minus)
    dk = 1.0 / (2 * sigma)
    ks = np.linspace(max(1e-9, k0 - 8 * dk), k0 + 8 * dk, ORACLE_NPTS)
    weight = np.exp(-2 * sigma**2 * (ks - k0) ** 2)
    energies = ks**2 + v_minus
    open_ch = energies > max(v_minus, v_plus)
    refl = np.ones_like(ks)
    trans = np.zeros_like(ks)
    refl[open_ch], trans[open_ch] = rt(energies[open_ch])
    z = np.trapezoid(weight, ks)
    rbar = float(np.trapezoid(weight * refl, ks) / z)
    tbar = float(np.trapezoid(weight * trans, ks) / z)
    return _coefficients(lam, rbar, tbar)


def gaussian_averaged_oracle(lam: float, v_minus: float, v_plus: float, sigma: float,
                             potential, reach: float) -> ScatteringCoefficients:
    """`continuum_oracle` averaged over the packet momentum density."""
    return _packet_average(lam, v_minus, v_plus, sigma,
                           lambda e: _continuum_rt(e, v_minus, v_plus, potential, reach))


def outgoing_root(z: complex, v: float, dx: float) -> complex:
    """The root xi of xi + 1/xi = 2 - dx^2 (z - v) with |xi| < 1, or at a real z in the
    band (v, v + 4/dx^2) its limit e^{ik dx}, 0 < k dx < pi, from Im z > 0: where the
    potential is v, the outgoing solution of (H - z) u = 0 steps as u_{j+1} = xi u_j."""
    a = 0.5 * dx**2 * (complex(z) - v)  # 1 - cos(k dx), kept exact near the band bottom
    if a.imag == 0 and 0 < a.real < 2:
        return complex(1 - a.real, math.sqrt(a.real * (2 - a.real)))
    root = complex(np.sqrt(a * (a - 2)))
    return 1 / max(1 - a + root, 1 - a - root, key=abs)  # the roots multiply to 1


def outgoing_band(opset: OperatorSet, z: complex) -> Band:
    """H with H[0,0] lowered by xi_-/dx^2 and H[n-1,n-1] by xi_+/dx^2 (`outgoing_root`
    at v_pm): the exterior, where v = v_pm, eliminated exactly.  Its `resolvent` at z
    is that of the infinite lattice restricted to the box, not an absorbing layer."""
    dx, pot = opset.grid.dx, opset.potential
    entries = opset.H.entries.astype(complex)
    entries[1, 0] -= outgoing_root(z, pot.v_minus, dx) / dx**2
    entries[1, -1] -= outgoing_root(z, pot.v_plus, dx) / dx**2
    return Band(entries)


def wave_operator_probe(opset: OperatorSet, lam: float, f: np.ndarray) -> WaveProbeReport:
    """The two-space wave operator W-(H, H0; J) at the real energy lam, in its
    stationary form W- phi = J phi - R(lam + i0)(HJ - JH0) phi, on the waves
    phi_j = e^{+-i k dx j} of each open channel (Im xi > 0 for xi = `outgoing_root`,
    and k dx = arg xi).  A channel's HJ - JH0 is its `interaction_band`, nonzero
    only near the step, and one solve on `outgoing_band` takes every
    (HJ - JH0) phi and f as the columns of one block.

    The outgoing waves (channel - moving left, channel + moving right) map to
    zero.  The images psi of the incoming ones span the absolutely continuous
    part of H at lam: the density Im <f, R(lam + i0) f> / pi of its spectral
    measure equals the sum of |<psi, f>|^2 / (2 pi d lam / dk) over them, with
    d lam / dk = 2 Im xi / dx and <a, b> = dx sum conj(a) b.  That is
    Ran W- = H_ac(H) resolved in energy.  H and J are real, so
    W+ phi = conj(W- conj phi).
    """
    dx, pot, cut = opset.grid.dx, opset.potential, opset.cutoffs
    steps = np.arange(opset.n)
    glued, sources, incoming, flux = [], [], [], []
    for side, v, j, inward in (("-", pot.v_minus, cut.j_minus, 1),
                               ("+", pot.v_plus, cut.j_plus, -1)):
        xi = outgoing_root(lam, v, dx)
        if xi.imag <= 0:
            continue
        band = opset.interaction_band(side)
        flux.append(2 * xi.imag / dx)  # one incoming wave per open channel
        for sign in (1, -1):  # moving right, moving left
            phi = np.exp(sign * 1j * np.angle(xi) * steps)
            glued.append(j * phi)
            sources.append(band @ phi)
            incoming.append(sign == inward)
    if not glued:
        raise ValueError(f"closed channel at {lam:g}: need min(v_minus, v_plus) < lam < "
                         f"max(v_minus, v_plus) + 4/dx^2")
    f = np.asarray(f, dtype=complex)
    solved = resolvent(outgoing_band(opset, lam), lam, np.column_stack(sources + [f]))
    glued, incoming, flux = np.column_stack(glued), np.array(incoming), np.array(flux)
    mapped = glued - solved[:, :-1]  # W- phi of every wave
    images = mapped[:, incoming]
    overlaps = dx * (images.conj().T @ f)
    return WaveProbeReport(
        energy=float(lam), images=images, flux=flux.tolist(),
        outgoing_residuals=(_l2(opset.grid, mapped[:, ~incoming])
                            / _l2(opset.grid, glued[:, ~incoming])).tolist(),
        density=float(dx * np.vdot(f, solved[:, -1]).imag / math.pi),
        image_density=float(np.sum(np.abs(overlaps) ** 2 / (2 * math.pi * flux))),
    )


def stationary_coefficients(opset: OperatorSet, lam: float) -> ScatteringCoefficients:
    """R and T of a unit wave coming in from the left at the real energy lam, from one
    solve on `outgoing_band` with the incoming wave's source (1/xi_- - xi_-)/dx^2 in
    row 0: R = |u_0 - 1|^2, T = |u_{n-1}|^2 Im xi_+ / Im xi_- (a flux is |amplitude|^2
    sin(k dx), and sin(k dx) = Im xi)."""
    dx, pot = opset.grid.dx, opset.potential
    xi_m, xi_p = outgoing_root(lam, pot.v_minus, dx), outgoing_root(lam, pot.v_plus, dx)
    if min(xi_m.imag, xi_p.imag) <= 0:
        raise ValueError(f"closed channel at {lam:g}: need max(v_minus, v_plus) < lam < "
                         f"min(v_minus, v_plus) + 4/dx^2")
    source = np.zeros(opset.n, dtype=complex)
    source[0] = (1 / xi_m - xi_m) / dx**2
    u = resolvent(outgoing_band(opset, lam), lam, source)
    return _coefficients(lam, abs(u[0] - 1) ** 2, abs(u[-1]) ** 2 * xi_p.imag / xi_m.imag)


def scattering_coefficients(opset: OperatorSet, lam: float,
                            sigma: float = 3.0) -> ScatteringCoefficients:
    """R and T of a left-incoming packet at mean energy lam: `stationary_coefficients`
    averaged over the momenta and weights of `gaussian_averaged_oracle`, so the two
    differ only in the R(E), T(E) they average.  |R + T - 1| is reported, never clamped."""
    def rt(energies):
        return np.array([(c.reflection, c.transmission)
                         for c in (stationary_coefficients(opset, e) for e in energies)]).T

    pot = opset.potential
    return _packet_average(lam, pot.v_minus, pot.v_plus, sigma, rt)
