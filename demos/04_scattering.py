"""Reflection and transmission at the step, and limiting absorption, from one
stationary solve per energy.

Outside the box the potential is constant, so the exterior is eliminated
exactly: two corner entries of H make the box an infinite lattice with
an outgoing boundary.  A unit wave coming in from the left is then one
banded solve: R = |u_0 - 1|^2 and T = |u_{n-1}|^2 sin(k+ dx)/sin(k- dx).
The plane-wave R sits within O(dx^2) of the sharp step's continuum R, the
plane-wave matching at x = 0 (`continuum_oracle` at the sharp step's reach
0); the average over a packet's Gaussian momentum density is compared with
that R averaged over the same momenta.

The same corner entries at z = lam + i delta give the resolvent of the
infinite lattice for every delta >= 0.  Where the Mourre estimate holds
(rho > 0), the weighted norm ||<x>^-1 R(lam + i delta) <x>^-1|| has a
finite limit as delta -> 0: the limiting absorption principle.  At the
threshold v+ = 1 it keeps growing.  The Dirichlet box, whose spectrum is
discrete, gives a value set by its nearest eigenvalue instead.
"""

import numpy as np

from mourre_lab import (
    build_pair,
    gaussian_averaged_oracle,
    make_grid,
    make_steplike,
    resolvent,
    scattering_coefficients,
    stationary_coefficients,
)
from mourre_lab.grid import PROFILES
from mourre_lab.scattering import continuum_oracle, outgoing_band
from mourre_lab.spectral import opnorm

DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 0.0)


def weighted_resolvent_norm(band, z, weight):
    """||W R(z) W|| for W = diag(weight), by power iteration: R(z) is complex
    symmetric, so the adjoint acts as x -> conj(W R(z) W conj x)."""
    def apply(x):
        return weight * resolvent(band, z, weight * x)

    return opnorm(apply, lambda x: np.conj(apply(np.conj(x))), band.n)


def main():
    grid = make_grid(L=40.0, n=801)
    ops = build_pair(make_steplike(grid, 0.0, 1.0, profile="sharp_step"))
    step, reach = PROFILES["sharp_step"]  # reach 0: the oracle is plane-wave matching at x = 0

    def sharp_v(x):
        return step(x, 0.0, 1.0)[0]

    print(f"{'lambda':>8} {'R (wave)':>10} {'R (sharp)':>10} {'R (packet)':>11} "
          f"{'R (avg)':>9} {'T (packet)':>11} {'flux defect':>12}")
    for lam in (2.0, 2.5, 3.0):
        wave = stationary_coefficients(ops, lam)
        packet = scattering_coefficients(ops, lam, sigma=3.0)
        sharp = continuum_oracle(lam, 0.0, 1.0, sharp_v, reach)
        avg = gaussian_averaged_oracle(lam, 0.0, 1.0, 3.0, sharp_v, reach)
        print(f"{lam:8.2f} {wave.reflection:10.6f} {sharp.reflection:10.6f} "
              f"{packet.reflection:11.6f} {avg.reflection:9.6f} "
              f"{packet.transmission:11.6f} {max(wave.flux_defect, packet.flux_defect):12.2e}")

    smooth = build_pair(make_steplike(grid, 0.0, 1.0))
    weight = 1 / np.sqrt(1 + grid.nodes**2)
    print("\n||<x>^-1 R(lam + i delta) <x>^-1||, smooth step 0 -> 1")
    print(f"{'lambda':>8} " + " ".join(f"{'d=' + format(d, 'g'):>8}" for d in DELTAS)
          + f" {'box 1e-4':>9}")
    for lam in (0.5, 2.0, 1.0):
        row = [weighted_resolvent_norm(outgoing_band(smooth, lam + 1j * d), lam + 1j * d, weight)
               for d in DELTAS]
        box = weighted_resolvent_norm(smooth.H, lam + 1e-4j, weight)
        note = "  (threshold v+)" if lam == 1.0 else ""
        print(f"{lam:8.2f} " + " ".join(f"{v:8.3f}" for v in row) + f" {box:9.3f}{note}")


if __name__ == "__main__":
    main()
