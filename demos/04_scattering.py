"""Reflection and transmission at the step, from one stationary solve per energy.

Outside the box the potential is constant, so the exterior is eliminated
exactly: two corner entries of H make the box an infinite lattice with
an outgoing boundary.  A unit wave coming in from the left is then one
banded solve: R = |u_0 - 1|^2 and T = |u_{n-1}|^2 sin(k+ dx)/sin(k- dx).
The plane-wave R sits within O(dx^2) of the sharp-step closed form; the
average over a packet's Gaussian momentum density is compared with the
closed form averaged over the same momenta.
"""

from mourre_lab import (
    build_pair,
    gaussian_averaged_oracle,
    make_cutoffs,
    make_grid,
    make_steplike,
    scattering_coefficients,
    sharp_step_oracle,
    stationary_coefficients,
)


def main():
    grid = make_grid(L=40.0, n=801)
    ops = build_pair(grid, make_steplike(grid, 0.0, 1.0, profile="sharp_step"),
                     make_cutoffs(grid))

    print(f"{'lambda':>8} {'R (wave)':>10} {'R (sharp)':>10} {'R (packet)':>11} "
          f"{'R (avg)':>9} {'T (packet)':>11} {'flux defect':>12}")
    for lam in (2.0, 2.5, 3.0):
        wave = stationary_coefficients(ops, lam)
        packet = scattering_coefficients(ops, lam, sigma=3.0)
        sharp = sharp_step_oracle(lam, 0.0, 1.0)
        avg = gaussian_averaged_oracle(lam, 0.0, 1.0, sigma=3.0)
        print(f"{lam:8.2f} {wave.reflection:10.6f} {sharp.reflection:10.6f} "
              f"{packet.reflection:11.6f} {avg.reflection:9.6f} "
              f"{packet.transmission:11.6f} {max(wave.flux_defect, packet.flux_defect):12.2e}")


if __name__ == "__main__":
    main()
