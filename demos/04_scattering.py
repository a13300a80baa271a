"""Reflection and transmission of a wave packet hitting the step.

A left-incoming Gaussian packet is propagated under H until the
reflected and transmitted bulks separate; captured masses on each side
give R and T.  Because the packet carries a spread of momenta, the right
comparison point is the sharp-step closed form averaged over the
packet's Gaussian momentum density.
"""

from mourre_lab import (
    build_pair,
    eigendecompose,
    gaussian_averaged_oracle,
    make_cutoffs,
    make_grid,
    make_steplike,
    scattering_coefficients,
    sharp_step_oracle,
)


def main():
    grid = make_grid(L=40.0, n=801)
    ops = build_pair(grid, make_steplike(grid, 0.0, 1.0, profile="sharp_step"),
                     make_cutoffs(grid))
    dec_H = eigendecompose(ops.H)

    print(f"{'lambda':>8} {'R (packet)':>11} {'R (avg)':>9} {'R (sharp)':>10} "
          f"{'T (packet)':>11} {'flux defect':>12}")
    for lam in (2.0, 2.5, 3.0):
        coeff = scattering_coefficients(ops, dec_H, lam)
        avg = gaussian_averaged_oracle(lam, 0.0, 1.0, sigma=3.0)
        sharp = sharp_step_oracle(lam, 0.0, 1.0)
        print(f"{lam:8.2f} {coeff.reflection:11.5f} {avg.reflection:9.5f} "
              f"{sharp.reflection:10.5f} {coeff.transmission:11.5f} "
              f"{coeff.flux_defect:12.2e}")


if __name__ == "__main__":
    main()
