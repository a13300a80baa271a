"""Transfer the Mourre estimate from the decoupled channels to H.

A compactly supported bump added to the smooth step does not change the
closed-form channel rho, so the corrected estimate for the full pair
(H, A) should still dominate the channel value up to a tolerance.  The
report also records interior-weighted residuals of the commutator
difference, the quantity whose compactness makes the transfer work.
"""

from mourre_lab import (
    build_pair,
    bump,
    make_grid,
    make_steplike,
    transfer_verify,
)


def main():
    grid = make_grid(L=160.0, n=1601)
    bump_field = 0.3 * bump(0.0, 2.0)(grid.nodes)
    potential = make_steplike(grid, 0.0, 1.0, bump=bump_field)
    ops = build_pair(potential)

    report = transfer_verify(ops, [0.3, 0.5, 1.05, 1.5, 2.0], eps=0.1, tol=0.2)

    print(f"excluded (within 2*eps of a threshold): {report.excluded}")
    print(f"{'lambda':>8} {'rho0':>8} {'rho_H':>9} {'margin':>9} {'residual':>10}")
    for lam, r0, rh, m, res in zip(report.lambda_samples, report.rho0_analytic,
                                   report.rho_H_estimate, report.margins,
                                   report.eone_residuals):
        print(f"{lam:8.3f} {r0:8.3f} {rh:9.3f} {m:9.3f} {res:10.3e}")
    print(f"verdict: {report.verdict} (tol {report.tol})")


if __name__ == "__main__":
    main()
