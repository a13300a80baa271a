"""Scan the Mourre rho function of a steplike pair across the spectrum.

The closed form for a step from v- to v+ is +infinity below v-, then
2(lambda - v-) up to v+, then 2(lambda - v+).  The numerical estimator
compresses the commutator i[H,A] onto smooth energy windows of the
discretized H and discards boundary/interaction-localized modes; the
corrected estimate should trace the closed form away from thresholds.
"""

import numpy as np

from mourre_lab import (
    analytic_rho,
    build_pair,
    eigendecompose,
    make_cutoffs,
    make_grid,
    make_steplike,
    rho_scan,
)


def main():
    grid = make_grid(L=160.0, n=1601)
    cutoffs = make_cutoffs(grid)
    potential = make_steplike(grid, 0.0, 1.0)
    ops = build_pair(grid, potential, cutoffs)
    dec_H = eigendecompose(ops.H)

    lambdas = np.concatenate([[-0.5], np.linspace(0.2, 3.0, 8)])
    rows = rho_scan(ops, dec_H, lambdas, eps=0.1)

    print(f"{'lambda':>8} {'rho0':>8} {'raw':>9} {'corrected':>10} {'discarded':>10}")
    for lam, rho0, raw, corr, ndisc, _margin in rows:
        print(f"{lam:8.3f} {rho0:8.3f} {raw:9.3f} {corr:10.3f} {ndisc:10d}")
    print()
    print("closed form for comparison:")
    for lam in lambdas:
        print(f"  rho0({lam:6.3f}) = {analytic_rho(0.0, 1.0, lam):.3f}")


if __name__ == "__main__":
    main()
