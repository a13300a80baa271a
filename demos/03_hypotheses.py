"""Probe compactness and regularity hypotheses by grid refinement.

Each candidate operator is rebuilt on a ladder of grids; a refinement-
stable head of singular values with a fast-decaying tail is consistent
with compactness, while the identity control keeps a flat tail.  The
C1-regularity probe checks the difference-quotient ladder for
t -> e^{-itA} R(z) e^{itA} and the exact resolvent commutator identity.
"""

import numpy as np

from mourre_lab import (
    assumption_operator,
    build_pair,
    c1_probe,
    compactness_report,
    eigendecompose,
    long_range_operator,
    make_cutoffs,
    make_grid,
    make_steplike,
    short_range_operator,
)
from mourre_lab.spectral import EnergyWindow, ThinProduct, bump


def build(L, n, eta):
    """The operators and the pairs of H where eta is nonzero (its window)."""
    grid = make_grid(L, n)
    ops = build_pair(grid, make_steplike(grid, 0.0, 1.0), make_cutoffs(grid))
    return ops, eigendecompose(ops.H, EnergyWindow(eta.center, eta.width))


def main():
    levels = [(40.0, 801), (40.0, 1601)]
    eta = bump(0.5, 0.4)
    cache = {key: build(*key, eta) for key in levels}

    builders = {
        "ii": lambda L, n: assumption_operator(*cache[(L, n)], "ii", eta),
        "iii": lambda L, n: assumption_operator(*cache[(L, n)], "iii", eta),
        "iv": lambda L, n: assumption_operator(*cache[(L, n)], "iv", eta),
        "short": lambda L, n: short_range_operator(cache[(L, n)][0], 1j)[0],
        "long": lambda L, n: long_range_operator(cache[(L, n)][0]),
        "identity": lambda L, n: ThinProduct(np.eye(n), np.eye(n), np.eye(n)),
    }
    print(f"{'operator':>9} {'verdict':>20} {'max tail ratio':>15} {'drift':>9}")
    for tag, builder in builders.items():
        rep = compactness_report(builder, levels, label=tag)
        print(f"{tag:>9} {rep.verdict:>20} {max(rep.tail_ratio):15.3e} "
              f"{rep.stability:9.3e}")

    ops = cache[(40.0, 801)][0]  # the C1 probe moves only its test states
    rng = np.random.default_rng(5)
    states = rng.standard_normal((3, 801)) + 1j * rng.standard_normal((3, 801))
    states /= np.linalg.norm(states, axis=1)[:, None]
    rep = c1_probe(ops, 1j, states)
    print()
    print(f"C1 probe: verdict={rep.verdict}, limit mismatch={rep.limit_mismatch:.2e}")
    print(f"  cauchy ladder: {[f'{d:.2e}' for d in rep.cauchy_defects]}")
    print(f"  resolvent identity defect: {rep.resolvent_identity_defect:.2e}")


if __name__ == "__main__":
    main()
