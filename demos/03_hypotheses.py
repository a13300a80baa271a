"""Probe compactness and regularity hypotheses by grid refinement.

Each candidate operator is rebuilt on a ladder of grids; a refinement-
stable head of singular values with a fast-decaying tail is consistent
with compactness, while the identity control keeps a flat tail.  A
diagonal ladder, which refines the box and the mesh together, shows the
short-range surrogate converging where neither single ladder can.  The
C1-regularity probe checks the difference-quotient ladder for
t -> e^{-itA} R(z) e^{itA} and the exact resolvent commutator identity.
"""

import numpy as np

from mourre_lab import build_pair, bump, c1_probe, make_grid, make_steplike
from mourre_lab.hypotheses import OPERATOR_TAGS, compactness_ladder


def build(L, n):
    return build_pair(make_steplike(make_grid(L, n), 0.0, 1.0))


def main():
    levels = [(40.0, 801), (40.0, 1601)]
    ladder = compactness_ladder(build, levels, bump(0.5, 0.4), OPERATOR_TAGS)
    print(f"{'operator':>9} {'verdict':>20} {'max tail ratio':>15} {'drift':>9}")
    for tag, rep in ladder.items():
        print(f"{tag:>9} {rep.verdict:>20} {max(rep.tail_ratio):15.3e} "
              f"{rep.stability:9.3e}")

    # At fixed L the short-range rank stays below the plateau mode count, and at
    # fixed dx below its factor width; a diagonal ladder refines L and dx at once.
    diagonal = [(40.0, 801), (80.0, 3201)]
    short = compactness_ladder(build, diagonal, bump(0.5, 0.4), ["short"])["short"]
    print()
    print("short-range, diagonal ladder:")
    for (L, n), sv in zip(diagonal, short.singular_values):
        print(f"  L={L:5.1f} n={n:5d} dx={2 * L / (n - 1):.3f}: sigma_1={sv[0]:.4f} "
              f"sigma_5={sv[4]:.3e} sigma_10={sv[9]:.3e}")

    ops = build(40.0, 801)  # the C1 probe moves only its test states
    rng = np.random.default_rng(5)
    states = rng.standard_normal((3, 801)) + 1j * rng.standard_normal((3, 801))
    states /= np.linalg.norm(states, axis=1)[:, None]
    rep = c1_probe(ops, states)
    print()
    print(f"C1 probe: verdict={rep.verdict}, limit mismatch={rep.limit_mismatch:.2e}")
    print(f"  cauchy ladder: {[f'{d:.2e}' for d in rep.cauchy_defects]}")
    print(f"  resolvent identity defect: {rep.resolvent_identity_defect:.2e}")


if __name__ == "__main__":
    main()
