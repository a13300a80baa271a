"""The tails solve against MRRR at a size no tier-1 test reaches.

Builds H of the steplike pair (v- = 0, v+ = 1, smooth_step) at (L, n) and
takes the pairs in one window twice: from `tails_eigenpairs` and from MRRR
(`eigendecompose` with that one window).  It prints both timings and exits 1 if the
two disagree beyond the bounds of test_spectral's dense comparisons, with
tol = 16 n eps and ||H|| bounded by its largest absolute row sum:

- the same number of pairs, and eigenvalues within tol ||H||;
- residuals ||H u - u w||_max within tol ||H|| for each solver;
- orthogonality |U^T U - I|_max within tol for each solver;
- projectors: ||(I - P_mrrr) U_tails||_max within tol, which bounds the
  entries of P_tails - P_mrrr without forming an n x n array.

Run from the repository root (defaults: the window (-0.6, 3.2) that the
rho scan's eta windows span, at (640, 12801)):

    PYTHONPATH=src python3 tests/tails_vs_mrrr.py [L n lo hi]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from mourre_lab.grid import make_grid, make_steplike
from mourre_lab.operators import build_pair
from mourre_lab.spectral import EnergyWindow, eigendecompose, tails_eigenpairs

ROUNDING_ULPS = 16.0


def main(argv: list) -> int:
    L, n, lo, hi = (float(argv[0]), int(argv[1]), float(argv[2]), float(argv[3])) if argv \
        else (640.0, 12801, -0.6, 3.2)
    op = build_pair(make_steplike(make_grid(L, n), 0.0, 1.0)).H
    tol = ROUNDING_ULPS * n * np.finfo(float).eps
    scale = np.abs(op.entries).sum(axis=0).max()
    window = EnergyWindow(0.5 * (lo + hi), 0.5 * (hi - lo))

    t0 = time.perf_counter()
    tails = tails_eigenpairs(op, [window])
    t1 = time.perf_counter()
    mrrr = eigendecompose(op, [window])
    t2 = time.perf_counter()
    print(f"(L, n) = ({L:g}, {n}), window ({lo:g}, {hi:g}): {tails.eigenvalues.size} pairs; "
          f"tails solve {t1 - t0:.3f} s, MRRR {t2 - t1:.3f} s")

    if tails.eigenvalues.size != mrrr.eigenvalues.size:
        print(f"FAIL: {tails.eigenvalues.size} pairs from the tails solve, "
              f"{mrrr.eigenvalues.size} from MRRR")
        return 1
    u, w = tails.eigenvectors, tails.eigenvalues
    checks = {"eigenvalues": (np.max(np.abs(w - mrrr.eigenvalues)), tol * scale)}
    for name, dec in (("tails", tails), ("MRRR", mrrr)):
        v, x = dec.eigenvectors, dec.eigenvalues
        checks[f"residual ({name})"] = (np.max(np.abs(op @ v - v * x)), tol * scale)
        checks[f"orthogonality ({name})"] = (np.max(np.abs(v.T @ v - np.eye(x.size))), tol)
    um = mrrr.eigenvectors
    checks["projectors"] = (np.max(np.abs(u - um @ (um.T @ u))), tol)
    failed = False
    for name, (value, bound) in checks.items():
        ok = value <= bound
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {value:.3e} (bound {bound:.3e}, "
              f"{value / bound:.3f} of it)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
