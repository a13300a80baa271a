"""The two-space wave operator at one energy, and completeness probes by
finite-time stabilization.

W-(H, H0; J) acts on a channel wave phi as W- phi = J phi - R(lam + i0)(HJ - JH0) phi,
one stationary solve with the exact outgoing resolvent and no basis of H.
Outgoing waves map to zero.  The images of the incoming ones span the
absolutely continuous part of H at lam: the spectral density
Im <f, R(lam + i0) f> / pi of a test state f is the sum of their
contributions, and it misses once any one image is left out.  At
lam = 0.5 only the left channel is open.

The completeness probe tracks how far J* e^{-itH} (re-propagated back
through the channel dynamics) sits from the identity on a scattering
state.  An outgoing packet should pass; a bound state of the potential
well is the negative control: it never leaves the interaction region, so
the defect stays order one.
"""

import math

import numpy as np

from mourre_lab import (
    build_pair,
    bump,
    completeness_probe,
    eigendecompose,
    make_channel_packet,
    make_grid,
    make_steplike,
    wave_operator_probe,
)


def well_pair(n):
    grid = make_grid(L=40.0, n=n)
    potential = make_steplike(grid, 0.0, 1.0, bump=-2.0 * bump(0.0, 2.0)(grid.nodes))
    return build_pair(potential)


def wave_section():
    ops = well_pair(1601)
    x, dx = ops.grid.nodes, ops.grid.dx
    f = np.exp(-(x - 0.5) ** 2 / 2) * (1 + 0.3 * x)
    print(f"{'lambda':>7} {'images':>7} {'max outgoing':>13} {'|density - images|':>19} "
          f"{'one image left out':>19}")
    for lam in (0.5, 2.0, 3.0):
        rep = wave_operator_probe(ops, lam, f)
        terms = np.abs(dx * (rep.images.conj().T @ f)) ** 2 / (2 * math.pi * np.array(rep.flux))
        left_out = " / ".join(f"{abs(rep.density - terms.sum() + t) / rep.density:.2f}"
                              for t in terms)
        print(f"{lam:7.2f} {rep.images.shape[1]:7d} {max(rep.outgoing_residuals):13.1e} "
              f"{abs(rep.density - rep.image_density) / rep.density:19.1e} {left_out:>19}")


def completeness_section():
    ops = well_pair(801)
    grid = ops.grid
    dec_H = eigendecompose(ops.H)
    times = np.linspace(0.0, 8.0, 17)

    out = completeness_probe(ops, dec_H, make_channel_packet(ops, 10.0, 1.5, 2.0), times)
    print(f"outgoing packet:  verdict={out.verdict}, "
          f"min froufrou {min(out.froufrou_norms):.4f}, "
          f"min converse {min(out.converse_norms):.4f}")

    bound = dec_H.eigenvectors[:, 0].astype(complex)
    bound /= math.sqrt(grid.dx) * np.linalg.norm(bound)
    print(f"bound state at E = {dec_H.eigenvalues[0]:.3f} (negative control):")
    ctrl = completeness_probe(ops, dec_H, bound, times)
    print(f"  verdict={ctrl.verdict}, froufrou stays at "
          f"{min(ctrl.froufrou_norms):.3f}")


def main():
    print("W- phi = J phi - R(lam + i0)(HJ - JH0) phi, well at (L, n) = (40, 1601), "
          "relative errors")
    wave_section()
    print()
    completeness_section()


if __name__ == "__main__":
    main()
