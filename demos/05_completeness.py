"""Wave-operator and completeness probes by finite-time stabilization.

Strong limits are replaced by finite-time approximants: the probe tracks
how far J* e^{-itH} (re-propagated back through the channel dynamics)
sits from the identity on a scattering state.  An outgoing packet should
pass; a bound state of a potential well is the negative control — it
never leaves the interaction region, so the defect stays order one.
"""

import math

import numpy as np

from mourre_lab import (
    build_pair,
    completeness_probe,
    eigendecompose,
    make_channel_packet,
    make_cutoffs,
    make_grid,
    make_steplike,
    wave_operator_probe,
)


def compact_bump(grid, amplitude, width):
    u = grid.nodes / width
    inside = np.abs(u) < 1
    out = np.zeros_like(grid.nodes)
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def main():
    grid = make_grid(L=40.0, n=801)
    cutoffs = make_cutoffs(grid)
    well = compact_bump(grid, -2.0, 2.0)
    potential = make_steplike(grid, 0.0, 1.0, bump=well)
    ops = build_pair(grid, potential, cutoffs)
    dec_H = eigendecompose(ops.H)
    times = np.linspace(0.0, 8.0, 17)

    packet = make_channel_packet(grid, "-", -20.0, 1.5, 3.0)
    wave = wave_operator_probe(ops, dec_H, packet, "-", times)
    print(f"wave-operator probe: isometry ratio {wave.isometry_ratio:.4f}, "
          f"best Cauchy defect {min(wave.cauchy_ladder):.2e}")

    pk = make_channel_packet(grid, "+", 10.0, 1.5, 2.0)
    psi = ops.apply_J(pk.phi_minus, pk.phi_plus)
    psi /= math.sqrt(grid.dx) * np.linalg.norm(psi)
    out = completeness_probe(ops, dec_H, psi, times)
    print(f"outgoing packet:  verdict={out.verdict}, "
          f"min froufrou {min(out.froufrou_norms):.4f}, "
          f"min converse {min(out.converse_norms):.4f}")

    bound = dec_H.eigenvectors[:, 0].astype(complex)
    bound /= math.sqrt(grid.dx) * np.linalg.norm(bound)
    print(f"bound state at E = {dec_H.eigenvalues[0]:.3f} (negative control):")
    ctrl = completeness_probe(ops, dec_H, bound, times)
    print(f"  verdict={ctrl.verdict}, froufrou stays at "
          f"{min(ctrl.froufrou_norms):.3f}")


if __name__ == "__main__":
    main()
