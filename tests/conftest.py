import numpy as np
import pytest

from mourre_lab.grid import make_cutoffs, make_grid, make_steplike
from mourre_lab.operators import build_pair
from mourre_lab.spectral import dirichlet_decomposition, eigendecompose


def dense(p) -> np.ndarray:
    """The matrix left @ core @ right^dagger that a ThinProduct stands for."""
    return p.left @ p.core @ p.right.conj().T


def channel_bases(opset):
    """The full closed-form eigenbases of both channels, as dense test references."""
    g, pot = opset.grid, opset.potential
    return (dirichlet_decomposition(g.n, g.dx, pot.v_minus),
            dirichlet_decomposition(g.n, g.dx, pot.v_plus))


def well_bump(grid, amplitude, width):
    """Compactly supported bump of the given amplitude and half-width."""
    u = grid.nodes / width
    inside = np.abs(u) < 1
    out = np.zeros_like(grid.nodes)
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


@pytest.fixture(scope="session")
def small_grid():
    return make_grid(20.0, 321)


@pytest.fixture(scope="session")
def small_ops(small_grid):
    cut = make_cutoffs(small_grid)
    pot = make_steplike(small_grid, 0.0, 1.0)
    return build_pair(small_grid, pot, cut)


@pytest.fixture(scope="session")
def dec_H(small_ops):
    return eigendecompose(small_ops.H)


@pytest.fixture(scope="session")
def free_ops(small_grid):
    cut = make_cutoffs(small_grid)
    pot = make_steplike(small_grid, 0.0, 0.0)
    return build_pair(small_grid, pot, cut)
