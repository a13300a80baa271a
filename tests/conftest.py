import numpy as np
import pytest

from mourre_lab.grid import make_grid, make_steplike
from mourre_lab.operators import build_pair
from mourre_lab.spectral import (
    SmoothingFunction,
    dirichlet_decomposition,
    eigendecompose,
    support,
)


def dense(p) -> np.ndarray:
    """The matrix left @ core @ right^dagger that a ThinProduct stands for."""
    return p.left @ p.core @ p.right.conj().T


def channel_bases(opset):
    """The full closed-form eigenbases of both channels, as dense test references."""
    g, pot = opset.grid, opset.potential
    return (dirichlet_decomposition(g.n, g.dx, pot.v_minus),
            dirichlet_decomposition(g.n, g.dx, pot.v_plus))


def apply_function(dec, f) -> np.ndarray:
    """U f(Lambda) U^dagger over the support of f, as a dense test reference;
    raises if f is singular on the spectrum."""
    u, fw = support(dec, f)
    return (u * fw[None, :]) @ u.conj().T


def discard_log(est) -> list:
    """One dict per compression mode of a `RhoEstimate`, from its `modes` arrays."""
    return [
        {"eigenvalue": float(e), "interaction_mass": float(i),
         "boundary_mass": float(b), "discarded": bool(f)}
        for e, i, b, f in zip(*est.modes)
    ]


def gaussian(center: float, width: float) -> SmoothingFunction:
    """A smoothing function with unbounded support: exp(-(x - center)^2 / 2 width^2)."""

    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(-((x - center) ** 2) / (2 * width**2))

    return SmoothingFunction(center, width, f)


def build_B(opset, z: complex, resolvent_H, resolvent_channel) -> np.ndarray:
    """B(z) = J R0(z) - R(z) J as a dense n x 2n matrix (Im z != 0), from the
    n x n resolvents R(z) = resolvent_H(z) and R0_pm(z) = resolvent_channel(side, z)."""
    if z.imag == 0:
        raise ValueError("B(z) requires a non-real z")
    n = opset.n
    R = resolvent_H(z)
    jm, jp = opset.cutoffs.j_minus, opset.cutoffs.j_plus
    out = np.zeros((n, 2 * n), dtype=complex)
    out[:, :n] = jm[:, None] * resolvent_channel("-", z) - R * jm[None, :]
    out[:, n:] = jp[:, None] * resolvent_channel("+", z) - R * jp[None, :]
    return out


def build_B_pm(opset, z: complex, side: str, resolvent_H, resolvent_channel) -> np.ndarray:
    """B_pm(z) = R(z) { [-Delta, j_pm] + j_pm (V - v_pm) } R0_pm(z), dense."""
    pot = opset.potential
    j = opset.cutoffs.j_plus if side == "+" else opset.cutoffs.j_minus
    v = pot.v_plus if side == "+" else pot.v_minus
    lap = opset.neglap.dense()
    middle = lap * j[None, :] - j[:, None] * lap + np.diag(j * (pot.v - v))
    return resolvent_H(z) @ middle @ resolvent_channel(side, z)


@pytest.fixture(scope="session")
def small_grid():
    return make_grid(20.0, 321)


@pytest.fixture(scope="session")
def small_ops(small_grid):
    return build_pair(make_steplike(small_grid, 0.0, 1.0))


@pytest.fixture(scope="session")
def dec_H(small_ops):
    return eigendecompose(small_ops.H)


@pytest.fixture(scope="session")
def free_ops(small_grid):
    return build_pair(make_steplike(small_grid, 0.0, 0.0))
