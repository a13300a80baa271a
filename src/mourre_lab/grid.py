"""Spatial grid, cutoff functions and steplike potentials.

Everything downstream lives on a uniform symmetric grid over [-L, L].
The node count is kept odd so that x = 0 is a node and the reflection
x -> -x is an exact permutation of the nodes; several identities
(j_minus(x) = j_plus(-x), potential symmetry) then hold to machine
precision instead of interpolation accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "Grid",
    "CutoffPair",
    "PotentialField",
    "make_grid",
    "make_cutoffs",
    "make_steplike",
    "mollifier",
    "mollifier_derivative",
    "smoothstep",
]

PROFILE_KINDS = ("sharp_step", "smooth_step")


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_i = -L + i*dx on [-L, L], n odd so 0 is a node."""

    L: float
    n: int
    dx: float
    nodes: np.ndarray


@dataclass(frozen=True)
class CutoffPair:
    """Smooth channel cutoffs: j_plus = 0 on x<=1, 1 on x>=2, j_minus mirrored."""

    grid: Grid
    j_plus: np.ndarray
    j_minus: np.ndarray
    j: np.ndarray           # j_minus + j_plus
    jj_sum_sq: np.ndarray   # j_minus**2 + j_plus**2


@dataclass(frozen=True)
class PotentialField:
    """Sampled potential with asymptotic values v_minus / v_plus."""

    grid: Grid
    v: np.ndarray
    v_minus: float
    v_plus: float
    v_prime: Optional[np.ndarray] = None  # None for a potential with no derivative (sharp_step)


def mollifier(t: np.ndarray | float) -> np.ndarray:
    """f(t) = exp(-1/t) for t > 0, 0 otherwise.  C-infinity on all of R."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def mollifier_derivative(t: np.ndarray | float) -> np.ndarray:
    """f'(t) = exp(-1/t)/t^2 for t > 0, 0 otherwise."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def smoothstep(x: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """C-infinity step rising from 0 to 1 on [lo, hi]; returns (s, s')."""
    if hi <= lo:
        raise ValueError("smoothstep needs lo < hi")
    a = mollifier(x - lo)
    b = mollifier(hi - x)
    da = mollifier_derivative(x - lo)
    db = mollifier_derivative(hi - x)
    denom = a + b
    s = a / denom
    # d/dx [a/(a+b)] with da/dx = da, db/dx = -db
    ds = (da * b + a * db) / denom**2
    return s, ds


def make_grid(L: float, n: int) -> Grid:
    if L <= 0:
        raise ValueError(f"half-length L must be positive, got {L}")
    if n < 16:
        raise ValueError(f"node count n must be >= 16, got {n}")
    if n % 2 == 0:
        raise ValueError(f"node count n must be odd so x=0 is a node, got {n}")
    nodes = np.linspace(-L, L, n)
    dx = 2.0 * L / (n - 1)
    return Grid(L=float(L), n=int(n), dx=dx, nodes=nodes)


def make_cutoffs(grid: Grid) -> CutoffPair:
    if grid.L < 4:
        raise ValueError(
            f"domain half-length {grid.L} too small: transition regions "
            "[1,2] and [-2,-1] must lie inside [-L, L] with L >= 4"
        )
    j_plus, _ = smoothstep(grid.nodes, 1.0, 2.0)
    # reflect on the node permutation so j_minus(x) == j_plus(-x) exactly
    j_minus = j_plus[::-1].copy()
    return CutoffPair(
        grid=grid,
        j_plus=j_plus,
        j_minus=j_minus,
        j=j_minus + j_plus,
        jj_sum_sq=j_minus**2 + j_plus**2,
    )


def make_steplike(
    grid: Grid,
    v_minus: float,
    v_plus: float,
    profile: str = "smooth_step",
    bump: Optional[np.ndarray] = None,
) -> PotentialField:
    """Steplike potential with limits v_minus / v_plus at the box ends.

    smooth_step uses the mollifier smoothstep rising over [-1, 1] and adds
    the bump when one is given; the bump must be sampled on the grid and
    compactly supported within |x| <= L/2.  sharp_step assigns the midpoint
    value at x = 0 and takes no bump.
    """
    if profile not in PROFILE_KINDS:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILE_KINDS}")
    if profile == "sharp_step" and bump is not None:
        raise ValueError("sharp_step takes no bump; use smooth_step")
    x = grid.nodes
    v_prime: Optional[np.ndarray] = None

    if profile == "sharp_step":
        v = np.where(x > 0, float(v_plus), float(v_minus))
        v[x == 0] = 0.5 * (v_minus + v_plus)
    else:
        s, ds = smoothstep(x, -1.0, 1.0)
        v = v_minus + (v_plus - v_minus) * s
        v_prime = (v_plus - v_minus) * ds

    if bump is not None:
        bump = np.asarray(bump, dtype=float)
        if bump.shape != x.shape:
            raise ValueError("bump must be sampled on the same grid")
        support = np.abs(x[np.abs(bump) > 0])
        if support.size and support.max() > grid.L / 2:
            raise ValueError("bump support must stay within |x| <= L/2")
        v = v + bump
        v_prime = v_prime + np.gradient(bump, grid.dx)

    return PotentialField(grid=grid, v=v, v_minus=float(v_minus), v_plus=float(v_plus),
                          v_prime=v_prime)
