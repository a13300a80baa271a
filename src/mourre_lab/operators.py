"""Banded realizations of the two-channel operator quintuple.

On the grid the single-space Hamiltonian is H = -Delta + v with the
3-point Dirichlet Laplacian, and the auxiliary channel operator
H0 = (-Delta + v_minus) (+) (-Delta + v_plus) acts on two stacked
copies of the grid.  The identification J glues the channels with the
smooth cutoffs, and the conjugate operators are built from the dilation
generator D = (XP + PX)/2.

Every operator is banded and stored by its diagonals (`Band`): H and
-Delta are real symmetric tridiagonal; D and A = jDj are i*K with K a
real antisymmetric tridiagonal core, and only the core is kept;
commutators i[S, iK] = KS - SK of the two families are real symmetric
pentadiagonal, formed by a band product in O(n).  A constant shift v_pm
commutes with D, so i[H0, A0] = i[-Delta, D] (+) i[-Delta, D] is one band
for both channels.  J and J* are multiplications by the cutoffs.
Symmetry is built into the stored diagonals, so no operator needs a
hermiticity check.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .grid import CutoffPair, Grid, PotentialField

__all__ = [
    "Band",
    "OperatorSet",
    "build_laplacian",
    "build_momentum_core",
    "build_pair",
    "build_commutator_longrange",
]


@dataclass(frozen=True)
class Band:
    """Square banded matrix M stored by its 2b+1 diagonals, row-indexed.

    entries[b + k, i] = M[i, i + k] for |k| <= b; entries whose column
    i + k falls outside the matrix are zero.  `B @ X` costs O(n k b) for an
    n x k block X, and `B @ C` of two bands is a band.
    """

    entries: np.ndarray
    __array_ufunc__ = None  # ndarray @ Band is a TypeError, not an object-array product

    @property
    def b(self) -> int:
        return self.entries.shape[0] // 2

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    def _diagonals(self):
        """(k, lo, hi): diagonal k holds M[i, i + k] for lo <= i < hi."""
        n = self.n
        for k in range(-self.b, self.b + 1):
            yield k, max(0, -k), n - max(0, k)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=self.entries.dtype)
        for k, lo, hi in self._diagonals():
            i = np.arange(lo, hi)
            out[i, i + k] = self.entries[self.b + k, lo:hi]
        return out

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """M[idx, :] as a dense len(idx) x n block."""
        b = self.b
        out = np.zeros((idx.size, self.n + 2 * b), dtype=self.entries.dtype)
        for k in range(-b, b + 1):  # entries outside the matrix are zero and land in the margins
            out[np.arange(idx.size), idx + k + b] = self.entries[b + k, idx]
        return out[:, b:b + self.n]

    def __matmul__(self, x):
        if isinstance(x, Band):
            return self._times_band(x)
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=np.result_type(self.entries, x))
        for k, lo, hi in self._diagonals():
            d = self.entries[self.b + k, lo:hi]
            out[lo:hi] += (d if x.ndim == 1 else d[:, None]) * x[lo + k:hi + k]
        return out

    def _times_band(self, other: "Band") -> "Band":
        """The band of M N, of half-width b_M + b_N.

        M[i, i+k] N[i+k, i+k+m] lands on diagonal k + m of the product.  Each
        entry sums its terms in ascending order of the inner index, so KS and
        SK of a symmetric S and an antisymmetric K are exact negated
        transposes, and KS - SK is exactly symmetric.
        """
        b1, b2 = self.b, other.b
        out = np.zeros((2 * (b1 + b2) + 1, self.n),
                       dtype=np.result_type(self.entries, other.entries))
        for k, lo, hi in self._diagonals():
            out[b1 + k:b1 + k + 2 * b2 + 1, lo:hi] += (
                self.entries[b1 + k, lo:hi] * other.entries[:, lo + k:hi + k])
        return Band(out)


def _tridiagonal(lower, main, upper) -> Band:
    """Band with M[i + 1, i] = lower[i], M[i, i] = main[i] and M[i, i + 1] = upper[i]."""
    entries = np.zeros((3, len(lower) + 1))
    entries[0, 1:], entries[1], entries[2, :-1] = lower, main, upper
    return Band(entries)


def _plus_diagonal(op: Band, v) -> Band:
    """op + diag(v) for a scalar or per-node v."""
    entries = op.entries.copy()
    entries[op.b] += v
    return Band(entries)


def _commutator(x: Band, y: Band) -> Band:
    """[X, Y] = XY - YX; for S symmetric and K antisymmetric, i[S, iK] = [K, S]."""
    return Band((x @ y).entries - (y @ x).entries)


@dataclass(frozen=True)
class OperatorSet:
    """All operators of the discretized two-channel model on one grid."""

    grid: Grid
    cutoffs: CutoffPair
    potential: PotentialField
    H: Band                              # -Delta + v, tridiagonal
    neglap: Band                         # -Delta, shared by all channels
    dilation_core: Band                  # real antisymmetric K with D = iK
    conjugate_core: Band                 # real antisymmetric K' with A = jDj = iK'
    commutator_iHA: Band                 # i[H, A], real symmetric, pentadiagonal
    commutator_iH0A0: Band               # i[-Delta, D] = i[-Delta + v_pm, D], each channel

    @property
    def n(self) -> int:
        return self.grid.n

    def channel_hamiltonian(self, side: str) -> Band:
        """-Delta + v_pm."""
        v = self.potential.v_minus if side == "-" else self.potential.v_plus
        return _plus_diagonal(self.neglap, v)

    def apply_J(self, phi_minus: np.ndarray, phi_plus: np.ndarray) -> np.ndarray:
        """j_- phi_- + j_+ phi_+ for two vectors, or column by column for two n x T blocks."""
        cut = self.cutoffs
        return (cut.j_minus * phi_minus.T + cut.j_plus * phi_plus.T).T

    def apply_J_star(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cut = self.cutoffs
        return cut.j_minus * psi, cut.j_plus * psi


def build_laplacian(grid: Grid) -> Band:
    """-Delta as the 3-point stencil with Dirichlet ends (real symmetric)."""
    n, dx = grid.n, grid.dx
    off = np.full(n - 1, -1.0 / dx**2)
    return _tridiagonal(off, np.full(n, 2.0 / dx**2), off)


def build_momentum_core(grid: Grid) -> Band:
    """Real antisymmetric core K of the momentum P = iK (centered difference)."""
    # P = -i (S - S^T) / (2 dx) = i K  with  K = -(S - S^T)/(2 dx)
    upper = np.full(grid.n - 1, -1.0 / (2 * grid.dx))
    return _tridiagonal(-upper, 0.0, upper)


def dilation_core(grid: Grid) -> Band:
    """Real antisymmetric K' with D = (XP + PX)/2 = iK'."""
    k = build_momentum_core(grid).entries[2, :-1]
    x = grid.nodes
    upper = 0.5 * (x[:-1] * k + k * x[1:])
    return _tridiagonal(-upper, 0.0, upper)


def build_pair(grid: Grid, pot: PotentialField, cut: CutoffPair) -> OperatorSet:
    """Assemble the operator set (H, -Delta, the cores of D and A, commutators)."""
    if pot.grid is not grid or cut.grid is not grid:
        raise ValueError("potential and cutoffs must live on the given grid")
    neglap = build_laplacian(grid)
    H = _plus_diagonal(neglap, pot.v)
    dcore = dilation_core(grid)
    upper = cut.j[:-1] * dcore.entries[2, :-1] * cut.j[1:]
    acore = _tridiagonal(-upper, 0.0, upper)
    return OperatorSet(
        grid=grid,
        cutoffs=cut,
        potential=pot,
        H=H,
        neglap=neglap,
        dilation_core=dcore,
        conjugate_core=acore,
        commutator_iHA=_commutator(acore, H),
        commutator_iH0A0=_commutator(dcore, neglap),
    )


def build_commutator_longrange(opset: OperatorSet) -> Band:
    """i[H, A] assembled from the closed-form commutator.

    Uses [A, H] = [j P X j, -Delta] - i j^2 x v' + (i/2)[j^2, -Delta]
    (with P = iK the momentum) and returns the Hermitian part of
    i[H, A] = -i [A, H].  On the grid j P X j = i T with T = j K X j real,
    and the antisymmetric part of T is the conjugate core K'; the
    [j^2, -Delta] term is antisymmetric.  So the Hermitian part is
    [K', -Delta] - j^2 x v', and the degenerate case j == 1, v' == 0
    reduces to +2(-Delta) on interior states.  Requires a differentiable
    potential.
    """
    pot = opset.potential
    if pot.v_prime is None:
        raise ValueError("long-range commutator needs a differentiable potential (v_prime)")
    j = opset.cutoffs.j
    x = opset.grid.nodes
    return _plus_diagonal(_commutator(opset.conjugate_core, opset.neglap), -(j**2 * x * pot.v_prime))

