import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_function, dense, gaussian
from mourre_lab import blas
from mourre_lab.grid import make_cutoffs, make_grid, make_steplike
from mourre_lab.operators import Band, build_pair
from mourre_lab.spectral import (
    EnergyWindow,
    SpectralDecomposition,
    ThinProduct,
    bump,
    dirichlet_decomposition,
    dst1,
    eigendecompose,
    plateau,
    propagate,
    resolvent,
    resolvent_solve,
    sandwich,
    scattering_projector,
    thin_sum,
)

F64_EPS = np.finfo(float).eps
ROUNDING_ULPS = 16.0  # as in test_golden: an eigenbasis is orthonormal to a modest multiple of n*eps


@pytest.fixture(scope="module")
def dec(small_ops):
    return eigendecompose(small_ops.H)


class TestEigendecompose:
    def test_reconstructs_operator(self, small_ops, dec):
        u, w = dec.eigenvectors, dec.eigenvalues
        back = (u * w[None, :]) @ u.T
        assert np.allclose(back, small_ops.H.dense(), atol=1e-10)

    def test_eigenvalues_ascending(self, dec):
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_orthonormal(self, dec):
        u = dec.eigenvectors
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)

    # dstedc on the band is what the dense eigh (dsyevd) runs after a reduction
    # that leaves a tridiagonal matrix as it is, so the bits must agree
    @pytest.mark.parametrize("case,which", [
        ("small", "H"), ("L160", "H"), ("small", "T"), ("small", "neglap")])
    def test_bitwise_equals_dense_eigh(self, request, monkeypatch, case, which):
        ops = request.getfixturevalue("small_ops" if case == "small" else "ops_L160")
        op = (Band(ops.conjugate_core.entries * np.array([[-1.0], [0.0], [1.0]]))
              if which == "T" else getattr(ops, which))  # T as c1_probe builds it
        w, u = np.linalg.eigh(op.dense())
        monkeypatch.setattr(Band, "dense", lambda self: pytest.fail("dense band formed"))
        dec = eigendecompose(op)
        assert np.array_equal(dec.eigenvalues, w)
        assert np.array_equal(dec.eigenvectors, u)
        assert dec.eigenvectors.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("library", [None, object()], ids=["no-openblas", "no-symbol"])
    def test_missing_dstedc_falls_back_to_dense(self, small_ops, monkeypatch, library):
        w, u = np.linalg.eigh(small_ops.H.dense())
        calls, dense = [], Band.dense
        monkeypatch.setattr(Band, "dense", lambda self: calls.append(1) or dense(self))
        monkeypatch.setattr(blas, "bundled_openblas", lambda: library)
        dec = eigendecompose(small_ops.H)
        assert len(calls) == 1  # the dense eigh ran
        assert np.array_equal(dec.eigenvalues, w)
        assert np.array_equal(dec.eigenvectors, u)


@pytest.mark.skipif(blas.bundled_openblas() is None, reason="no bundled OpenBLAS")
class TestBlasBindings:
    def test_each_lookup_types_its_own_function_object(self):
        assert blas.lapacke("dstemr").func is not blas.lapacke("dstemr").func

    def test_two_threads_share_no_routine(self):
        """Two threads calling the windowed eigensolver at once must not retype
        each other's routine (a shared one raised TypeError or crashed)."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
        code = (
            "import threading\n"
            "from mourre_lab import build_pair, make_cutoffs, make_grid, make_steplike\n"
            "from mourre_lab.spectral import EnergyWindow, eigendecompose\n"
            "g = make_grid(40.0, 401)\n"
            "H = build_pair(g, make_steplike(g, 0.0, 1.0), make_cutoffs(g)).H\n"
            "start, errors = threading.Barrier(2), []\n"
            "def work():\n"
            "    start.wait()\n"
            "    try:\n"
            "        for _ in range(50):\n"
            "            eigendecompose(H, EnergyWindow(0.5, 0.2))\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=work) for _ in range(2)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "print(errors)\n"
        )
        out = subprocess.run([sys.executable, "-X", "faulthandler", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stdout.strip(), out.stderr) == (0, "[]", "")


@pytest.fixture(scope="module")
def ops_L160():
    g = make_grid(160.0, 1601)
    return build_pair(g, make_steplike(g, 0.0, 1.0), make_cutoffs(g))


@pytest.fixture(scope="module")
def dec_L160(ops_L160):
    return eigendecompose(ops_L160.H)


def _diagonal_band(values):
    """A tridiagonal band with zero off-diagonals: its eigenvalues are `values`, exactly."""
    entries = np.zeros((3, len(values)))
    entries[1] = values
    return Band(entries)


class TestWindowedEigendecompose:
    """MRRR eigenpairs of a window against the dense `eigh` of the whole band."""

    @pytest.mark.parametrize("case,lam,eps", [
        ("small", 1.0, 0.3), ("small", 0.5, 2.0), ("small", 60.0, 5.0),
        ("L160", 1.3, 1.9), ("L160", 2.0, 0.1),
    ])
    def test_matches_dense_eigh(self, request, case, lam, eps):
        op = request.getfixturevalue("small_ops" if case == "small" else "ops_L160").H
        full = request.getfixturevalue("dec" if case == "small" else "dec_L160")
        win = EnergyWindow(lam, eps)
        n = op.n
        tol = ROUNDING_ULPS * n * F64_EPS
        scale = np.abs(op.entries).sum(axis=0).max()  # bounds the norm of H
        sel = win.contains(full.eigenvalues)
        dec = eigendecompose(op, win)
        w, u = dec.eigenvalues, dec.eigenvectors
        assert u.shape == (n, np.count_nonzero(sel)) and w.size > 0
        assert np.all(np.diff(w) >= 0) and np.all(win.contains(w))
        assert np.max(np.abs(w - full.eigenvalues[sel])) <= tol * scale
        assert np.max(np.abs(op @ u - u * w[None, :])) <= tol * scale
        assert np.max(np.abs(u.T @ u - np.eye(w.size))) <= tol
        u_ref = full.eigenvectors[:, sel]
        assert np.max(np.abs(u @ u.T - u_ref @ u_ref.T)) <= tol

    def test_empty_window(self, small_ops):
        dec = eigendecompose(small_ops.H, EnergyWindow(-5.0, 0.1))
        assert dec.eigenvalues.shape == (0,)
        assert dec.eigenvectors.shape == (small_ops.n, 0)

    def test_eigenvalues_on_edges_excluded(self):
        # dstemr returns the half-open (lo, hi]; the window is open at both ends
        op = _diagonal_band(np.arange(20.0))
        dec = eigendecompose(op, EnergyWindow(5.0, 2.0))
        assert dec.eigenvalues.tolist() == [4.0, 5.0, 6.0]
        assert np.array_equal(np.abs(dec.eigenvectors), np.eye(20)[:, 4:7])

    @pytest.mark.parametrize("library", [None, object()], ids=["no-openblas", "no-symbol"])
    def test_missing_dstemr_falls_back_to_dense(self, small_ops, monkeypatch, library):
        win = EnergyWindow(1.0, 0.3)
        full = eigendecompose(small_ops.H)
        monkeypatch.setattr(blas, "bundled_openblas", lambda: library)
        dec = eigendecompose(small_ops.H, win)
        sel = win.contains(full.eigenvalues)
        assert np.array_equal(dec.eigenvalues, full.eigenvalues[sel])
        assert np.array_equal(dec.eigenvectors, full.eigenvectors[:, sel])

    def test_wide_band_cut_from_dense(self, small_ops):
        op = small_ops.commutator_iHA  # pentadiagonal
        win = EnergyWindow(0.0, 0.5)
        full = eigendecompose(op)
        dec = eigendecompose(op, win)
        assert np.array_equal(dec.eigenvalues, full.eigenvalues[win.contains(full.eigenvalues)])


class TestThinProduct:
    def test_sum_matches_dense(self):
        rng = np.random.default_rng(5)

        def product(rows, cols, r, s):
            return ThinProduct(rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r)),
                               rng.standard_normal((r, s)) + 1j * rng.standard_normal((r, s)),
                               rng.standard_normal((cols, s)) + 1j * rng.standard_normal((cols, s)))

        terms = (product(30, 40, 4, 3), product(30, 40, 2, 5), product(30, 40, 0, 0))
        got, ref = dense(thin_sum(*terms)), sum(dense(t) for t in terms)
        assert got.shape == (30, 40)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(ref).max()

    def test_sum_keeps_right_is_left(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((20, 3)), rng.standard_normal((20, 2))
        same = thin_sum(ThinProduct(a, np.eye(3), a), ThinProduct(b, np.eye(2), b))
        assert same.right is same.left
        mixed = thin_sum(ThinProduct(a, np.eye(3), a), ThinProduct(b, np.eye(2), b.copy()))
        assert mixed.right is not mixed.left
        assert np.array_equal(mixed.right, same.left)

    def test_sandwich_matches_dense(self, small_ops, dec):
        eta = bump(1.0, 0.3)
        thin = sandwich(dec, eta, small_ops.commutator_iHA)
        assert thin.left.shape[1] < small_ops.n and thin.right is thin.left
        e = apply_function(dec, eta)
        ref = e @ small_ops.commutator_iHA.dense() @ e
        assert np.max(np.abs(dense(thin) - ref)) <= 1e-12


class TestWindows:
    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            EnergyWindow(1.0, 0.0)


class TestApplyFunction:
    def test_identity_function(self, small_ops, dec):
        back = apply_function(dec, lambda x: x)
        assert np.allclose(back, small_ops.H.dense(), atol=1e-10)

    def test_singular_function_rejected(self, dec):
        e0 = dec.eigenvalues[3]
        with np.errstate(divide="ignore"), pytest.raises(ValueError):
            apply_function(dec, lambda x: 1.0 / (x - e0))

    @pytest.mark.parametrize("eta", [bump(1.0, 0.3), plateau(0.5, 2.0, shoulder=0.5)],
                             ids=["bump", "plateau"])
    def test_support_restriction_matches_dense(self, dec, eta):
        w = eta(dec.eigenvalues)
        assert 0 < np.count_nonzero(w) < w.size  # the support is a proper subset
        u = dec.eigenvectors
        dense = (u * w[None, :]) @ u.T
        assert np.max(np.abs(apply_function(dec, eta) - dense)) <= 1e-12

    def test_resolvent_solves(self, small_ops, dec):
        z = 0.5 + 1j
        r = resolvent(dec, z)
        n = small_ops.n
        residual = (small_ops.H.dense() - z * np.eye(n)) @ r - np.eye(n)
        assert np.max(np.abs(residual)) < 1e-10

    def test_resolvent_rejects_spectrum_point(self, dec):
        # a real z on (or within isclose of) an eigenvalue, complex- or float-typed
        w0 = dec.eigenvalues[0]
        for z in (complex(w0), float(w0), float(w0) * (1.0 + 1e-12)):
            with pytest.raises(ValueError):
                resolvent(dec, z)


class TestResolventSolve:
    # Gaussian elimination with partial pivoting on the tridiagonal T - z is
    # backward stable, so it meets the dense solve within a modest multiple of n * eps
    @pytest.mark.parametrize("library", ["bundled", None], ids=["zgtsv", "no-openblas"])
    @pytest.mark.parametrize("cols", [None, 4], ids=["1-D", "2-D"])
    @pytest.mark.parametrize("z", [1j, 0.3 + 0.01j])
    @pytest.mark.parametrize("which", ["H", "-", "+"])
    def test_matches_dense_solve(self, small_ops, monkeypatch, which, z, cols, library):
        op = small_ops.H if which == "H" else small_ops.channel_hamiltonian(which)
        n = small_ops.n
        rng = np.random.default_rng(41)
        if cols is None:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        else:  # a real block, as the long-range surrogate passes, comes back complex
            x = rng.standard_normal((n, cols))
        ref = np.linalg.solve(op.dense() - z * np.eye(n), x)
        if library is None:
            monkeypatch.setattr(blas, "bundled_openblas", lambda: None)
        else:  # the banded path forms no dense matrix
            monkeypatch.setattr(Band, "dense", lambda self: pytest.fail("dense band formed"))
        out = resolvent_solve(op, z, x)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= ROUNDING_ULPS * n * F64_EPS * np.max(np.abs(ref))

    @pytest.mark.parametrize("shape", [(320,), (321, 2, 2)])
    def test_rejects_mismatched_right_hand_side(self, small_ops, shape):
        with pytest.raises(ValueError, match="321 rows"):
            resolvent_solve(small_ops.H, 1j, np.ones(shape))

    def test_eigenvalue_is_singular(self):
        with pytest.raises(np.linalg.LinAlgError):
            resolvent_solve(_diagonal_band(np.arange(20.0)), 5.0, np.ones(20))

    def test_wide_band_solved_dense(self, small_ops):
        op = small_ops.commutator_iHA  # pentadiagonal
        x = np.random.default_rng(42).standard_normal((small_ops.n, 2))
        ref = np.linalg.solve(op.dense() - 1j * np.eye(small_ops.n), x)
        assert np.array_equal(resolvent_solve(op, 1j, x), ref)


class TestDirichletDecomposition:
    def test_matches_eigh_of_laplacian(self, small_ops):
        n, dx = small_ops.n, small_ops.grid.dx
        w, u = np.linalg.eigh(small_ops.neglap.dense())
        closed = dirichlet_decomposition(n, dx)
        assert np.max(np.abs(closed.eigenvalues - w)) <= 1e-12 * 4.0 / dx**2
        v = closed.eigenvectors
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("lam,eps", [(1.5, 0.1), (3.0, 0.3), (40.0, 5.0)])
    def test_window_projector_matches_eigh(self, small_ops, lam, eps):
        n, dx = small_ops.n, small_ops.grid.dx
        shift = 1.0
        ref = eigendecompose(small_ops.neglap)
        ref = SpectralDecomposition(ref.eigenvalues + shift, ref.eigenvectors)
        win = EnergyWindow(lam, eps)
        sel = win.contains(ref.eigenvalues)
        closed = dirichlet_decomposition(n, dx, shift, win.contains)
        assert closed.eigenvalues.size == np.count_nonzero(sel) > 0
        assert closed.eigenvectors.shape == (n, closed.eigenvalues.size)
        u_ref = ref.eigenvectors[:, sel]
        u = closed.eigenvectors
        assert np.max(np.abs(u @ u.T - u_ref @ u_ref.T)) <= 1e-12


class TestPropagate:
    def test_real_basis_matches_complex_formula(self, dec):
        rng = np.random.default_rng(14)
        psi = rng.standard_normal(dec.source_dim) + 1j * rng.standard_normal(dec.source_dim)
        u = dec.eigenvectors.astype(complex)
        t = 3.1
        ref = u @ (np.exp(-1j * t * dec.eigenvalues) * (u.conj().T @ psi))
        assert np.max(np.abs(propagate(dec, psi, [t])[:, 0] - ref)) <= 1e-13

    def test_complex_basis_refused(self, dec):
        # every eigensolver here returns a real basis; a complex one is refused
        # rather than propagated through the real-arithmetic products
        u = dec.eigenvectors.astype(complex)
        with pytest.raises(ValueError, match="real eigenbasis"):
            propagate(SpectralDecomposition(dec.eigenvalues, u), u[:, 0], [1.0])

    def test_time_zero_identity(self, dec):
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(dec.source_dim).astype(complex)
        assert np.allclose(propagate(dec, psi, [0.0])[:, 0], psi)

    def test_unitary(self, dec):
        rng = np.random.default_rng(12)
        psi = rng.standard_normal(dec.source_dim) + 1j * rng.standard_normal(dec.source_dim)
        out = propagate(dec, psi, [2.7])
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi), rel=1e-12)

    @given(t=st.floats(-5.0, 5.0), s=st.floats(-5.0, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_group_law(self, dec, t, s):
        rng = np.random.default_rng(13)
        psi = rng.standard_normal(dec.source_dim).astype(complex)
        once = propagate(dec, psi, [t + s])
        twice = propagate(dec, propagate(dec, psi, [t]), [s])
        assert np.allclose(once, twice, atol=1e-9)

    def test_eigenvector_phase(self, dec):
        u = dec.eigenvectors[:, 5].astype(complex)
        t = 1.3
        out = propagate(dec, u, [t])[:, 0]
        assert np.allclose(out, np.exp(-1j * t * dec.eigenvalues[5]) * u, atol=1e-12)

    def test_dimension_mismatch(self, dec):
        with pytest.raises(ValueError):
            propagate(dec, np.zeros(3, dtype=complex), [1.0])

    def test_block_needs_one_column_per_time(self, dec):
        with pytest.raises(ValueError):
            propagate(dec, np.zeros((dec.source_dim, 2), dtype=complex), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("block", [False, True])
    @pytest.mark.parametrize("n_times", [1, 17])
    def test_ladder_matches_per_time_loop(self, dec, block, n_times):
        n = dec.source_dim
        rng = np.random.default_rng(15)
        u = dec.eigenvectors
        times = rng.uniform(-4.0, 4.0, n_times)
        shape = (n, n_times) if block else (n,)
        states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        columns = [states[:, k] if block else states for k in range(n_times)]
        ref = np.column_stack([u @ (np.exp(-1j * t * dec.eigenvalues) * (u.T @ col))
                               for t, col in zip(times, columns)])
        out = propagate(dec, states, times)
        assert out.shape == (n, n_times)
        scale = np.max(np.abs(states))
        assert np.max(np.abs(out - ref)) <= ROUNDING_ULPS * n * F64_EPS * scale


class TestDst1:
    @pytest.mark.parametrize("n", [320, 321, 601])
    def test_matches_sine_basis(self, n):
        dx = 40.0 / (n + 1)
        basis = dirichlet_decomposition(n, dx).eigenvectors
        rng = np.random.default_rng(n)
        tol = ROUNDING_ULPS * n * F64_EPS
        x = rng.standard_normal(n)
        assert np.max(np.abs(dst1(x) - basis.T @ x)) <= tol
        block = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
        assert np.max(np.abs(dst1(block) - basis.T @ block)) <= tol
        assert np.max(np.abs(dst1(dst1(block)) - block)) <= tol


class TestSmoothingFunctions:
    def test_bump_support_and_peak(self):
        eta = bump(1.0, 0.5)
        x = np.array([0.4, 0.5, 1.0, 1.5, 1.6])
        vals = eta(x)
        assert vals[0] == 0.0 and vals[4] == 0.0
        assert vals[1] == 0.0 and vals[3] == 0.0
        assert vals[2] == 1.0

    def test_gaussian_center(self):
        eta = gaussian(2.0, 0.3)
        assert eta(np.array([2.0]))[0] == 1.0

    def test_plateau_regions(self):
        eta = plateau(1.0, 2.0, shoulder=0.5)
        x = np.array([0.4, 1.0, 1.5, 2.0, 2.6])
        vals = eta(x)
        assert vals[0] == 0.0 and vals[4] == 0.0
        assert np.allclose(vals[1:4], 1.0)

    @pytest.mark.parametrize("eta", [bump(1.0, 0.3), plateau(1.0, 1.2, shoulder=0.5)],
                             ids=["bump", "plateau"])
    def test_window_holds_the_support(self, eta):
        """EnergyWindow(center, width) holds every x with eta(x) != 0, and no
        more than the support: it reaches within 5 % of the window's edges."""
        x = np.linspace(eta.center - 3 * eta.width, eta.center + 3 * eta.width, 60001)
        nonzero = eta(x) != 0
        assert np.all(EnergyWindow(eta.center, eta.width).contains(x[nonzero]))
        assert x[nonzero].min() < eta.center - 0.95 * eta.width
        assert x[nonzero].max() > eta.center + 0.95 * eta.width


class TestScatteringProjector:
    def test_projects_above_threshold(self, dec):
        p = scattering_projector(dec, np.eye(dec.source_dim), 0.0)
        assert np.allclose(p @ p, p, atol=1e-12)
        rank = round(np.real(np.trace(p)))
        assert rank == int((dec.eigenvalues > 0.01).sum())

    def test_kills_low_modes(self, dec):
        low = dec.eigenvectors[:, 0]
        assert np.linalg.norm(scattering_projector(dec, low, 10.0)) < 1e-12

    @pytest.mark.parametrize("basis", ["real", "complex"])
    @pytest.mark.parametrize("shape", ["vector", "block"])
    def test_matches_complex_formula(self, dec, basis, shape):
        n = dec.source_dim
        rng = np.random.default_rng(16)
        u = dec.eigenvectors
        if basis == "complex":  # a column phase keeps the basis orthonormal and complex
            u = u * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))[None, :]
        d = SpectralDecomposition(dec.eigenvalues, u)
        size = (n,) if shape == "vector" else (n, 7)
        states = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        coef = u.astype(complex).conj().T @ states
        coef[dec.eigenvalues <= 1.0 + 0.01] = 0.0  # threshold + AC_DELTA
        ref = u @ coef
        out = scattering_projector(d, states, 1.0)
        assert out.shape == states.shape and np.iscomplexobj(out)
        scale = np.max(np.abs(states))
        assert np.max(np.abs(out - ref)) <= ROUNDING_ULPS * n * F64_EPS * scale

    def test_reads_only_the_low_columns(self, dec):
        # columns above threshold + AC_DELTA never enter 1 - U_low U_low^dagger
        u = dec.eigenvectors.copy()
        high = dec.eigenvalues > 1.0 + 0.01
        u[:, high] = np.nan
        rng = np.random.default_rng(17)
        states = rng.standard_normal((dec.source_dim, 3)) + 1j * rng.standard_normal((dec.source_dim, 3))
        out = scattering_projector(SpectralDecomposition(dec.eigenvalues, u), states, 1.0)
        assert 0 < np.count_nonzero(~high) < high.size
        assert np.all(np.isfinite(out))
        ref = scattering_projector(dec, states, 1.0)
        assert np.array_equal(out, ref)
