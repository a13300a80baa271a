import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mourre_lab.spectral import (
    EnergyWindow,
    SpectralDecomposition,
    apply_function,
    bump,
    dirichlet_decomposition,
    eigendecompose,
    gaussian,
    plateau,
    propagate,
    resolvent,
    scattering_projector,
    spectral_projection,
)


@pytest.fixture(scope="module")
def dec(small_ops):
    return eigendecompose(small_ops.H)


class TestEigendecompose:
    def test_reconstructs_operator(self, small_ops, dec):
        u, w = dec.eigenvectors, dec.eigenvalues
        back = (u * w[None, :]) @ u.T
        assert np.allclose(back, small_ops.H.entries, atol=1e-10)

    def test_eigenvalues_ascending(self, dec):
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_orthonormal(self, dec):
        u = dec.eigenvectors
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)


class TestWindows:
    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            EnergyWindow(1.0, 0.0)

    def test_projection_idempotent(self, dec):
        p = spectral_projection(dec, EnergyWindow(1.0, 0.3)).entries
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.T, atol=1e-14)

    def test_projection_rank_counts_window(self, dec):
        win = EnergyWindow(1.0, 0.3)
        p = spectral_projection(dec, win).entries
        assert round(np.trace(p)) == int(dec.window_mask(win).sum())


class TestApplyFunction:
    def test_identity_function(self, small_ops, dec):
        back = apply_function(dec, lambda x: x)
        assert np.allclose(back, small_ops.H.entries, atol=1e-10)

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
        residual = (small_ops.H.entries - z * np.eye(n)) @ r - np.eye(n)
        assert np.max(np.abs(residual)) < 1e-10

    def test_resolvent_rejects_spectrum_point(self, dec):
        with pytest.raises(ValueError):
            resolvent(dec, complex(dec.eigenvalues[0]))


class TestDirichletDecomposition:
    def test_matches_eigh_of_laplacian(self, small_ops):
        n, dx = small_ops.n, small_ops.grid.dx
        w, u = np.linalg.eigh(small_ops.neglap.entries)
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
        sel = ref.window_mask(win)
        closed = dirichlet_decomposition(n, dx, shift, win)
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
        assert np.max(np.abs(propagate(dec, psi, t) - ref)) <= 1e-13
        complex_dec = SpectralDecomposition(dec.eigenvalues, u)
        assert np.max(np.abs(propagate(complex_dec, psi, t) - ref)) <= 1e-13

    def test_time_zero_identity(self, dec):
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(dec.source_dim).astype(complex)
        assert np.allclose(propagate(dec, psi, 0.0), psi)

    def test_unitary(self, dec):
        rng = np.random.default_rng(12)
        psi = rng.standard_normal(dec.source_dim) + 1j * rng.standard_normal(dec.source_dim)
        out = propagate(dec, psi, 2.7)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(psi), rel=1e-12)

    @given(t=st.floats(-5.0, 5.0), s=st.floats(-5.0, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_group_law(self, dec, t, s):
        rng = np.random.default_rng(13)
        psi = rng.standard_normal(dec.source_dim).astype(complex)
        once = propagate(dec, psi, t + s)
        twice = propagate(dec, propagate(dec, psi, t), s)
        assert np.allclose(once, twice, atol=1e-9)

    def test_eigenvector_phase(self, dec):
        u = dec.eigenvectors[:, 5].astype(complex)
        t = 1.3
        out = propagate(dec, u, t)
        assert np.allclose(out, np.exp(-1j * t * dec.eigenvalues[5]) * u, atol=1e-12)

    def test_dimension_mismatch(self, dec):
        with pytest.raises(ValueError):
            propagate(dec, np.zeros(3, dtype=complex), 1.0)


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


class TestScatteringProjector:
    def test_projects_above_threshold(self, dec):
        p = scattering_projector(dec, 0.0, delta=0.01)
        assert np.allclose(p @ p, p, atol=1e-12)
        rank = round(np.real(np.trace(p)))
        assert rank == int((dec.eigenvalues > 0.01).sum())

    def test_kills_low_modes(self, dec):
        p = scattering_projector(dec, 10.0, delta=0.01)
        low = dec.eigenvectors[:, 0]
        assert np.linalg.norm(p @ low) < 1e-12
