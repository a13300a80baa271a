import numpy as np
import pytest

from conftest import channel_bases
from mourre_lab.grid import make_cutoffs, make_grid, make_steplike
from mourre_lab.operators import (
    Band,
    build_B,
    build_B_pm,
    build_commutator_longrange,
    build_laplacian,
    build_momentum_core,
    build_pair,
    load_matrix,
    save_matrix,
)
from mourre_lab.spectral import eigendecompose, resolvent


def band_from_dense(m, b):
    """The row-indexed diagonals of m, entry by entry: entries[b + k, i] = m[i, i + k]."""
    n = m.shape[0]
    e = np.zeros((2 * b + 1, n), dtype=m.dtype)
    for k in range(-b, b + 1):
        for i in range(n):
            if 0 <= i + k < n:
                e[b + k, i] = m[i, i + k]
    return Band(e)


def random_banded(rng, n, b):
    m = rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    m[np.abs(i - j) > b] = 0.0
    return m


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestBand:
    def test_dense_roundtrip(self):
        m = random_banded(np.random.default_rng(1), 23, 2)
        assert np.array_equal(band_from_dense(m, 2).dense(), m)

    @pytest.mark.parametrize("cols", [None, 4], ids=["vector", "block"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_products_match_dense(self, cols, dtype):
        rng = np.random.default_rng(2)
        n = 37
        m = random_banded(rng, n, 2)
        band = band_from_dense(m, 2)
        shape = (n,) if cols is None else (n, cols)
        x = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal(shape)
        assert rel_err(band @ x, m @ x) <= 1e-14
        assert rel_err(x.T @ band, x.T @ m) <= 1e-14

    @pytest.mark.parametrize("b1,b2", [(1, 1), (0, 2), (2, 1)])
    def test_band_product_matches_dense(self, b1, b2):
        rng = np.random.default_rng(3)
        m1, m2 = random_banded(rng, 29, b1), random_banded(rng, 29, b2)
        prod = band_from_dense(m1, b1) @ band_from_dense(m2, b2)
        assert prod.b == b1 + b2
        assert rel_err(prod.dense(), m1 @ m2) <= 1e-14

    def test_operator_set_holds_only_narrow_bands(self, small_ops):
        # tridiagonal H, -Delta and cores; pentadiagonal commutators
        n = small_ops.n
        ops = [small_ops.H, small_ops.neglap, small_ops.dilation_core,
               small_ops.conjugate_core, small_ops.commutator_iHA,
               *small_ops.commutator_iH0A0_channel]
        for op in ops:
            assert isinstance(op, Band)
            assert op.b <= 2
            assert op.entries.shape == (2 * op.b + 1, n)

    def test_symmetric_operators_exactly_symmetric(self, small_ops):
        for op in (small_ops.H, small_ops.neglap, small_ops.commutator_iHA,
                   *small_ops.commutator_iH0A0_channel):
            m = op.dense()
            assert np.array_equal(m, m.T)


class TestLaplacian:
    def test_eigenvalues_match_closed_form(self):
        # Dirichlet 3-point stencil: lambda_k = (2 - 2 cos(k pi/(n+1)))/dx^2
        g = make_grid(10.0, 129)
        lap = build_laplacian(g)
        w = np.linalg.eigvalsh(lap.dense())
        k = np.arange(1, g.n + 1)
        exact = (2.0 - 2.0 * np.cos(k * np.pi / (g.n + 1))) / g.dx**2
        assert np.allclose(w, np.sort(exact), rtol=1e-12, atol=1e-10)

    def test_positive(self):
        g = make_grid(10.0, 129)
        w = np.linalg.eigvalsh(build_laplacian(g).dense())
        assert w[0] > 0


class TestMomentumAndDilation:
    def test_momentum_core_antisymmetric(self):
        g = make_grid(10.0, 129)
        k = build_momentum_core(g).dense()
        assert np.array_equal(k, -k.T)

    def test_packet_mean_momentum(self):
        g = make_grid(20.0, 1281)
        k0 = 1.2
        psi = np.exp(1j * k0 * g.nodes - (g.nodes + 5.0) ** 2 / (4 * 2.0**2))
        psi /= np.sqrt(g.dx) * np.linalg.norm(psi)
        p = 1j * build_momentum_core(g).dense()
        mean = g.dx * np.real(psi.conj() @ (p @ psi))
        assert mean == pytest.approx(k0, abs=1e-3)

    def test_dilation_cores_antisymmetric(self, small_ops):
        for core in (small_ops.dilation_core.dense(), small_ops.conjugate_core.dense()):
            assert np.array_equal(core, -core.T)

    def test_conjugate_vanishes_where_j_does(self, small_ops):
        # A = jDj is zero on states supported where j == 0 (|x| <= 1)
        g = small_ops.grid
        psi = np.where(np.abs(g.nodes) <= 0.9, 1.0, 0.0)
        assert np.max(np.abs(1j * small_ops.conjugate_core.dense() @ psi)) < 1e-14


class TestCommutators:
    def test_iHA_matches_direct_commutator(self, small_ops):
        H = small_ops.H.dense().astype(complex)
        A = 1j * small_ops.conjugate_core.dense()
        direct = 1j * (H @ A - A @ H)
        assert np.allclose(small_ops.commutator_iHA.dense(), direct, atol=1e-11)

    def test_channel_commutators_match_direct(self, small_ops):
        for side, c in zip("-+", small_ops.commutator_iH0A0_channel):
            h = small_ops.channel_hamiltonian(side).dense().astype(complex)
            d = 1j * small_ops.dilation_core.dense()
            direct = 1j * (h @ d - d @ h)
            assert np.allclose(c.dense(), direct, atol=1e-11)

    def test_free_channel_commutator_is_twice_laplacian(self, free_ops):
        # i[-Delta, D] = 2(-Delta) holds for the continuum operators; the
        # discrete stencils agree to O(dx^2) on smooth interior states
        cm, _ = free_ops.commutator_iH0A0_channel
        g = free_ops.grid
        psi = np.exp(1j * 0.8 * g.nodes - g.nodes**2 / 16.0)
        psi /= np.linalg.norm(psi)
        lhs = cm.dense() @ psi
        rhs = 2.0 * (free_ops.neglap.dense() @ psi)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 0.01

    def test_longrange_formula_close_to_direct(self, small_ops):
        formula = build_commutator_longrange(small_ops).dense()
        direct = small_ops.commutator_iHA.dense()
        scale = np.max(np.abs(direct))
        # product-rule assembly differs from the direct commutator only by
        # discretization error of the centered difference
        assert np.max(np.abs(formula - direct)) / scale < 0.05


class TestBlockStructure:
    def test_J_action_matches_matrix(self, small_ops):
        rng = np.random.default_rng(5)
        n = small_ops.n
        pm = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cut = small_ops.cutoffs
        jmat = np.hstack([np.diag(cut.j_minus), np.diag(cut.j_plus)])
        via_matrix = jmat @ np.concatenate([pm, pp])
        assert np.allclose(small_ops.apply_J(pm, pp), via_matrix)

    def test_J_star_adjoint(self, small_ops):
        rng = np.random.default_rng(6)
        n = small_ops.n
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pm = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        pp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.vdot(psi, small_ops.apply_J(pm, pp))
        fm, fp = small_ops.apply_J_star(psi)
        rhs = np.vdot(fm, pm) + np.vdot(fp, pp)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def resolvents(opset):
    """R(z) of H and of a channel, as build_B and build_B_pm take them, from full bases."""
    dec_H = eigendecompose(opset.H)
    dec_m, dec_p = channel_bases(opset)
    return (lambda z: resolvent(dec_H, z),
            lambda side, z: resolvent(dec_m if side == "-" else dec_p, z))


class TestBOperators:
    def test_channel_decomposition_identity(self, small_ops):
        # B(z) phi = B_-(z) phi_- + B_+(z) phi_+ exactly at finite dimension
        z = 1j
        n = small_ops.n
        rs = resolvents(small_ops)
        b = build_B(small_ops, z, *rs)
        bm = build_B_pm(small_ops, z, "-", *rs)
        bp = build_B_pm(small_ops, z, "+", *rs)
        assert np.max(np.abs(b[:, :n] - bm)) < 1e-9
        assert np.max(np.abs(b[:, n:] - bp)) < 1e-9

    def test_degenerate_B_localized_at_cutoffs(self, free_ops):
        # v == const in both channels and along H, so B(z) = [j_pm, R(z)]
        # blockwise; applied to a packet deep in the flat region it is tiny
        z = 1j
        n = free_ops.n
        b = build_B(free_ops, z, *resolvents(free_ops))
        x = free_ops.grid.nodes
        phi = np.exp(-((x + 15.0) ** 2))
        phi /= np.linalg.norm(phi)
        out = b[:, :n] @ phi
        assert np.linalg.norm(out) < 1e-3

    def test_B_requires_complex_z(self, small_ops):
        with pytest.raises(ValueError):
            build_B(small_ops, 1.0 + 0j, *resolvents(small_ops))


class TestMatrixIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        path = tmp_path / "m.txt"
        save_matrix(m, path)
        back = load_matrix(path)
        assert np.array_equal(back, m)

    def test_band_exported_dense(self, tmp_path):
        lap = build_laplacian(make_grid(10.0, 17))
        path = tmp_path / "lap.txt"
        save_matrix(lap, path)
        assert np.array_equal(load_matrix(path), lap.dense())

    def test_header_present(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(np.eye(3), path)
        assert path.read_text().startswith("# rows=3 cols=3 format=re,im")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1,0 0,0\n")
        with pytest.raises(ValueError):
            load_matrix(path)
