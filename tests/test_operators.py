import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import apply_function, build_B, build_B_pm, channel_bases
from mourre_lab.grid import make_cutoffs, make_grid, make_steplike
from mourre_lab.operators import (
    Band,
    build_commutator_longrange,
    build_laplacian,
    build_momentum_core,
    build_pair,
)
from mourre_lab.spectral import eigendecompose


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
               small_ops.commutator_iH0A0]
        for op in ops:
            assert isinstance(op, Band)
            assert op.b <= 2
            assert op.entries.shape == (2 * op.b + 1, n)

    def test_symmetric_operators_exactly_symmetric(self, small_ops):
        for op in (small_ops.H, small_ops.neglap, small_ops.commutator_iHA,
                   small_ops.commutator_iH0A0):
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
        # one band serves both channels: it is i[-Delta + v_pm, D] bit for bit
        c, k = small_ops.commutator_iH0A0, small_ops.dilation_core
        for side in "-+":
            h = small_ops.channel_hamiltonian(side)
            assert np.array_equal(c.entries, (k @ h).entries - (h @ k).entries)
            d = 1j * k.dense()
            direct = 1j * (h.dense() @ d - d @ h.dense())
            assert np.allclose(c.dense(), direct, atol=1e-11)

    @pytest.mark.parametrize("L, n, v_minus, v_plus", [
        (40.0, 601, 0.0, 1.0), (160.0, 1601, 0.0, 1.0), (40.0, 801, 0.3, -1.7),
        (17.7, 101, 2.5, 0.1), (640.0, 12801, -3.3, 7.9)])
    def test_channel_commutator_independent_of_shift(self, L, n, v_minus, v_plus):
        # a constant shift commutes with D, and the band product cancels it exactly
        g = make_grid(L, n)
        ops = build_pair(g, make_steplike(g, v_minus, v_plus), make_cutoffs(g))
        k = ops.dilation_core
        for side in "-+":
            h = ops.channel_hamiltonian(side)
            assert np.array_equal(ops.commutator_iH0A0.entries,
                                  (k @ h).entries - (h @ k).entries)

    def test_free_channel_commutator_is_twice_laplacian(self, free_ops):
        # i[-Delta, D] = 2(-Delta) holds for the continuum operators; the
        # discrete stencils agree to O(dx^2) on smooth interior states
        cm = free_ops.commutator_iH0A0
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
    return (lambda z: apply_function(dec_H, lambda w: 1.0 / (w - z)),
            lambda side, z: apply_function(dec_m if side == "-" else dec_p,
                                           lambda w: 1.0 / (w - z)))


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


def dense_callers(path: Path) -> set:
    """'module.function' (or 'module.Class.method') of every `.dense()` call in a
    source file, named by its outermost function; a call outside any function
    is named by the module alone."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not scope or isinstance(node, ast.ClassDef)):
                inner = scope + [child.name]
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "dense"):
                found.add(".".join([path.stem] + scope))
            visit(child, inner)

    visit(ast.parse(path.read_text()), [])
    return found


def test_only_the_dense_fallbacks_densify_a_band():
    """`Band.dense()` builds an n x n array: only the dense fallbacks of the two
    band solvers may call it."""
    src = Path(__file__).resolve().parents[1] / "src" / "mourre_lab"
    callers = set().union(*(dense_callers(p) for p in src.glob("*.py")))
    assert "spectral.eigendecompose" in callers  # the scan sees the calls it should
    assert callers <= {"spectral.eigendecompose", "spectral.resolvent"}


def foreign_interface_users(path: Path) -> tuple[bool, bool]:
    """(imports ctypes, names a `scipy_` symbol) for one source file: a string,
    an f-string part, an attribute or a name that contains `scipy_`."""
    tree = ast.parse(path.read_text())
    imports = any(
        isinstance(node, ast.Import) and any(a.name.split(".")[0] == "ctypes" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes"
        for node in ast.walk(tree))
    names = any(
        isinstance(node, ast.Constant) and isinstance(node.value, str) and "scipy_" in node.value
        or isinstance(node, ast.Attribute) and "scipy_" in node.attr
        or isinstance(node, ast.Name) and "scipy_" in node.id
        for node in ast.walk(tree))
    return imports, names


def test_only_blas_binds_the_foreign_interface():
    """ctypes and the `scipy_*64_` symbols of the bundled OpenBLAS belong to `blas`."""
    src = Path(__file__).resolve().parents[1] / "src" / "mourre_lab"
    found = {p.stem: foreign_interface_users(p) for p in src.glob("*.py")}
    assert found["blas"] == (True, True)  # the scan sees what it should
    assert [stem for stem, uses in found.items() if any(uses)] == ["blas"]


def package_imports(path: Path) -> tuple[set, bool]:
    """(the sibling modules a source file imports, whether any relative import
    sits inside a function): `from .x import y` names x, `from . import x` x."""
    tree = ast.parse(path.read_text())
    siblings = {p.stem for p in path.parent.glob("*.py")}
    found, in_function = set(), False

    def visit(node, depth):
        nonlocal in_function
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                names = [child.module] if child.module else [a.name for a in child.names]
                found.update(name.split(".")[0] for name in names
                             if name.split(".")[0] in siblings)
                in_function = in_function or depth > 0
            inner = depth + isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, inner)

    visit(tree, 0)
    return found, in_function


def test_package_imports_at_top_level_and_acyclic():
    """Every intra-package import sits at module level, and the modules import
    each other without a cycle."""
    src = Path(__file__).resolve().parents[1] / "src" / "mourre_lab"
    scanned = {p.stem: package_imports(p) for p in src.glob("*.py")}
    assert {"operators", "blas", "grid"} <= scanned["spectral"][0]  # the scan sees the imports
    assert [stem for stem, (_, nested) in scanned.items() if nested] == []
    # the three consumers of `spectral` are siblings: none imports another
    consumers = {"mourre", "hypotheses", "scattering"}
    assert {stem: scanned[stem][0] & consumers for stem in consumers} == {
        stem: set() for stem in consumers}
    graph = {stem: deps - {"__init__"} for stem, (deps, _) in scanned.items()}
    ordered = []
    while graph:  # peel off the modules that import nothing left in the graph
        leaves = sorted(stem for stem, deps in graph.items() if not deps - set(ordered))
        assert leaves, f"import cycle among {sorted(graph)}"
        ordered += leaves
        graph = {stem: deps for stem, deps in graph.items() if stem not in leaves}
