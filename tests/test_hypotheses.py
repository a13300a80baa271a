import dataclasses

import numpy as np
import pytest

from conftest import channel_bases, dense
from mourre_lab.grid import CutoffPair, make_cutoffs, make_grid, make_steplike, smoothstep
from mourre_lab.hypotheses import (
    _channel_resolve,
    assumption_operator,
    c1_probe,
    compactness_report,
    long_range_operator,
    short_range_operator,
    singular_values,
)
from mourre_lab.operators import Band, build_B, build_commutator_longrange, build_pair
from mourre_lab.spectral import (
    ThinProduct,
    apply_function,
    bump,
    dirichlet_decomposition,
    dirichlet_eigenvalues,
    eigendecompose,
    plateau,
    resolvent,
)

F64_EPS = np.finfo(float).eps
ROUNDING_ULPS = 16.0  # as in test_golden: an eigenbasis is orthonormal to a modest multiple of n*eps


@pytest.fixture(scope="module")
def eta():
    return bump(0.5, 0.4)


def identity(n: int) -> ThinProduct:
    eye = np.eye(n)
    return ThinProduct(eye, eye, eye)


def dense_reference(opset, dec_H, tag, eta):
    """Each surrogate as the dense n x n or n x 2n matrix the factored builders replaced,
    with the full channel bases."""
    jm = opset.cutoffs.j_minus
    jp = opset.cutoffs.j_plus
    n = opset.n
    dec_m, dec_p = channel_bases(opset)
    eta_H = apply_function(dec_H, eta)
    eta_m = apply_function(dec_m, eta)
    eta_p = apply_function(dec_p, eta)
    if tag == "iv":
        w = opset.cutoffs.jj_sum_sq - 1.0
        return eta_H @ (w[:, None] * eta_H)
    if tag == "iii":
        out = np.zeros((n, 2 * n))
        out[:, :n] = jm[:, None] * eta_m - eta_H * jm[None, :]
        out[:, n:] = jp[:, None] * eta_p - eta_H * jp[None, :]
        return out
    if tag == "ii":
        acore = opset.conjugate_core
        dcore = opset.dilation_core
        i_comm_H = eta_H @ acore - acore @ eta_H
        cm = eta_m @ dcore - dcore @ eta_m
        cp = eta_p @ dcore - dcore @ eta_p
        rhs = jm[:, None] * cm * jm[None, :] + jp[:, None] * cp * jp[None, :]
        diff = rhs - i_comm_H
        return 0.5 * (diff + diff.T)
    if tag == "short":
        smoothing = plateau(0.05, 5.0, shoulder=1.0)
        bmat = build_B(opset, 1j, lambda z: resolvent(dec_H, z),
                       lambda side, z: resolvent(dec_m if side == "-" else dec_p, z))
        dcore = opset.dilation_core
        out = np.zeros((n, 2 * n), dtype=complex)
        out[:, :n] = 1j * (bmat[:, :n] @ dcore) @ apply_function(dec_m, smoothing)
        out[:, n:] = 1j * (bmat[:, n:] @ dcore) @ apply_function(dec_p, smoothing)
        return out
    bjm = Band(jm[None, :])
    bjp = Band(jp[None, :])
    cm, cp = opset.commutator_iH0A0_channel
    mid = Band((bjm @ cm @ bjm).entries + (bjp @ cp @ bjp).entries
               - build_commutator_longrange(opset).entries)
    r = resolvent(dec_H, 1j)
    out = r @ mid @ r
    return 0.5 * (out + out.conj().T)


def factored(opset, dec_H, tag, eta) -> ThinProduct:
    if tag in ("ii", "iii", "iv"):
        return assumption_operator(opset, dec_H, tag, eta)
    if tag == "short":
        return short_range_operator(opset, dec_H, 1j)[0]
    return long_range_operator(opset, dec_H)


class TestClosedFormChannels:
    def test_channel_spectra_shifted(self, small_ops):
        lap = np.linalg.eigvalsh(small_ops.neglap.dense())
        dec_m, dec_p = channel_bases(small_ops)
        assert np.allclose(dec_m.eigenvalues, lap + 0.0, atol=1e-10)
        assert np.allclose(dec_p.eigenvalues, lap + 1.0, atol=1e-10)

    @pytest.mark.parametrize("center", [0.5, 1.5])
    def test_where_builds_the_full_basis_columns(self, small_ops, center):
        # exactly the columns of the full basis where eta != 0, bit for bit
        g, pot, eta = small_ops.grid, small_ops.potential, bump(center, 0.4)
        for shift, full in zip((pot.v_minus, pot.v_plus), channel_bases(small_ops)):
            part = dirichlet_decomposition(g.n, g.dx, shift, where=eta)
            keep = eta(full.eigenvalues) != 0
            assert np.array_equal(part.eigenvalues, full.eigenvalues[keep])
            assert np.array_equal(part.eigenvectors, full.eigenvectors[:, keep])

    @pytest.mark.parametrize("side", ["-", "+"])
    def test_channel_resolvent_matches_dense_solve(self, small_ops, side):
        z, n = 0.3 + 0.7j, small_ops.n
        shift = small_ops.potential.v_minus if side == "-" else small_ops.potential.v_plus
        x = np.random.default_rng(36).standard_normal((n, 3))
        h = small_ops.channel_hamiltonian(side).dense()
        ref = np.linalg.solve(h - z * np.eye(n), x)
        out = _channel_resolve(small_ops, shift, z, x)
        assert np.max(np.abs(out - ref)) <= ROUNDING_ULPS * n * F64_EPS * np.max(np.abs(ref))


class TestAssumptionOperators:
    def test_iv_hermitian(self, small_ops, dec_H, eta):
        m = dense(assumption_operator(small_ops, dec_H, "iv", eta))
        assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_iv_zero_for_partition_of_unity(self, small_ops, dec_H, eta):
        # cutoffs with j_minus^2 + j_plus^2 == 1 make JJ* the identity
        g = small_ops.grid
        s, _ = smoothstep(g.nodes, -1.0, 1.0)
        jp = np.sqrt(s)
        jm = np.sqrt(1.0 - s)
        cut = CutoffPair(grid=g, j_plus=jp, j_minus=jm, j=jm + jp,
                         jj_sum_sq=jm**2 + jp**2)
        ops = dataclasses.replace(small_ops, cutoffs=cut)
        m = dense(assumption_operator(ops, dec_H, "iv", eta))
        assert np.max(np.abs(m)) < 1e-12

    def test_iii_shape(self, small_ops, dec_H, eta):
        m = dense(assumption_operator(small_ops, dec_H, "iii", eta))
        assert m.shape == (small_ops.n, 2 * small_ops.n)

    def test_ii_symmetric(self, small_ops, dec_H, eta):
        m = dense(assumption_operator(small_ops, dec_H, "ii", eta))
        assert np.allclose(m, m.T, atol=1e-12)

    def test_unknown_tag(self, small_ops, dec_H, eta):
        with pytest.raises(ValueError):
            assumption_operator(small_ops, dec_H, "v", eta)

    # eta centred at 1.5 also reaches the plus channel, which bump(0.5, 0.4) misses
    @pytest.mark.parametrize("tag,center", [("ii", 0.5), ("iii", 0.5), ("iv", 0.5),
                                            ("ii", 1.5), ("iii", 1.5), ("iv", 1.5),
                                            ("short", 0.5), ("long", 0.5)])
    def test_matches_dense_reference(self, small_ops, dec_H, tag, center):
        # the dense matrix's SVD resolves each sigma_k to about n * eps * sigma_1,
        # well inside sqrt(n * eps) * sigma_1
        eta = bump(center, 0.4)
        op = factored(small_ops, dec_H, tag, eta)
        ref = np.linalg.svd(dense_reference(small_ops, dec_H, tag, eta), compute_uv=False)
        sv = singular_values(op.left, op.core, op.right)
        assert sv.shape == (40,)
        assert np.max(np.abs(sv[:10] - ref[:10])) <= np.sqrt(small_ops.n * F64_EPS) * ref[0]

    def test_empty_plus_block(self, small_ops, dec_H, eta):
        # eta = bump(0.5, 0.4) ends below the plus threshold 1.0: no plus channel modes
        op = assumption_operator(small_ops, dec_H, "iii", eta)
        w = dirichlet_eigenvalues(small_ops.n, small_ops.grid.dx)
        n_minus = int(np.count_nonzero(eta(w + 0.0)))
        n_H = int(np.count_nonzero(eta(dec_H.eigenvalues)))
        assert not np.any(eta(w + 1.0))
        assert op.left.shape == (small_ops.n, n_minus + n_H)
        assert op.right.shape == (2 * small_ops.n, n_minus + n_H)

    @pytest.mark.parametrize("tag", ["ii", "iii", "iv"])
    def test_eta_off_spectrum_is_zero(self, small_ops, dec_H, tag):
        # every factor block is empty, and the singular values are all zero
        op = assumption_operator(small_ops, dec_H, tag, bump(-5.0, 0.5))
        assert op.left.shape[1] == 0 and op.core.shape == (0, 0)
        sv = singular_values(op.left, op.core, op.right)
        assert sv.shape == (40,) and not np.any(sv)


class TestSingularValues:
    def test_matches_svd(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((30, 50)) + 1j * rng.standard_normal((30, 50))
        sv = singular_values(m, np.eye(50), np.eye(50), top=10)
        ref = np.linalg.svd(m, compute_uv=False)[:10]
        assert np.allclose(sv, ref, rtol=1e-8)

    def test_nonincreasing(self):
        rng = np.random.default_rng(32)
        sv = singular_values(rng.standard_normal((60, 60)), np.eye(60), np.eye(60), top=40)
        assert np.all(np.diff(sv) <= 1e-12)

    def test_thin_factors_match_dense(self):
        rng = np.random.default_rng(34)
        left = rng.standard_normal((80, 12)) + 1j * rng.standard_normal((80, 12))
        core = rng.standard_normal((12, 9))
        right = rng.standard_normal((150, 9)) + 1j * rng.standard_normal((150, 9))
        sv = singular_values(left, core, right, top=9)
        ref = np.linalg.svd(left @ core @ right.conj().T, compute_uv=False)[:9]
        assert np.allclose(sv, ref, rtol=1e-12, atol=1e-12 * ref[0])

    def test_zero_padded_to_min_of_top_rows_cols(self):
        rng = np.random.default_rng(35)
        v = rng.standard_normal((30, 2))
        sv = singular_values(v, np.eye(2), v)
        assert sv.shape == (30,) and np.all(sv[:2] > 0) and not np.any(sv[2:])
        assert singular_values(v, np.eye(2), v, top=5).shape == (5,)
        assert singular_values(v[:, :0], np.zeros((0, 0)), v[:4, :0]).shape == (4,)


class TestCompactnessReport:
    def test_identity_control_non_compact(self):
        rep = compactness_report(lambda L, n: identity(n), [(20.0, 101), (20.0, 201)],
                                 label="identity")
        assert rep.verdict == "non-compact"
        assert all(t == pytest.approx(1.0) for t in rep.tail_ratio)

    def test_rank_one_control_compact(self):
        def builder(L, n):
            v = np.ones((n, 1)) / np.sqrt(n)
            return ThinProduct(v, np.eye(1), v)

        rep = compactness_report(builder, [(20.0, 101), (20.0, 201)], label="rank1")
        assert rep.verdict == "compact-consistent"

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            compactness_report(lambda L, n: identity(n), [(20.0, 101)])

    def test_builder_failure_tagged(self):
        def bad(L, n):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="L=20"):
            compactness_report(bad, [(20.0, 101), (20.0, 201)])


class TestShortLongRange:
    def test_short_range_shape_and_descr(self, small_ops, dec_H):
        m, descr = short_range_operator(small_ops, dec_H, 1j)
        assert dense(m).shape == (small_ops.n, 2 * small_ops.n)
        assert "plateau" in descr

    def test_short_range_rejects_real_z(self, small_ops, dec_H):
        with pytest.raises(ValueError):
            short_range_operator(small_ops, dec_H, 1.0 + 0j)

    def test_long_range_hermitian(self, small_ops, dec_H):
        m = dense(long_range_operator(small_ops, dec_H))
        assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_long_range_needs_derivative(self, small_grid, dec_H):
        pot = make_steplike(small_grid, 0.0, 1.0, profile="sharp_step")
        ops = build_pair(small_grid, pot, make_cutoffs(small_grid))
        with pytest.raises(ValueError):
            long_range_operator(ops, dec_H)


@pytest.fixture(scope="module")
def states(small_ops):
    rng = np.random.default_rng(33)
    s = rng.standard_normal((3, small_ops.n)) + 1j * rng.standard_normal((3, small_ops.n))
    return s / np.linalg.norm(s, axis=1)[:, None]


class TestC1Probe:
    def test_verdict_and_ladder(self, small_ops, dec_H, states):
        rep = c1_probe(small_ops, dec_H, 1j, states)
        assert rep.verdict
        assert rep.limit_mismatch < 1e-3
        assert all(a > b for a, b in zip(rep.cauchy_defects, rep.cauchy_defects[1:]))

    def test_resolvent_identity_exact(self, small_ops, dec_H, states):
        # i[R(z), A] = -R(z) i[H,A] R(z) holds exactly at finite dimension
        rep = c1_probe(small_ops, dec_H, 1j, states)
        assert rep.resolvent_identity_defect < 1e-10

    def test_rejects_unnormalized(self, small_ops, dec_H):
        bad = np.ones((1, small_ops.n), dtype=complex)
        with pytest.raises(ValueError):
            c1_probe(small_ops, dec_H, 1j, bad)

    def test_rejects_wrong_length(self, small_ops, dec_H):
        with pytest.raises(ValueError):
            c1_probe(small_ops, dec_H, 1j, np.ones((2, 7), dtype=complex))


class TestContrastExperiment:
    def test_slow_tail_degrades_short_range(self):
        # v - v_plus ~ 1/sqrt(x) violates the short-range condition and the
        # singular-value tail stops being refinement-stable small
        levels = [(20.0, 161), (20.0, 321)]

        def build(kind):
            mats = []
            for (L, n) in levels:
                g = make_grid(L, n)
                cut = make_cutoffs(g)
                if kind == "fast":
                    pot = make_steplike(g, 0.0, 1.0)
                else:
                    x = g.nodes
                    samples = np.where(
                        x >= 0, 1.0 + 1.0 / np.sqrt(1.0 + np.abs(x)),
                        -1.0 / np.sqrt(1.0 + np.abs(x)),
                    )
                    pot = make_steplike(g, 0.0, 1.0, profile="custom", samples=samples)
                ops = build_pair(g, pot, cut)
                mats.append(short_range_operator(ops, eigendecompose(ops.H), 1j)[0])
            return mats

        fast = [singular_values(m.left, m.core, m.right, top=25) for m in build("fast")]
        slow = [singular_values(m.left, m.core, m.right, top=25) for m in build("slow")]
        # the slow tail carries more weight in the low singular values
        assert slow[-1][20] / slow[-1][0] > fast[-1][20] / fast[-1][0]
