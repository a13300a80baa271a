import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import apply_function, build_B, channel_bases, dense, gaussian
from mourre_lab import hypotheses
from mourre_lab.grid import (
    CutoffPair,
    PotentialField,
    make_grid,
    make_steplike,
    smoothstep,
)
from mourre_lab.hypotheses import (
    assumption_operator,
    c1_probe,
    compactness_ladder,
    compactness_report,
    long_range_operator,
    short_range_operator,
)
from mourre_lab.operators import Band, build_commutator_longrange, build_pair
from mourre_lab.spectral import (
    SpectralDecomposition,
    ThinProduct,
    bump,
    dirichlet_decomposition,
    dirichlet_eigenvalues,
    eigendecompose,
    plateau,
    resolvent,
    singular_values,
    support_mask,
)

F64_EPS = np.finfo(float).eps
ROUNDING_ULPS = 16.0  # as in test_golden: an eigenbasis is orthonormal to a modest multiple of n*eps

# Criterion 6 of test_acceptance (L = 40, n = 801, z = i, three seeded states),
# frozen from the dense probe that c1_probe replaced (full eigh of A, n x n
# resolvent; `dense_c1_reference` below).
C1_GOLDEN = {
    "steps": [1e-2, 1e-3, 1e-4, 1e-5],
    "difference_quotient_norms": [0.5853484861291425, 0.8015329569006799,
                                  0.8238635262245199, 0.8259414163878973],
    "cauchy_defects": [0.4688691461215964, 0.06255798663885224, 0.006377858305526296],
    "limit_mismatch": 0.000859137804094557,
    "verdict": True,
}


@pytest.fixture(scope="module")
def eta():
    return bump(0.5, 0.4)


def dense_resolvent(dec, z):
    """(H - z)^{-1} as U (w - z)^{-1} U^dagger on a full basis, a dense test reference."""
    return apply_function(dec, lambda w: 1.0 / (w - z))


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
        acore = opset.conjugate_core.dense()
        dcore = opset.dilation_core.dense()
        i_comm_H = eta_H @ acore - acore @ eta_H
        cm = eta_m @ dcore - dcore @ eta_m
        cp = eta_p @ dcore - dcore @ eta_p
        rhs = jm[:, None] * cm * jm[None, :] + jp[:, None] * cp * jp[None, :]
        diff = rhs - i_comm_H
        return 0.5 * (diff + diff.T)
    if tag == "short":
        smoothing = plateau(0.05, 5.0, shoulder=1.0)
        bmat = build_B(opset, 1j, lambda z: dense_resolvent(dec_H, z),
                       lambda side, z: dense_resolvent(dec_m if side == "-" else dec_p, z))
        dcore = opset.dilation_core.dense()
        out = np.zeros((n, 2 * n), dtype=complex)
        out[:, :n] = 1j * (bmat[:, :n] @ dcore) @ apply_function(dec_m, smoothing)
        out[:, n:] = 1j * (bmat[:, n:] @ dcore) @ apply_function(dec_p, smoothing)
        return out
    bjm = Band(jm[None, :])
    bjp = Band(jp[None, :])
    cm = cp = opset.commutator_iH0A0
    mid = Band((bjm @ cm @ bjm).entries + (bjp @ cp @ bjp).entries
               - build_commutator_longrange(opset).entries)
    r = dense_resolvent(dec_H, 1j)
    out = r @ mid.dense() @ r
    return 0.5 * (out + out.conj().T)


def factored(opset, dec_H, tag, eta) -> ThinProduct:
    if tag in ("ii", "iii", "iv"):
        return assumption_operator(opset, dec_H, tag, eta)
    if tag == "short":
        return short_range_operator(opset)
    return long_range_operator(opset)


class TestClosedFormChannels:
    def test_channel_spectra_shifted(self, small_ops):
        lap = np.linalg.eigvalsh(small_ops.neglap.dense())
        dec_m, dec_p = channel_bases(small_ops)
        assert np.allclose(dec_m.eigenvalues, lap + 0.0, atol=1e-10)
        assert np.allclose(dec_p.eigenvalues, lap + 1.0, atol=1e-10)

    @pytest.mark.parametrize("center", [0.5, 1.5])
    def test_where_builds_the_full_basis_columns(self, small_ops, center):
        # exactly the columns of the full basis in the support_mask of eta, bit for bit
        g, pot, eta = small_ops.grid, small_ops.potential, bump(center, 0.4)
        for shift, full in zip((pot.v_minus, pot.v_plus), channel_bases(small_ops)):
            part = dirichlet_decomposition(g.n, g.dx, shift, where=eta)
            keep = support_mask(eta(full.eigenvalues))
            assert np.array_equal(part.eigenvalues, full.eigenvalues[keep])
            assert np.array_equal(part.eigenvectors, full.eigenvectors[:, keep])

    @pytest.mark.parametrize("side", ["-", "+"])
    def test_channel_resolvent_matches_dense_solve(self, small_ops, side):
        z, n = 0.3 + 0.7j, small_ops.n
        x = np.random.default_rng(36).standard_normal((n, 3))
        h = small_ops.channel_hamiltonian(side)
        ref = np.linalg.solve(h.dense() - z * np.eye(n), x)
        out = resolvent(h, z, x)
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
        cut = CutoffPair(j_plus=jp, j_minus=jm, j=jm + jp, jj_sum_sq=jm**2 + jp**2)
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

    @pytest.mark.parametrize("tag", ["ii", "iii", "iv"])
    @pytest.mark.parametrize("center", [0.5, 1.5])
    def test_window_of_eta_matches_full_basis(self, small_ops, dec_H, tag, center):
        # the pairs of H where the bump is nonzero, from MRRR on its open support,
        # give the surrogate of the full basis up to rounding
        eta = bump(center, 0.4)
        part = eigendecompose(small_ops.H, [eta.window])
        assert part.eigenvalues.size < small_ops.n
        ref = singular_values(*dataclasses.astuple(assumption_operator(small_ops, dec_H, tag, eta)))
        sv = singular_values(*dataclasses.astuple(assumption_operator(small_ops, part, tag, eta)))
        assert np.max(np.abs(sv - ref)) <= ROUNDING_ULPS * small_ops.n * F64_EPS * ref[0]

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

    def test_tall_factors_reduced_by_qr(self):
        # a QR of each tall factor, then one SVD of the core left: bitwise
        rng = np.random.default_rng(37)
        left, right = rng.standard_normal((300, 80)), rng.standard_normal((250, 80))
        core = np.diag(0.5 ** np.arange(80))
        sv = singular_values(left, core, right, top=10)
        rl, rr = np.linalg.qr(left, mode="r"), np.linalg.qr(right, mode="r")
        assert np.array_equal(sv, np.linalg.svd(rl @ core @ rr.T, compute_uv=False)[:10])

    def test_one_qr_when_right_is_left(self, monkeypatch):
        # a Hermitian thin product F C F^dagger takes the R of F once, with
        # the same bits as two QRs of equal factors
        rng = np.random.default_rng(38)
        f = rng.standard_normal((200, 30)) + 1j * rng.standard_normal((200, 30))
        core = rng.standard_normal((30, 30))
        core = core + core.T
        ref = singular_values(f, core, f.copy())
        calls = []
        qr = np.linalg.qr

        def counted(*args, **kwargs):
            calls.append(args[0])
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        sv = singular_values(f, core, f)
        assert len(calls) == 1 and calls[0] is f
        assert np.array_equal(sv, ref)

    def test_square_identity_core(self):
        # square factors are not reduced: the SVD runs on the full n x n core
        eye = np.eye(101)
        sv = singular_values(eye, eye, eye)
        assert sv.shape == (40,) and np.max(np.abs(sv - 1.0)) <= 4 * F64_EPS


LEVELS = [(20.0, 101), (20.0, 201)]


class TestCompactnessReport:
    def test_identity_control_non_compact(self):
        rep = compactness_report([np.ones(40), np.ones(40)], LEVELS)
        assert rep.verdict == "non-compact"
        assert rep.tail_ratio == [1.0, 1.0]

    def test_rank_one_control_compact(self):
        svs = []
        for _, n in LEVELS:
            v = np.ones((n, 1)) / np.sqrt(n)
            svs.append(singular_values(v, np.eye(1), v))

        rep = compactness_report(svs, LEVELS)
        assert rep.verdict == "compact-consistent"

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            compactness_report([np.ones(40)], LEVELS[:1])

    def test_level_without_sigma_20_named(self):
        # a missing sigma_20 is no tail ratio of 0
        with pytest.raises(ValueError, match=r"level \(L=20.0, n=201\) has 19 singular values"):
            compactness_report([np.ones(40), np.ones(19)], LEVELS)

    def test_level_with_zero_sigma_1_named(self):
        # sigma_1 = 0 leaves no tail ratio to read, so it is no pass
        with pytest.raises(ValueError, match=r"level \(L=20.0, n=101\) has sigma_1 = 0"):
            compactness_report([np.zeros(40), np.ones(40)], LEVELS)


class TestCompactnessLadder:
    def test_unknown_tag_named(self, eta):
        with pytest.raises(ValueError, match="'v'"):
            compactness_ladder(lambda L, n: pytest.fail("built"), LEVELS, eta, ["ii", "v"])

    def test_eta_window_without_spectrum_is_an_error(self):
        # below the spectrum of H, eta(H) = 0 and every sigma of (ii)-(iv) is 0
        def build(L, n):
            return build_pair(make_steplike(make_grid(L, n), 0.0, 1.0))

        with pytest.raises(ValueError, match=r"operator ii: level \(L=20.0, n=161\) has sigma_1 = 0"):
            compactness_ladder(build, [(20.0, 161), (20.0, 321)], bump(-5.0, 0.4),
                               ["ii", "iii", "iv"])

    def test_repeated_tag_named(self, eta):
        with pytest.raises(ValueError, match="repeated.*'iii'"):
            compactness_ladder(lambda L, n: pytest.fail("built"), LEVELS, eta, ["iii", "long", "iii"])

    def test_builder_failure_tagged(self, eta):
        def bad(L, n):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match=r"level \(L=20.0, n=101\): boom"):
            compactness_ladder(bad, LEVELS, eta, ["ii"])

    def test_identity_exact_without_a_build(self, eta):
        rep = compactness_ladder(lambda L, n: pytest.fail("built"), LEVELS + [(20.0, 31)],
                                 eta, ["identity"])["identity"]
        assert [sv.tolist() for sv in rep.singular_values] == [[1.0] * 40] * 2 + [[1.0] * 31]
        assert rep.tail_ratio == [1.0] * 3 and rep.stability == 0.0
        assert rep.verdict == "non-compact"

    def test_eta_cut_off_by_its_window_refused(self):
        # (ii)-(iv) read the pairs of H in eta.window only, so
        # an eta nonzero at its ends would be cut off there without a word
        wide = gaussian(1.0, 0.3)
        for tag in ("ii", "iii", "iv"):
            with pytest.raises(ValueError, match=r"center 1\.0, width 0\.3"):
                compactness_ladder(TestShortLongRange.steplike, [(40.0, 401), (40.0, 801)],
                                   wide, [tag, "short"])

    def test_short_only_ladder_takes_any_eta(self):
        # the short-range surrogate reads no eta, so a short-only ladder runs
        ladder = compactness_ladder(TestShortLongRange.steplike, [(40.0, 401), (40.0, 801)],
                                    gaussian(1.0, 0.3), ["short"])
        assert ladder["short"].verdict == "compact-consistent"

    def test_short_long_take_no_eigenpairs(self, small_ops, eta, monkeypatch):
        # neither surrogate reads a pair of H, so the ladder computes none
        def no_pairs(*args, **kwargs):
            raise AssertionError("eigenpairs of H computed")

        monkeypatch.setattr(hypotheses, "eigendecompose", no_pairs)
        ladder = compactness_ladder(lambda L, n: small_ops, [(20.0, 321), (20.0, 322)], eta,
                                    ["short", "long"])
        assert list(ladder) == ["short", "long"]

    def test_one_build_per_level_shared_by_tags(self, small_ops, eta):
        # each tag's spectrum is singular_values of its builder, bitwise
        built = []

        def build(L, n):
            built.append((L, n))
            return small_ops

        levels = [(20.0, 321), (20.0, 322)]  # two keys, one operator set
        ladder = compactness_ladder(build, levels, eta, ("ii", "short", "long"))
        assert built == levels
        window = eigendecompose(small_ops.H, [eta.window])
        for tag, rep in ladder.items():
            op = factored(small_ops, window, tag, eta)
            want = singular_values(op.left, op.core, op.right)
            assert all(np.array_equal(sv, want) for sv in rep.singular_values)

    def test_plateau_ladder_matches_full_basis(self, small_ops, dec_H):
        """The ladder takes the pairs of H in eta.window;
        for a plateau, whose shoulders reach past [lo, hi], that window must
        still hold every pair where eta is nonzero, or (ii)-(iv) lose pairs."""
        eta = plateau(1.0, 1.2, shoulder=0.5)
        tags = ("ii", "iii", "iv")
        ladder = compactness_ladder(lambda L, n: small_ops, [(20.0, 321), (20.0, 322)], eta,
                                    tags)
        for tag in tags:
            ref = singular_values(*dataclasses.astuple(
                assumption_operator(small_ops, dec_H, tag, eta)))
            for sv in ladder[tag].singular_values:
                assert np.max(np.abs(sv - ref)) <= ROUNDING_ULPS * small_ops.n * F64_EPS * ref[0]


class TestShortLongRange:
    def test_short_range_shape(self, small_ops):
        m = short_range_operator(small_ops)
        assert dense(m).shape == (small_ops.n, 2 * small_ops.n)

    @staticmethod
    def steplike(L, n):
        g = make_grid(L, n)
        return build_pair(make_steplike(g, 0.0, 1.0))

    @pytest.mark.parametrize("side", ["-", "+"])
    @pytest.mark.parametrize("z", [1j, 0.5 + 0.3j])
    def test_two_space_resolvent_identity(self, side, z):
        # j R0(z) - R(z) j = R(z)(H j - j H0) R0(z), dense, to a rounding bound
        # of n eps ||M|| ||R|| ||R0||, with ||R||, ||R0|| <= 1 / Im z
        ops = self.steplike(20.0, 161)
        dec_m, dec_p = channel_bases(ops)
        r, r0 = (dense_resolvent(eigendecompose(ops.H), z),
                 dense_resolvent(dec_m if side == "-" else dec_p, z))
        j = ops.cutoffs.j_minus if side == "-" else ops.cutoffs.j_plus
        m = ops.H.dense() * j[None, :] - j[:, None] * ops.channel_hamiltonian(side).dense()
        defect = np.max(np.abs(j[:, None] * r0 - r * j[None, :] - r @ m @ r0))
        assert defect <= ROUNDING_ULPS * ops.n * F64_EPS * np.linalg.norm(m, 2) / z.imag**2

    @staticmethod
    def middle_rows(ops):
        """|S-| + |S+|: the rows where H j - j H0 is nonzero, per channel, counted densely."""
        h = ops.H.dense()
        middles = (h * j[None, :] - j[:, None] * ops.channel_hamiltonian(side).dense()
                   for side, j in (("-", ops.cutoffs.j_minus), ("+", ops.cutoffs.j_plus)))
        return sum(int(np.count_nonzero(np.any(m, axis=1))) for m in middles)

    def test_short_range_width_is_the_rank_bound(self):
        # the factor width is |S-| + |S+|: it depends on dx only, not on L
        widths = []
        for L, n in [(40.0, 401), (80.0, 801)]:  # dx = 0.2 at both levels
            ops = self.steplike(L, n)
            op = short_range_operator(ops)
            assert op.left.shape[1] == op.right.shape[1] == self.middle_rows(ops)
            widths.append(op.left.shape[1])
        assert widths[0] == widths[1]

    def test_short_range_sigma_past_the_width_exactly_zero(self, eta):
        levels = [(40.0, 401), (80.0, 801)]
        rep = compactness_ladder(self.steplike, levels, eta, ["short"])["short"]
        width = self.middle_rows(self.steplike(*levels[0]))
        for sv in rep.singular_values:
            assert sv.size == 40 and sv[width - 1] > 0 and not np.any(sv[width:])

    def test_short_range_memory(self):
        """At (160, 3201) the plateau basis u of the wider channel has r = 249
        columns.  Multiplying by u in real arithmetic (`real_matmul`) makes no
        complex copy of it, so a call's traced peak stays below 3.7 blocks of
        n x r float64 (it reads about 3.3); a complex copy of u read about 4.2."""
        ops = self.steplike(160.0, 3201)
        smoothing = plateau(0.05, 5.0, shoulder=1.0)  # as short_range_operator takes it
        r = max(hypotheses._channel_support(ops, v, smoothing)[0].shape[1] for v in (0.0, 1.0))
        assert r == 249
        short_range_operator(ops)  # warm-up: imports are not traced
        tracemalloc.start()
        try:
            short_range_operator(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = ops.n * r * np.dtype(float).itemsize
        assert peak <= 3.7 * block, peak / block

    def test_long_range_hermitian(self, small_ops):
        m = dense(long_range_operator(small_ops))
        assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_long_range_needs_derivative(self, small_grid):
        pot = make_steplike(small_grid, 0.0, 1.0, profile="sharp_step")
        ops = build_pair(pot)
        with pytest.raises(ValueError):
            long_range_operator(ops)


@pytest.fixture(scope="module")
def states(small_ops):
    rng = np.random.default_rng(33)
    s = rng.standard_normal((3, small_ops.n)) + 1j * rng.standard_normal((3, small_ops.n))
    return s / np.linalg.norm(s, axis=1)[:, None]


def dense_c1_reference(opset, dec_H, z, states, steps):
    """Q(t) psi = (e^{-itA} R(z) e^{itA} - R(z)) psi / t for each step, and
    i[R(z), A] psi, from a full eigh of A and the n x n resolvent: the dense
    probe that `c1_probe` replaced.  Columns are the states."""
    a = 1j * opset.conjugate_core.dense()
    dec_A = SpectralDecomposition(*np.linalg.eigh(a))
    r = dense_resolvent(dec_H, z)
    psi = states.T
    quotients = [(apply_function(dec_A, lambda w: np.exp(-1j * t * w)) @ r
                  @ apply_function(dec_A, lambda w: np.exp(1j * t * w)) - r) @ psi / t
                 for t in steps]
    return quotients, 1j * (r @ a - a @ r) @ psi


class TestC1Probe:
    def test_matches_dense_reference(self, small_ops, dec_H, states):
        # the same rounding bound as the criterion-6 golden, ROUNDING_ULPS * n * eps / t
        rep = c1_probe(small_ops, states)
        quotients, comm = dense_c1_reference(small_ops, dec_H, 1j, states, rep.steps)
        norm = lambda m: np.linalg.norm(m, axis=0).max()  # max over the states
        bounds = ROUNDING_ULPS * small_ops.n * F64_EPS / np.array(rep.steps)
        qnorms = [norm(q) for q in quotients]
        cauchy = [norm(b - a) for a, b in zip(quotients, quotients[1:])]
        limit = norm(quotients[-1] - comm) / norm(comm)
        assert np.all(np.abs(np.subtract(rep.difference_quotient_norms, qnorms)) <= bounds)
        assert np.all(np.abs(np.subtract(rep.cauchy_defects, cauchy)) <= bounds[1:])
        assert abs(rep.limit_mismatch - limit) <= bounds[-1]

    def test_verdict_and_ladder(self, small_ops, states):
        rep = c1_probe(small_ops, states)
        assert rep.verdict
        assert rep.limit_mismatch < 1e-3
        assert all(a > b for a, b in zip(rep.cauchy_defects, rep.cauchy_defects[1:]))

    def test_resolvent_identity_exact(self, small_ops, states):
        # i[R(z), A] = -R(z) i[H,A] R(z) holds exactly at finite dimension
        rep = c1_probe(small_ops, states)
        assert rep.resolvent_identity_defect < 1e-10

    def test_criterion_6_golden(self):
        # a difference quotient at step t divides a rounding error of about
        # n * eps (unit states, ||R(i)|| <= 1) by t: each value is held to
        # ROUNDING_ULPS * n * eps / t, a Cauchy defect and the limit mismatch at
        # the smaller step they involve; the verdict must match exactly
        g = make_grid(40.0, 801)
        ops = build_pair(make_steplike(g, 0.0, 1.0))
        rng = np.random.default_rng(17)
        states = rng.standard_normal((3, g.n)) + 1j * rng.standard_normal((3, g.n))
        states /= np.linalg.norm(states, axis=1)[:, None]
        rep = c1_probe(ops, states)
        gold = C1_GOLDEN
        bounds = ROUNDING_ULPS * g.n * F64_EPS / np.array(gold["steps"])
        assert rep.steps == gold["steps"] and rep.verdict == gold["verdict"]
        assert np.all(np.abs(np.subtract(rep.difference_quotient_norms,
                                         gold["difference_quotient_norms"])) <= bounds)
        assert np.all(np.abs(np.subtract(rep.cauchy_defects, gold["cauchy_defects"]))
                      <= bounds[1:])
        assert abs(rep.limit_mismatch - gold["limit_mismatch"]) <= bounds[-1]
        assert rep.resolvent_identity_defect <= 1e-8

    def test_rejects_unnormalized(self, small_ops):
        bad = np.ones((1, small_ops.n), dtype=complex)
        with pytest.raises(ValueError):
            c1_probe(small_ops, bad)

    def test_rejects_wrong_length(self, small_ops):
        with pytest.raises(ValueError):
            c1_probe(small_ops, np.ones((2, 7), dtype=complex))


class TestContrastExperiment:
    def test_slow_tail_degrades_short_range(self):
        # v - v_plus ~ 1/sqrt(x) violates the short-range condition and the
        # singular-value tail stops being refinement-stable small
        levels = [(20.0, 161), (20.0, 321)]

        def build(kind):
            mats = []
            for (L, n) in levels:
                g = make_grid(L, n)
                if kind == "fast":
                    pot = make_steplike(g, 0.0, 1.0)
                else:
                    x = g.nodes
                    samples = np.where(
                        x >= 0, 1.0 + 1.0 / np.sqrt(1.0 + np.abs(x)),
                        -1.0 / np.sqrt(1.0 + np.abs(x)),
                    )
                    pot = PotentialField(grid=g, v=samples, v_minus=0.0, v_plus=1.0)
                ops = build_pair(pot)
                mats.append(short_range_operator(ops))
            return mats

        fast = [singular_values(m.left, m.core, m.right, top=25) for m in build("fast")]
        slow = [singular_values(m.left, m.core, m.right, top=25) for m in build("slow")]
        # the slow tail carries more weight in the low singular values
        assert slow[-1][20] / slow[-1][0] > fast[-1][20] / fast[-1][0]
