import dataclasses

import numpy as np
import pytest

from conftest import well_bump
from mourre_lab.grid import CutoffPair, make_cutoffs, make_grid, make_steplike, smoothstep
from mourre_lab.hypotheses import (
    assumption_operator,
    c1_probe,
    channel_decompositions,
    compactness_report,
    long_range_operator,
    short_range_operator,
    singular_values,
)
from mourre_lab.operators import build_pair
from mourre_lab.spectral import bump, eigendecompose, resolvent


@pytest.fixture(scope="module")
def eta():
    return bump(0.5, 0.4)


class TestChannelDecompositions:
    def test_channel_spectra_shifted(self, small_ops, small_decs):
        lap = np.linalg.eigvalsh(small_ops.neglap.dense())
        assert np.allclose(small_decs.minus.eigenvalues, lap + 0.0, atol=1e-10)
        assert np.allclose(small_decs.plus.eigenvalues, lap + 1.0, atol=1e-10)

    def test_resolvent_consistent(self, small_ops, small_decs):
        z = 0.3 + 0.7j
        r = small_decs.resolvent_channel("+", z)
        h = small_ops.channel_hamiltonian("+").dense()
        n = small_ops.n
        assert np.max(np.abs((h - z * np.eye(n)) @ r - np.eye(n))) < 1e-9


class TestAssumptionOperators:
    def test_iv_hermitian(self, small_ops, small_decs, eta):
        m = assumption_operator(small_ops, small_decs, "iv", eta)
        assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_iv_zero_for_partition_of_unity(self, small_ops, small_decs, eta):
        # cutoffs with j_minus^2 + j_plus^2 == 1 make JJ* the identity
        g = small_ops.grid
        s, _ = smoothstep(g.nodes, -1.0, 1.0)
        jp = np.sqrt(s)
        jm = np.sqrt(1.0 - s)
        cut = CutoffPair(grid=g, j_plus=jp, j_minus=jm, j=jm + jp,
                         jj_sum_sq=jm**2 + jp**2)
        ops = dataclasses.replace(small_ops, cutoffs=cut)
        m = assumption_operator(ops, small_decs, "iv", eta)
        assert np.max(np.abs(m)) < 1e-12

    def test_iii_shape(self, small_ops, small_decs, eta):
        m = assumption_operator(small_ops, small_decs, "iii", eta)
        assert m.shape == (small_ops.n, 2 * small_ops.n)

    def test_ii_symmetric(self, small_ops, small_decs, eta):
        m = assumption_operator(small_ops, small_decs, "ii", eta)
        assert np.allclose(m, m.T, atol=1e-12)

    def test_unknown_tag(self, small_ops, small_decs, eta):
        with pytest.raises(ValueError):
            assumption_operator(small_ops, small_decs, "v", eta)


class TestSingularValues:
    def test_matches_svd(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((30, 50)) + 1j * rng.standard_normal((30, 50))
        sv = singular_values(m, top=10)
        ref = np.linalg.svd(m, compute_uv=False)[:10]
        assert np.allclose(sv, ref, rtol=1e-8)

    def test_nonincreasing(self):
        rng = np.random.default_rng(32)
        sv = singular_values(rng.standard_normal((60, 60)), top=40)
        assert np.all(np.diff(sv) <= 1e-12)


class TestCompactnessReport:
    def test_identity_control_non_compact(self):
        rep = compactness_report(lambda L, n: np.eye(n), [(20.0, 101), (20.0, 201)],
                                 label="identity")
        assert rep.verdict == "non-compact"
        assert all(t == pytest.approx(1.0) for t in rep.tail_ratio)

    def test_rank_one_control_compact(self):
        def builder(L, n):
            v = np.ones((n, 1)) / np.sqrt(n)
            return v @ v.T

        rep = compactness_report(builder, [(20.0, 101), (20.0, 201)], label="rank1")
        assert rep.verdict == "compact-consistent"

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            compactness_report(lambda L, n: np.eye(n), [(20.0, 101)])

    def test_builder_failure_tagged(self):
        def bad(L, n):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="L=20"):
            compactness_report(bad, [(20.0, 101), (20.0, 201)])


class TestShortLongRange:
    def test_short_range_shape_and_descr(self, small_ops, small_decs):
        m, descr = short_range_operator(small_ops, small_decs, 1j)
        assert m.shape == (small_ops.n, 2 * small_ops.n)
        assert "plateau" in descr

    def test_short_range_rejects_real_z(self, small_ops, small_decs):
        with pytest.raises(ValueError):
            short_range_operator(small_ops, small_decs, 1.0 + 0j)

    def test_long_range_hermitian(self, small_ops, small_decs):
        m = long_range_operator(small_ops, small_decs)
        assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_long_range_needs_derivative(self, small_grid, small_decs):
        pot = make_steplike(small_grid, 0.0, 1.0, profile="sharp_step")
        ops = build_pair(small_grid, pot, make_cutoffs(small_grid))
        with pytest.raises(ValueError):
            long_range_operator(ops, small_decs)


@pytest.fixture(scope="module")
def states(small_ops):
    rng = np.random.default_rng(33)
    s = rng.standard_normal((3, small_ops.n)) + 1j * rng.standard_normal((3, small_ops.n))
    return s / np.linalg.norm(s, axis=1)[:, None]


class TestC1Probe:
    def test_verdict_and_ladder(self, small_ops, small_decs, states):
        rep = c1_probe(small_ops, small_decs, 1j, states)
        assert rep.verdict
        assert rep.limit_mismatch < 1e-3
        assert all(a > b for a, b in zip(rep.cauchy_defects, rep.cauchy_defects[1:]))

    def test_resolvent_identity_exact(self, small_ops, small_decs, states):
        # i[R(z), A] = -R(z) i[H,A] R(z) holds exactly at finite dimension
        rep = c1_probe(small_ops, small_decs, 1j, states)
        assert rep.resolvent_identity_defect < 1e-10

    def test_rejects_unnormalized(self, small_ops, small_decs):
        bad = np.ones((1, small_ops.n), dtype=complex)
        with pytest.raises(ValueError):
            c1_probe(small_ops, small_decs, 1j, bad)

    def test_rejects_wrong_length(self, small_ops, small_decs):
        with pytest.raises(ValueError):
            c1_probe(small_ops, small_decs, 1j, np.ones((2, 7), dtype=complex))


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
                decs = channel_decompositions(ops)
                mats.append(short_range_operator(ops, decs, 1j)[0])
            return mats

        fast = [singular_values(m, top=25) for m in build("fast")]
        slow = [singular_values(m, top=25) for m in build("slow")]
        # the slow tail carries more weight in the low singular values
        assert slow[-1][20] / slow[-1][0] > fast[-1][20] / fast[-1][0]
