import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mourre_lab.mourre import (
    DiscardPolicy,
    _interior_window,
    _localization,
    _region_grams,
    analytic_rho,
    estimate_rho_eta,
    estimate_rho_window,
    opnorm,
    rho_scan,
    transfer_verify,
    virial_defects,
)
from mourre_lab.operators import Band
from mourre_lab.spectral import EnergyWindow, bump


class TestAnalyticRho:
    def test_below_lower_threshold_infinite(self):
        assert analytic_rho(0.0, 1.0, -1.0) == math.inf

    def test_between_thresholds(self):
        assert analytic_rho(0.0, 1.0, 0.5) == 1.0

    def test_above_upper_threshold(self):
        assert analytic_rho(0.0, 1.0, 2.0) == 2.0

    def test_branch_points(self):
        assert analytic_rho(0.0, 1.0, 0.0) == 0.0
        assert analytic_rho(0.0, 1.0, 1.0) == 0.0
        assert analytic_rho(0.0, 1.0, 1.0 - 1e-9) == pytest.approx(2.0, abs=1e-8)

    def test_order_of_thresholds_irrelevant(self):
        for lam in (-0.5, 0.3, 1.7):
            assert analytic_rho(1.0, 0.0, lam) == analytic_rho(0.0, 1.0, lam)

    @given(st.floats(-2.0, 4.0), st.floats(-2.0, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_nondecreasing_in_lambda(self, a, b):
        lo, hi = min(a, b), max(a, b)
        grid = np.linspace(-3.0, 6.0, 181)
        vals = [analytic_rho(lo, hi, lam) for lam in grid]
        finite = [v for v in vals if math.isfinite(v)]
        # within each branch the formula is increasing; across the upper
        # threshold it drops -- monotone only below and at/above separately
        below = [v for lam, v in zip(grid, vals) if lo <= lam < hi]
        above = [v for lam, v in zip(grid, vals) if lam >= hi]
        assert all(x <= y + 1e-12 for x, y in zip(below, below[1:]))
        assert all(x <= y + 1e-12 for x, y in zip(above, above[1:]))
        assert all(v >= 0 for v in finite)


class TestWindowEstimate:
    def test_corrected_at_least_raw(self, small_ops, dec_H):
        est = estimate_rho_window(small_ops, dec_H, "H_A", EnergyWindow(0.5, 0.2))
        assert est.corrected >= est.raw_min

    def test_discard_nothing_equalizes(self, small_ops, dec_H):
        policy = DiscardPolicy(discard_nothing=True)
        est = estimate_rho_window(small_ops, dec_H, "H_A", EnergyWindow(0.5, 0.2), policy)
        assert est.corrected == est.raw_min
        assert est.n_discarded == 0

    def test_empty_window(self, small_ops, dec_H):
        est = estimate_rho_window(small_ops, dec_H, "H_A", EnergyWindow(-5.0, 0.1))
        assert est.raw_min == math.inf
        assert est.note == "no spectrum in window"

    def test_discard_log_complete(self, small_ops, dec_H):
        est = estimate_rho_window(small_ops, dec_H, "H_A", EnergyWindow(0.5, 0.2))
        assert len(est.discard_log) == est.compression_spectrum.size
        flagged = sum(1 for d in est.discard_log if d["discarded"])
        assert flagged == est.n_discarded

    def test_unknown_pair_rejected(self, small_ops, dec_H):
        with pytest.raises(ValueError):
            estimate_rho_window(small_ops, dec_H, "bogus", EnergyWindow(0.5, 0.2))

    def test_scaling_covariance(self, small_ops, dec_H):
        # replacing A by c*A multiplies every compression eigenvalue by c
        c = 2.5
        scaled = dataclasses.replace(
            small_ops,
            commutator_iHA=Band(c * small_ops.commutator_iHA.entries),
        )
        win = EnergyWindow(0.5, 0.2)
        base = estimate_rho_window(small_ops, dec_H, "H_A", win)
        mult = estimate_rho_window(scaled, dec_H, "H_A", win)
        assert np.allclose(mult.compression_spectrum, c * base.compression_spectrum)
        assert mult.raw_min == pytest.approx(c * base.raw_min, rel=1e-12)
        assert mult.corrected == pytest.approx(c * base.corrected, rel=1e-12)
        assert mult.n_discarded == base.n_discarded


class TestLocalization:
    @pytest.mark.parametrize("policy", [DiscardPolicy(), DiscardPolicy(theta=0.2),
                                        DiscardPolicy(discard_nothing=True)])
    def test_gram_masses_match_explicit_modes(self, small_ops, dec_H, policy):
        """v^dagger G v from the region Gram matrices equals the mass of the
        explicit mode U_S v, summed over the region's nodes."""
        us = dec_H.eigenvectors[:, EnergyWindow(1.0, 0.6).contains(dec_H.eigenvalues)]
        k = us.shape[1]
        vec, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((k, k)))
        x, L = small_ops.grid.nodes, small_ops.grid.L
        inner, bdry, flags = _localization(vec, _region_grams(us, x, L, policy), policy)

        mass = np.abs(us @ vec) ** 2
        total = mass.sum(axis=0)
        ref_inner = mass[np.abs(x) <= policy.interaction_radius].sum(axis=0) / total
        ref_bdry = mass[np.abs(x) >= L - policy.boundary_width(L)].sum(axis=0) / total
        tol = 16 * small_ops.n * np.finfo(float).eps
        assert np.max(np.abs(inner - ref_inner)) <= tol
        assert np.max(np.abs(bdry - ref_bdry)) <= tol
        ref_flags = ((ref_inner >= policy.theta) | (ref_bdry >= policy.theta)
                     if not policy.discard_nothing else np.zeros(k, dtype=bool))
        assert np.array_equal(flags, ref_flags)
        assert 0 < ref_bdry.max() and 0 < ref_inner.max()


class TestEtaEstimate:
    def test_raw_not_above_corrected(self, small_ops, dec_H):
        est = estimate_rho_eta(small_ops, dec_H, "H_A", bump(0.5, 0.2))
        assert est.raw_min <= est.corrected + 1e-9

    def test_eta_off_spectrum_rejected(self, small_ops, dec_H):
        with pytest.raises(ValueError):
            estimate_rho_eta(small_ops, dec_H, "H_A", bump(-50.0, 0.1))

    def test_free_channel_positive_after_discards(self):
        # free pair: i[-Delta, D] compressed near lambda=1 carries the
        # positive ladder ~ 2*(lambda - eps) once localized modes are
        # removed; the window must hold several levels, so the box is wide
        from mourre_lab.grid import make_cutoffs, make_grid, make_steplike
        from mourre_lab.operators import build_pair
        from mourre_lab.spectral import dirichlet_decomposition

        g = make_grid(80.0, 801)
        ops = build_pair(g, make_steplike(g, 0.0, 0.0), make_cutoffs(g))
        dec_m = dirichlet_decomposition(g.n, g.dx, 0.0)
        est = estimate_rho_eta(ops, dec_m, "channel-", bump(1.0, 0.3))
        assert est.corrected > 1.0
        assert est.raw_min < 0  # the finite-box virial keeps the raw value down


class TestVirial:
    def test_eigenvector_defects_tiny(self, small_ops, dec_H):
        defects = virial_defects(small_ops, dec_H, range(20))
        assert np.max(defects) <= 1e-10


class TestOpnorm:
    def test_matches_dense_svd(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((40, 25))
        assert opnorm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-6)

    def test_zero_matrix(self):
        assert opnorm(np.zeros((5, 5))) == 0.0


class TestTransfer:
    def test_threshold_samples_excluded(self, small_ops, dec_H):
        rep = transfer_verify(small_ops, dec_H, [1.05], 0.1, 0.2)
        assert rep.excluded == [1.05]
        assert rep.lambda_samples == []
        assert not rep.verdict

    def test_report_shapes(self, small_ops, dec_H):
        rep = transfer_verify(small_ops, dec_H, [0.5, 1.05, 2.0], 0.1, 5.0)
        assert rep.lambda_samples == [0.5, 2.0]
        assert len(rep.margins) == 2
        assert len(rep.eone_residuals) == 2

    def test_matches_dense_reference(self, small_ops, dec_H):
        """Thin sandwiches and the closed-form channel window reproduce the dense
        U f(Lambda) U* products with an eigh of each channel Hamiltonian."""
        lambdas, eps = [0.3, 0.5, 1.5, 2.0], 0.1
        rep = transfer_verify(small_ops, dec_H, lambdas, eps, 0.2)

        def dense_eta(h, eta):
            w, u = np.linalg.eigh(h)
            return (u * eta(w)[None, :]) @ u.T

        chi = _interior_window(small_ops)
        cm, cp = small_ops.commutator_iH0A0_channel
        jm, jp = small_ops.cutoffs.j_minus, small_ops.cutoffs.j_plus
        for k, lam in enumerate(lambdas):
            eta = bump(lam, eps)
            est = estimate_rho_eta(small_ops, dec_H, "H_A", eta)
            assert rep.margins[k] == pytest.approx(
                est.corrected - analytic_rho(0.0, 1.0, lam), abs=1e-12)
            e_h = dense_eta(small_ops.H.dense(), eta)
            e_m = dense_eta(small_ops.channel_hamiltonian("-").dense(), eta)
            e_p = dense_eta(small_ops.channel_hamiltonian("+").dense(), eta)
            lhs = e_h @ small_ops.commutator_iHA.dense() @ e_h
            rhs = (jm[:, None] * (e_m @ cm.dense() @ e_m) * jm[None, :]
                   + jp[:, None] * (e_p @ cp.dense() @ e_p) * jp[None, :])
            ref = opnorm(chi[:, None] * (lhs - rhs) * chi[None, :])
            assert rep.eone_residuals[k] == pytest.approx(ref, rel=1e-12)


def test_import_and_transfer_leave_scipy_unloaded():
    """The library, its windowed eigensolver included, must not pull in SciPy:
    its import cost would dominate set-up."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
    code = (
        "import sys\n"
        "from mourre_lab import (build_pair, make_cutoffs, make_grid, make_steplike, rho_scan,\n"
        "                        transfer_verify)\n"
        "g = make_grid(10.0, 101)\n"
        "ops = build_pair(g, make_steplike(g, 0.0, 1.0), make_cutoffs(g))\n"
        "rep = transfer_verify(ops, None, [2.0], 0.2, 5.0)\n"
        "assert len(rep.eone_residuals) == 1\n"
        "assert len(rho_scan(ops, None, [0.5, 2.0], 0.2)) == 2\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


class TestRhoScan:
    def test_row_schema(self, small_ops, dec_H):
        rows = rho_scan(small_ops, dec_H, [-5.0, 0.5], 0.1)
        assert len(rows) == 2
        lam, rho0, raw, corr, ndis, margin = rows[0]
        assert rho0 == math.inf and raw == math.inf and math.isnan(margin)
        lam, rho0, raw, corr, ndis, margin = rows[1]
        assert rho0 == 1.0
        assert margin == pytest.approx(corr - rho0)

    def test_window_matches_full_basis(self, small_ops, dec_H):
        """dec=None computes only the eigenpairs around the samples; the rows
        match those of the full basis to the bisection resolution."""
        lambdas = [-0.3, 0.25, 0.5, 1.5, 2.75]
        windowed = rho_scan(small_ops, None, lambdas, 0.1)
        full = rho_scan(small_ops, dec_H, lambdas, 0.1)
        for row, ref in zip(windowed, full):
            assert row[0] == ref[0] and row[1] == ref[1] and row[4] == ref[4]
            for v, r in zip(row[2:4], ref[2:4]):
                assert v == r if math.isinf(r) else abs(v - r) <= 1e-3 * max(1.0, abs(r))
