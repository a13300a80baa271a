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

from mourre_lab import mourre
from mourre_lab.mourre import (
    _bisect_sup,
    _compress,
    _estimate_rho_batch,
    _localization,
    _windowed_estimates,
    analytic_rho,
    estimate_rho_eta,
    estimate_rho_window,
    rho_scan,
    transfer_verify,
    virial_defects,
)
from conftest import discard_log, gaussian
from mourre_lab.grid import make_cutoffs, make_grid, make_steplike
from mourre_lab.operators import Band, build_pair
from mourre_lab.spectral import (
    EnergyWindow,
    SmoothingFunction,
    bump,
    eigendecompose,
    opnorm,
    plateau,
    support,
)

BISECT_TOL = 1e-3  # the bisection resolution of estimate_rho_eta, relative to max(1, |rho|)
F64_EPS = np.finfo(float).eps
ROUNDING_ULPS = 16.0  # as in test_golden: an eigenbasis is orthonormal to a modest multiple of n*eps

# Criterion 4 of test_acceptance (L = 40, n = 1601, well of depth 2), frozen
# when opnorm still took the dense matrix: |<u_k, i[H,A] u_k>| / ||i[H,A]||
# for the 20 lowest eigenvectors of the dense eigh, and ||i[H,A]|| itself.
VIRIAL_GOLDEN = [
    1.354024492157676e-19, 7.206314063816674e-21, 2.3661228412772548e-20,
    5.45043610938878e-20, 9.911461842232463e-20, 1.4858513724957948e-19,
    1.9007094075734757e-19, 2.3849997497771286e-19, 2.437073980121607e-19,
    2.2027399435714527e-19, 2.607183132580238e-19, 3.041135052117561e-19,
    3.4091262798852116e-19, 4.863733114174319e-19, 9.514395835855812e-21,
    1.0219567705103962e-20, 4.022734294110986e-20, 1.4372487575076145e-19,
    3.648667739469814e-19, 1.2115937593482066e-19,
]
COMMUTATOR_NORM_GOLDEN = 319800.12492192374


def _set_discard_rule(monkeypatch, policy):
    """Override, for one test, the discard constants named in the dict
    policy (THETA, INTERACTION_RADIUS, BOUNDARY_FRACTION); {} keeps them."""
    for name, value in policy.items():
        monkeypatch.setattr(mourre, name, value)


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
        est = estimate_rho_window(small_ops, dec_H, small_ops.commutator_iHA,
                                  EnergyWindow(0.5, 0.2))
        assert est.corrected >= est.raw_min

    def test_discard_nothing_equalizes(self, small_ops, dec_H, monkeypatch):
        monkeypatch.setattr(mourre, "THETA", math.inf)
        est = estimate_rho_window(small_ops, dec_H, small_ops.commutator_iHA,
                                  EnergyWindow(0.5, 0.2))
        assert est.corrected == est.raw_min
        assert est.n_discarded == 0

    def test_empty_window(self, small_ops, dec_H):
        est = estimate_rho_window(small_ops, dec_H, small_ops.commutator_iHA,
                                  EnergyWindow(-5.0, 0.1))
        assert est.raw_min == math.inf
        assert est.note == "no spectrum in window"

    def test_discard_log_complete(self, small_ops, dec_H):
        est = estimate_rho_window(small_ops, dec_H, small_ops.commutator_iHA,
                                  EnergyWindow(0.5, 0.2))
        log = discard_log(est)
        assert len(log) == est.compression_spectrum.size
        flagged = sum(1 for d in log if d["discarded"])
        assert flagged == est.n_discarded

    def test_scaling_covariance(self, small_ops, dec_H):
        # replacing A by c*A multiplies every compression eigenvalue by c
        c = 2.5
        scaled = dataclasses.replace(
            small_ops,
            commutator_iHA=Band(c * small_ops.commutator_iHA.entries),
        )
        win = EnergyWindow(0.5, 0.2)
        base = estimate_rho_window(small_ops, dec_H, small_ops.commutator_iHA, win)
        mult = estimate_rho_window(scaled, dec_H, scaled.commutator_iHA, win)
        assert np.allclose(mult.compression_spectrum, c * base.compression_spectrum)
        assert mult.raw_min == pytest.approx(c * base.raw_min, rel=1e-12)
        assert mult.corrected == pytest.approx(c * base.corrected, rel=1e-12)
        assert mult.n_discarded == base.n_discarded


class TestLocalization:
    @pytest.mark.parametrize("policy", [{}, {"THETA": 0.2}, {"THETA": math.inf}])
    def test_gram_masses_match_explicit_modes(self, small_ops, dec_H, monkeypatch, policy):
        """v^dagger G v from the region Gram matrices equals the mass of the
        explicit mode U_S v, summed over the region's nodes, for a stack of
        one mode matrix and for every matrix of a stack of three."""
        _set_discard_rule(monkeypatch, policy)
        us = dec_H.eigenvectors[:, EnergyWindow(1.0, 0.6).contains(dec_H.eigenvalues)]
        k = us.shape[1]
        rng = np.random.default_rng(3)
        x, L = small_ops.grid.nodes, small_ops.grid.L
        grams = _compress(us, small_ops.commutator_iHA, small_ops.grid)[1]
        tol = 16 * small_ops.n * np.finfo(float).eps
        for stack in (1, 3):
            vecs = np.stack([np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(stack)])
            inner, bdry, flags = _localization(vecs, np.stack([grams] * stack))
            for b, vec in enumerate(vecs):
                mass = np.abs(us @ vec) ** 2
                total = mass.sum(axis=0)
                ref_inner = mass[np.abs(x) <= mourre.INTERACTION_RADIUS].sum(axis=0) / total
                ref_bdry = mass[np.abs(x) >= L - mourre.BOUNDARY_FRACTION * L].sum(axis=0) / total
                assert np.max(np.abs(inner[b] - ref_inner)) <= tol
                assert np.max(np.abs(bdry[b] - ref_bdry)) <= tol
                ref_flags = (ref_inner >= mourre.THETA) | (ref_bdry >= mourre.THETA)
                assert np.array_equal(flags[b], ref_flags)
                assert 0 < ref_bdry.max() and 0 < ref_inner.max()


class TestLockstepBisection:
    """A lockstep bisection must give every entry exactly what it gets alone:
    the same midpoints, the same stop and the same stacked eigensolves."""

    @staticmethod
    def _one_by_one(holds, lo, hi, tol):
        return np.array([_bisect_sup(lambda a, act, i=i: holds(a, np.array([i])), [lo[i]],
                                     [hi[i]], tol)[0] for i in range(len(lo))])

    def test_threshold_entries_stop_at_different_steps(self):
        lo = np.array([-1.0, -100.0, 0.0, -1e6, 5.0, 0.3])
        hi = np.array([1.0, 100.0, 1e-4, 1e6, 5.0, 0.7])
        target = np.array([0.123456, -37.5, 5e-5, 2.5e5, 5.0, 1.0])
        steps = np.zeros(lo.size, dtype=int)

        def holds(a, active):
            steps[active] += 1
            return a <= target[active]

        batch = _bisect_sup(holds, lo, hi, 1e-3)
        assert len(set(steps)) >= 4  # entries stop at different steps, one at step 0
        assert steps[4] == 0
        single = self._one_by_one(lambda a, act: a <= target[act], lo, hi, 1e-3)
        assert np.array_equal(batch, single)
        assert np.all(np.abs(batch - np.minimum(target, hi)) <= 1e-3 * np.maximum(1.0, np.abs(batch)))

    def test_stacked_eigvalsh_predicate(self):
        """sup{a : M - a N >= 0} over a stack of random symmetric M and
        positive diagonal N: one stacked eigvalsh per step, bitwise equal
        to each matrix bisected alone."""
        rng = np.random.default_rng(11)
        b, k = 7, 9
        m = rng.standard_normal((b, k, k)) * rng.uniform(0.01, 50.0, (b, 1, 1))
        m = 0.5 * (m + m.mT)
        n = rng.uniform(0.1, 2.0, (b, k))[:, :, None] * np.eye(k)
        scale = 10.0 * np.abs(m).max(axis=(1, 2))

        def holds(a, active):
            return np.linalg.eigvalsh(m[active] - a[:, None, None] * n[active]).min(axis=1) >= 0

        batch = _bisect_sup(holds, -scale, scale, 1e-3)
        assert np.array_equal(batch, self._one_by_one(holds, -scale, scale, 1e-3))

    @pytest.mark.parametrize("policy", [{}, {"THETA": math.inf}])
    def test_batch_estimates_equal_single_on_a_shared_support(self, small_ops, monkeypatch,
                                                             policy):
        """Gaussians that are nonzero on the whole computed window share one
        support, so the batch compresses exactly what each single call does;
        the estimates must then be bitwise equal."""
        _set_discard_rule(monkeypatch, policy)
        dec = eigendecompose(small_ops.H, EnergyWindow(2.0, 0.5))
        etas = [gaussian(c, 0.3) for c in (0.4, 0.9, 1.3, 1.8, 2.0)]
        batch = _estimate_rho_batch(small_ops, dec, small_ops.commutator_iHA, etas)
        for eta, est in zip(etas, batch):
            one = estimate_rho_eta(small_ops, dec, small_ops.commutator_iHA, eta)
            assert (est.lam, est.eps) == (eta.center, eta.width)
            assert est.compression_spectrum.size == dec.eigenvalues.size
            assert ((est.raw_min, est.corrected, est.n_discarded)
                    == (one.raw_min, one.corrected, one.n_discarded))
            assert np.array_equal(est.compression_spectrum, one.compression_spectrum)
            assert all(np.array_equal(a, r) for a, r in zip(est.modes, one.modes))
            assert discard_log(est) == discard_log(one)
            assert len(discard_log(est)) == est.compression_spectrum.size
        assert len({(est.raw_min, est.corrected) for est in batch}) >= 3

    def test_nested_supports_of_mixed_widths(self, small_ops, dec_H):
        """A wide eta followed by narrow ones inside its support: one window
        must reach to the end of the widest support, and every estimate must
        match estimate_rho_eta to the bisection resolution."""
        etas = [bump(1.5, 0.6), bump(1.4, 0.1), bump(1.6, 0.15), bump(0.5, 0.1), bump(2.5, 0.3)]
        batch = _estimate_rho_batch(small_ops, dec_H, small_ops.commutator_iHA, etas)
        for eta, est in zip(etas, batch):
            one = estimate_rho_eta(small_ops, dec_H, small_ops.commutator_iHA, eta)
            assert est.n_discarded == one.n_discarded
            assert est.compression_spectrum.size == one.compression_spectrum.size
            for v, ref in ((est.raw_min, one.raw_min), (est.corrected, one.corrected)):
                assert abs(v - ref) <= BISECT_TOL * max(1.0, abs(ref))


class TestEtaEstimate:
    def test_raw_not_above_corrected(self, small_ops, dec_H):
        est = estimate_rho_eta(small_ops, dec_H, small_ops.commutator_iHA, bump(0.5, 0.2))
        assert est.raw_min <= est.corrected + 1e-9

    def test_eta_off_spectrum_rejected(self, small_ops, dec_H):
        with pytest.raises(ValueError):
            estimate_rho_eta(small_ops, dec_H, small_ops.commutator_iHA, bump(-50.0, 0.1))

    def test_estimator_and_support_share_one_rule(self, small_ops):
        # a weight 0 < eta <= 1e-12 max eta leaves the column out of both
        dec = eigendecompose(small_ops.H, EnergyWindow(0.5, 0.3))
        w = dec.eigenvalues
        assert w.size >= 3

        def f(x):
            out = np.ones_like(x)
            out[x == w[1]] = 0.5e-12
            return out

        eta = SmoothingFunction(0.5, 0.3, f)
        u, fw = support(dec, eta)
        assert u.shape[1] == w.size - 1 and np.all(fw == 1.0)
        est = estimate_rho_eta(small_ops, dec, small_ops.commutator_iHA, eta)
        assert est.compression_spectrum.size == w.size - 1

    def test_raw_at_its_bracket_floor_is_noted(self):
        # at (80, 401) the raw bisection at lambda = 0.14 never leaves its floor
        # -(max |C_ij| + 1), while lambda_min(C) lies below it
        g = make_grid(80.0, 401)
        ops = build_pair(g, make_steplike(g, 0.0, 1.0), make_cutoffs(g))
        eta = bump(0.14, 0.1)
        dec = eigendecompose(ops.H, EnergyWindow(0.14, 0.1))
        est = estimate_rho_eta(ops, dec, ops.commutator_iHA, eta)
        u, _ = support(dec, eta)
        c = u.T @ (ops.commutator_iHA @ u)
        floor = -(np.abs(0.5 * (c + c.T)).max() + 1.0)
        assert est.raw_min == pytest.approx(floor, rel=1e-12)
        assert np.linalg.eigvalsh(0.5 * (c + c.T))[0] < floor
        assert "floor" in est.note

    def test_raw_above_its_floor_has_no_note(self, small_ops, dec_H):
        est = estimate_rho_eta(small_ops, dec_H, small_ops.commutator_iHA, bump(0.5, 0.1))
        assert est.note == ""

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
        est = estimate_rho_eta(ops, dec_m, ops.commutator_iH0A0, bump(1.0, 0.3))
        assert est.corrected > 1.0
        assert est.raw_min < 0  # the finite-box virial keeps the raw value down


class TestVirial:
    def test_eigenvector_defects_tiny(self, small_ops, dec_H):
        defects = virial_defects(small_ops, dec_H, range(20))
        assert np.max(defects) <= 1e-10

    def test_criterion_4_golden(self):
        # each defect is a rounding-level value, which an eigenbasis orthonormal
        # to a modest multiple of n * eps resolves to ROUNDING_ULPS * n * eps; the
        # norm is resolved as finely, relative to itself
        g = make_grid(40.0, 1601)
        pot = make_steplike(g, 0.0, 1.0, bump=-2.0 * bump(0.0, 2.0)(g.nodes))
        ops = build_pair(g, pot, make_cutoffs(g))
        bound = ROUNDING_ULPS * g.n * F64_EPS
        defects = virial_defects(ops, eigendecompose(ops.H), range(20))
        assert np.max(np.abs(defects - VIRIAL_GOLDEN)) <= bound
        c = ops.commutator_iHA
        norm = opnorm(lambda v: c @ v, lambda v: c @ v, g.n)
        assert abs(norm - COMMUTATOR_NORM_GOLDEN) <= bound * COMMUTATOR_NORM_GOLDEN


class TestOpnorm:
    def test_matches_dense_svd(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((40, 25)) + 1j * rng.standard_normal((40, 25))
        norm = opnorm(lambda v: m @ v, lambda v: m.conj().T @ v, 25)
        assert norm == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-6)

    def test_zero_matrix(self):
        assert opnorm(lambda v: np.zeros(5), lambda v: np.zeros(5), 5) == 0.0

    def test_band_matches_eigvalsh(self, small_ops):
        # the norm that virial_defects divides by, from the band alone
        c = small_ops.commutator_iHA
        ref = np.abs(np.linalg.eigvalsh(c.dense())).max()
        norm = opnorm(lambda v: c @ v, lambda v: c @ v, small_ops.n)
        assert abs(norm - ref) <= ROUNDING_ULPS * small_ops.n * F64_EPS * ref


class TestTransfer:
    def test_threshold_samples_excluded(self, small_ops):
        rep = transfer_verify(small_ops, [1.05], 0.1, 0.2)
        assert rep.excluded == [1.05]
        assert rep.lambda_samples == []
        assert not rep.verdict

    def test_report_shapes(self, small_ops):
        rep = transfer_verify(small_ops, [0.5, 1.05, 2.0], 0.1, 5.0)
        assert rep.lambda_samples == [0.5, 2.0]
        assert len(rep.margins) == 2
        assert len(rep.eone_residuals) == 2

    def test_matches_dense_reference(self, small_ops):
        """Thin sandwiches and the closed-form channel window reproduce the dense
        U f(Lambda) U* products with an eigh of each channel Hamiltonian.  The
        margins match estimate_rho_eta on the eigenpairs of H in the span
        (min lambda - eps, max lambda + eps), computed by one MRRR call apart
        from the runs of eta supports that transfer_verify computes."""
        lambdas, eps = [0.3, 0.5, 1.5, 2.0], 0.1
        rep = transfer_verify(small_ops, lambdas, eps, 0.2)
        lo, hi = min(lambdas) - eps, max(lambdas) + eps
        dec_win = eigendecompose(small_ops.H, EnergyWindow(0.5 * (lo + hi), 0.5 * (hi - lo)))

        def dense_eta(h, eta):
            w, u = np.linalg.eigh(h)
            return (u * eta(w)[None, :]) @ u.T

        L = small_ops.grid.L
        chi = plateau(-0.5 * L, 0.5 * L, 0.25 * L)(small_ops.grid.nodes)
        cm = cp = small_ops.commutator_iH0A0
        jm, jp = small_ops.cutoffs.j_minus, small_ops.cutoffs.j_plus
        for k, lam in enumerate(lambdas):
            eta = bump(lam, eps)
            est = estimate_rho_eta(small_ops, dec_win, small_ops.commutator_iHA, eta)
            assert rep.margins[k] == pytest.approx(
                est.corrected - analytic_rho(0.0, 1.0, lam), abs=1e-12)
            e_h = dense_eta(small_ops.H.dense(), eta)
            e_m = dense_eta(small_ops.channel_hamiltonian("-").dense(), eta)
            e_p = dense_eta(small_ops.channel_hamiltonian("+").dense(), eta)
            c_h, c_m, c_p = (c.dense() @ e for c, e in ((small_ops.commutator_iHA, e_h),
                                                       (cm, e_m), (cp, e_p)))
            lhs = e_h @ c_h
            rhs = (jm[:, None] * (e_m @ c_m) * jm[None, :]
                   + jp[:, None] * (e_p @ c_p) * jp[None, :])
            ref = np.linalg.norm(chi[:, None] * (lhs - rhs) * chi[None, :], 2)
            # each eta(.) from an eigh carries a rounding of ROUNDING_ULPS * n * eps
            # in norm, and multiplies C eta(.) of norm ||C eta(.)||; the residual,
            # a near cancellation of the two sides, does not shrink that error
            scale = max(np.linalg.norm(c, 2) for c in (c_h, c_m, c_p))
            assert abs(rep.eone_residuals[k] - ref) <= ROUNDING_ULPS * small_ops.n * F64_EPS * scale


def _record_windows(monkeypatch):
    """The windows mourre passes to eigendecompose, in call order."""
    windows = []

    def recording(op, window=None):
        windows.append(window)
        return eigendecompose(op, window)

    monkeypatch.setattr(mourre, "eigendecompose", recording)
    return windows


def _window(lo, hi):
    """The window of the open interval (lo, hi), built as the runs are."""
    return EnergyWindow(0.5 * (lo + hi), 0.5 * (hi - lo))


class TestSupportRuns:
    """The scan and the transfer check take the eigenpairs of H on the union
    of the eta supports: one MRRR window per disjoint run of supports."""

    def test_transfer_one_window_per_run(self, small_ops, monkeypatch):
        windows = _record_windows(monkeypatch)
        eps = 0.1
        transfer_verify(small_ops, [0.3, 0.5, 1.5, 2.0], eps, 0.2)
        assert windows == [_window(0.3 - eps, 0.5 + eps), _window(1.5 - eps, 1.5 + eps),
                           _window(2.0 - eps, 2.0 + eps)]
        runs = [bound for w in windows for bound in (w.lam - w.eps, w.lam + w.eps)]
        assert runs == pytest.approx([0.2, 0.6, 1.4, 1.6, 1.9, 2.1], abs=1e-12)

    @pytest.mark.parametrize("lambdas, eps", [
        ([0.25 + 0.15 * j for j in range(12)], 0.1),  # step 0.15 < 2 eps
        ([2.0, 0.2, 1.1, 0.65, 1.55], 0.25),           # unsorted, step 0.45 < 2 eps
        ([0.7, 0.5], 0.1)])                            # supports that only touch
    def test_scan_with_overlapping_supports_is_one_span(self, small_ops, monkeypatch,
                                                        lambdas, eps):
        windows = _record_windows(monkeypatch)
        rho_scan(small_ops, lambdas, eps)
        assert windows == [_window(min(lambdas) - eps, max(lambdas) + eps)]

    def test_union_is_the_span_masked_to_the_supports(self, small_ops):
        lambdas, eps = [2.0, 0.3, 1.5, 0.5, 0.7, 2.3], 0.1
        dec = _windowed_estimates(small_ops, lambdas, eps)[0]
        lo, hi = min(lambdas) - eps, max(lambdas) + eps
        span = eigendecompose(small_ops.H, _window(lo, hi))
        on_union = np.zeros(span.eigenvalues.size, dtype=bool)
        for lam in lambdas:
            on_union |= EnergyWindow(lam, eps).contains(span.eigenvalues)
        assert not on_union.all()  # the gaps between the runs hold eigenvalues
        assert dec.eigenvalues.size == on_union.sum()
        assert np.all(np.diff(dec.eigenvalues) > 0)
        assert np.max(np.abs(dec.eigenvalues - span.eigenvalues[on_union])) <= 1e-12
        # the same eigenvectors up to sign
        overlap = np.abs(np.sum(dec.eigenvectors * span.eigenvectors[:, on_union], axis=0))
        assert np.max(np.abs(overlap - 1.0)) <= 1e-10


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
        "rep = transfer_verify(ops, [2.0], 0.2, 5.0)\n"
        "assert len(rep.eone_residuals) == 1\n"
        "assert len(rho_scan(ops, [0.5, 2.0], 0.2)) == 2\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


class TestRhoScan:
    def test_row_schema(self, small_ops):
        rows = rho_scan(small_ops, [-5.0, 0.5], 0.1)
        assert len(rows) == 2
        lam, rho0, raw, corr, ndis, margin = rows[0]
        assert rho0 == math.inf and raw == math.inf and math.isnan(margin)
        lam, rho0, raw, corr, ndis, margin = rows[1]
        assert rho0 == 1.0
        assert margin == pytest.approx(corr - rho0)

    def test_window_matches_full_basis(self, small_ops, dec_H):
        """rho_scan computes only the eigenpairs around the samples; its rows
        match estimate_rho_eta on the full basis to the bisection resolution,
        and a sample whose eta meets no eigenvalue gets (inf, inf, 0)."""
        lambdas = [-0.3, 0.25, 0.5, 1.5, 2.75]
        rows = rho_scan(small_ops, lambdas, 0.1)
        assert rows[0][2:5] == (math.inf, math.inf, 0)
        for lam, row in zip(lambdas[1:], rows[1:]):
            ref = estimate_rho_eta(small_ops, dec_H, small_ops.commutator_iHA, bump(lam, 0.1))
            assert row[4] == ref.n_discarded
            for v, r in ((row[2], ref.raw_min), (row[3], ref.corrected)):
                assert abs(v - r) <= BISECT_TOL * max(1.0, abs(r))

    @pytest.mark.parametrize("policy, eps", [
        ({}, 0.15), ({"THETA": math.inf}, 0.15),
        # wide supports and a wide interaction region: flags change along the
        # bisection, so each entry must be localized with its own Gram matrices
        ({"THETA": 0.3, "INTERACTION_RADIUS": 6.0}, 0.3)])
    def test_lockstep_matches_single_estimates(self, small_ops, dec_H, monkeypatch, policy, eps):
        """The scan compresses each window of columns once and bisects in
        lockstep; each row must match its own estimate_rho_eta, which
        compresses onto its support alone, to the bisection resolution."""
        _set_discard_rule(monkeypatch, policy)
        lambdas = [-5.0] + [0.05 + 0.1 * j for j in range(28)]
        rows = rho_scan(small_ops, lambdas, eps)
        assert rows[0][2:5] == (math.inf, math.inf, 0)
        sizes = set()
        for lam, row in zip(lambdas[1:], rows[1:]):
            est = estimate_rho_eta(small_ops, dec_H, small_ops.commutator_iHA, bump(lam, eps))
            sizes.add(est.compression_spectrum.size)
            assert row[4] == est.n_discarded
            for v, ref in ((row[2], est.raw_min), (row[3], est.corrected)):
                assert abs(v - ref) <= BISECT_TOL * max(1.0, abs(ref))
        # several lockstep groups, most with several members
        assert len(sizes) >= 3 and len(sizes) < len(lambdas) // 2
        if math.isfinite(mourre.THETA):
            assert any(row[4] > 0 for row in rows)

    def test_discard_nothing_makes_every_row_raw(self, small_ops, monkeypatch):
        """With THETA = inf no mode is flagged, so the corrected bisection
        meets the same test as the raw one: every row has corrected == raw."""
        lambdas = [0.05 + 0.1 * j for j in range(28)]
        default = rho_scan(small_ops, lambdas, 0.15)
        assert any(row[4] > 0 for row in default)
        monkeypatch.setattr(mourre, "THETA", math.inf)
        rows = rho_scan(small_ops, lambdas, 0.15)
        assert [row[0] for row in rows] == lambdas
        assert all(row[3] == row[2] and row[4] == 0 for row in rows)
