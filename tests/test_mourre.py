import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mourre_lab import mourre
from mourre_lab.mourre import (
    _bisect_sup,
    _compress,
    _descend_sup,
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
from test_golden import CONFIGS
from mourre_lab.grid import make_grid, make_steplike
from mourre_lab.operators import Band, build_pair
from mourre_lab.spectral import (
    EnergyWindow,
    SmoothingFunction,
    bump,
    eigendecompose,
    opnorm,
    plateau,
    support,
    support_mask,
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


def _golden_samples(name):
    """(ops, samples, eps) of a golden rho-scan or transfer config (tests/test_golden.py):
    the scan's lambda grid as the CLI builds it, or the transfer's samples that stay
    2 eps away from both thresholds."""
    experiment, cfg = CONFIGS[name]
    p = cfg["params"]
    g = make_grid(cfg["L"], cfg["n"])
    field = (p["bump_amplitude"] * bump(0.0, p["bump_width"])(g.nodes)
             if p.get("bump_amplitude") else None)
    ops = build_pair(make_steplike(g, cfg["v_minus"], cfg["v_plus"], cfg["profile"], field))
    if experiment == "rho-scan":
        step = p["lambda_step"]
        lambdas = [float(x) for x in np.arange(p["lambda_min"], p["lambda_max"] + 0.5 * step, step)]
    else:
        lambdas = [x for x in p["lambdas"]
                   if min(abs(x - cfg["v_minus"]), abs(x - cfg["v_plus"])) >= 2 * p["eps"]]
    return ops, lambdas, p["eps"]


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


def _raw_references(monkeypatch, name, tol=BISECT_TOL):
    """(estimates, references, floors) on the golden config name: the batch
    estimate of each eta that meets the spectrum, as `_windowed_estimates`
    makes it, and for each the raw bisection of M - aN >= -s on its own block
    of the window compression the batch sliced, stopped at tol * max(1, |a|)
    and capped at its corrected value, with the floor -(max |C_ij| + 1) where
    that bisection opens."""
    ops, lambdas, eps = _golden_samples(name)
    windows, compress_window = {}, mourre._compress

    def spy(us, comm, grid):  # keyed by the first column of the window
        lo = next(i for i in range(dec.eigenvalues.size)
                  if np.array_equal(dec.eigenvectors[:, i], us[:, 0]))
        out = compress_window(us, comm, grid)
        windows[lo] = out[0]
        return out

    dec = eigendecompose(ops.H, [bump(lam, eps).window for lam in lambdas])
    monkeypatch.setattr(mourre, "_compress", spy)
    etas = [bump(lam, eps) for lam in lambdas]
    batch = _estimate_rho_batch(ops, dec, ops.commutator_iHA, etas)
    monkeypatch.setattr(mourre, "BISECT_TOL", tol)
    estimates, refs, floors = [], [], []
    for eta, est in zip(etas, batch):
        if est is None:
            continue
        w = eta(dec.eigenvalues)
        cols = np.flatnonzero(support_mask(w))
        lo = max(i for i in windows if i <= cols[0])  # the window the batch opened for it
        c, ek = windows[lo][np.ix_(cols - lo, cols - lo)], w[cols]
        m = ek[:, None] * c * ek[None, :]
        slack = mourre.PSD_RTOL * max(1.0, np.abs(m).max())
        floor = -((np.abs(c).max() or 1.0) + 1.0)

        def holds(a, active):
            g = m - a[:, None, None] * np.diag(ek**2)
            return np.linalg.eigvalsh(0.5 * (g + g.mT)).min(axis=1) >= -slack

        top = -floor if holds(np.array([floor]), None)[0] else floor
        estimates.append(est)
        refs.append(min(float(_bisect_sup(holds, [floor], [top])[0]), est.corrected))
        floors.append(floor)
    return estimates, refs, floors


class TestLockstepBisection:
    """A lockstep bisection must give every entry exactly what it gets alone:
    the same midpoints, the same stop and the same stacked eigensolves."""

    @staticmethod
    def _one_by_one(holds, lo, hi):
        return np.array([_bisect_sup(lambda a, act, i=i: holds(a, np.array([i])), [lo[i]],
                                     [hi[i]])[0] for i in range(len(lo))])

    def test_threshold_entries_stop_at_different_steps(self):
        lo = np.array([-1.0, -100.0, 0.0, -1e6, 5.0, 0.3])
        hi = np.array([1.0, 100.0, 1e-4, 1e6, 5.0, 0.7])
        target = np.array([0.123456, -37.5, 5e-5, 2.5e5, 5.0, 1.0])
        steps = np.zeros(lo.size, dtype=int)

        def holds(a, active):
            steps[active] += 1
            return a <= target[active]

        batch = _bisect_sup(holds, lo, hi)
        assert len(set(steps)) >= 4  # entries stop at different steps, one at step 0
        assert steps[4] == 0
        single = self._one_by_one(lambda a, act: a <= target[act], lo, hi)
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

        batch = _bisect_sup(holds, -scale, scale)
        assert np.array_equal(batch, self._one_by_one(holds, -scale, scale))

    @pytest.mark.parametrize("policy", [{}, {"THETA": math.inf}])
    def test_batch_estimates_equal_single_on_a_shared_support(self, small_ops, monkeypatch,
                                                             policy):
        """Gaussians that are nonzero on the whole computed window share one
        support, so the batch compresses exactly what each single call does;
        the estimates must then be bitwise equal."""
        _set_discard_rule(monkeypatch, policy)
        dec = eigendecompose(small_ops.H, [EnergyWindow(2.0, 0.5)])
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

    def test_entries_failing_at_lo_are_lo(self):
        lo, hi = np.array([-3.0, -3.0, 0.0]), np.array([3.0, 3.0, 1.0])
        target = np.array([1.0, -5.0, -1.0])  # the last two fail at lo
        steps = np.zeros(lo.size, dtype=int)

        def holds(a, active):
            steps[active] += 1
            return a <= target[active]

        out = _bisect_sup(holds, lo, np.where(lo <= target, hi, lo))
        assert out[1:].tolist() == [-3.0, 0.0] and steps[1:].tolist() == [0, 0]
        assert np.array_equal(out, _bisect_sup(lambda a, act: a <= target[act], lo, hi))

    @pytest.mark.parametrize("name", ["rho-scan", "transfer", "rho-scan-L160", "transfer-L160"])
    def test_raw_settled_at_its_floor_equals_the_full_bisection(self, monkeypatch, name):
        """On the golden scan and transfer configs, the closed-form raw value
        must match the raw bisection it replaced, on the same blocks: within
        BISECT_TOL * max(1, |v|) everywhere, and bit for bit, with the same
        note, where that bisection never left its floor."""
        estimates, refs, floors = _raw_references(monkeypatch, name)
        for est, ref, floor in zip(estimates, refs, floors):
            assert abs(est.raw_min - ref) <= BISECT_TOL * max(1.0, abs(ref))
            assert est.note == ("raw_min is its bracket floor" if ref == floor else "")
            if ref == floor:
                assert est.raw_min == ref
        if name.endswith("L160"):  # most raw values sit at their floor there
            assert sum(ref == floor for ref, floor in zip(refs, floors)) > len(refs) // 2

    @pytest.mark.parametrize("name", ["rho-scan-L160", "transfer-L160"])
    def test_raw_is_the_closed_form_eigenvalue(self, monkeypatch, name):
        """raw = lambda_min(C + s E^-2), clipped to [floor, corrected], agrees
        to 1e-8 relative with a bisection of the raw test run to 1e-14."""
        estimates, refs, _ = _raw_references(monkeypatch, name, tol=1e-14)
        for est, ref in zip(estimates, refs):
            assert est.raw_min == pytest.approx(ref, rel=1e-8, abs=0.0)

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


def _pencils(seed, b=7, k=9):
    """(probe, holds, lo, hi) for sup{a : lambda_min(M - a N) >= 0} over a stack
    of b random symmetric M and positive diagonal N, a test that holds on one
    run below its edge.  The probe is the estimator's: eigh, and the Newton
    target a + mu / v^T N v of the lowest mode (mu, v).  Entry 0 predicts
    nothing (target inf, as when every mode is flagged), entry 1 holds at
    its hi and entry 2 fails at its lo."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((b, k, k)) * rng.uniform(0.01, 50.0, (b, 1, 1))
    m = 0.5 * (m + m.mT)
    n = rng.uniform(0.1, 2.0, (b, k))[:, :, None] * np.eye(k)
    hi = 10.0 * np.abs(m).max(axis=(1, 2))
    lo = -hi
    root = [np.linalg.eigvalsh(mi / np.sqrt(np.diag(ni))[:, None] / np.sqrt(np.diag(ni))).min()
            for mi, ni in zip(m, n)]
    lo[1], hi[1] = root[1] - 10.0, root[1] - 1.0
    lo[2], hi[2] = root[2] + 1.0, root[2] + 10.0

    def probe(a, active):
        eig, vec = np.linalg.eigh(m[active] - a[:, None, None] * n[active])
        v = vec[:, :, 0]
        target = a + eig[:, 0] / np.einsum("bi,bij,bj->b", v, n[active], v)
        target[active == 0] = math.inf
        return eig[:, 0] >= 0, target

    def holds(a, active):
        return np.linalg.eigh(m[active] - a[:, None, None] * n[active])[0][:, 0] >= 0

    return probe, holds, lo, hi


class TestNewtonDescent:
    """The corrected value comes from a lockstep Newton descent, replayed
    through the bisection's midpoints (`_descend_sup`)."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_lockstep_equals_each_entry_alone(self, seed):
        """Every entry meets the probes and the replayed midpoints it meets
        descended alone, so its value is bitwise the same."""
        probe, holds, lo, hi = _pencils(seed)
        batch = _descend_sup(probe, holds, lo, hi)
        alone = [_descend_sup(lambda a, act, i=i: probe(a, np.full(act.size, i)),
                              lambda a, act, i=i: holds(a, np.full(act.size, i)), [lo[i]], [hi[i]])[0]
                 for i in range(lo.size)]
        assert np.array_equal(batch, alone)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_one_run_keeps_the_bisection_bits_with_fewer_tests(self, seed):
        """Where the test holds on one run below its edge, the replay answers
        every midpoint as the test would, so the value is the bisection's, bit
        for bit, and the probes and replay tests together are fewer than the
        bisection's midpoints."""
        probe, holds, lo, hi = _pencils(seed)
        tests = np.zeros(lo.size, dtype=int)

        def counted(f):
            def call(a, active):
                np.add.at(tests, active, 1)
                return f(a, active)
            return call

        descended = _descend_sup(counted(probe), counted(holds), lo, hi)
        by_descent, tests[:] = tests.copy(), 0
        assert np.array_equal(descended, _bisect_sup(counted(holds), lo, hi))
        assert descended[2] == lo[2] and by_descent[1] == 1
        # entries 0 and 2 descend by midpoints, to a finer stop than the bisection's
        assert by_descent[3:].sum() < 0.6 * tests[3:].sum(), (by_descent, tests)

    def test_eigensolve_budget(self, monkeypatch):
        """On the rho-scan-L160 operators and samples, `_estimate_rho_batch`
        hands at most 1300 matrices to `np.linalg.eigh`.  The bisection handed
        it 2076: 1921 midpoints and the 155 solves of the modes at the
        corrected values; the descent about 1070 probes, a few replay tests
        and the same 155."""
        ops, lambdas, eps = _golden_samples("rho-scan-L160")
        etas = [bump(lam, eps) for lam in lambdas]
        dec = eigendecompose(ops.H, [eta.window for eta in etas])
        matrices, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            matrices.append(a.shape[0] if a.ndim == 3 else 1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        ests = _estimate_rho_batch(ops, dec, ops.commutator_iHA, etas)
        assert sum(est is not None for est in ests) == 155
        assert sum(matrices) <= 1300, sum(matrices)

    @pytest.mark.parametrize("where", ["rho-scan-L160", "L40"])
    def test_a_shifted_bracket_moves_no_value(self, monkeypatch, scan_L40, where):
        """Shifting each eta's bracket (floor, top) by a random offset in
        [-0.5, 0.5] moves no corrected value beyond BISECT_TOL * max(1, |v|),
        on the rho-scan-L160 samples and on the L = 40 scan, where the
        bisection from the shifted bracket moved ten values by O(1)."""
        if where == "L40":
            ops, _, dec, etas, base = scan_L40
        else:
            ops, lambdas, eps = _golden_samples(where)
            dec, etas, base = _windowed_estimates(ops, lambdas, eps)
        rng, descend = np.random.default_rng(5), mourre._descend_sup

        def shifted(probe, holds, lo, hi):
            off = rng.uniform(-0.5, 0.5, len(lo))
            return descend(probe, holds, lo + off, hi + off)

        monkeypatch.setattr(mourre, "_descend_sup", shifted)
        moved = _estimate_rho_batch(ops, dec, ops.commutator_iHA, etas)
        for est, ref in zip(moved, base):
            if ref is not None:
                assert abs(est.corrected - ref.corrected) <= BISECT_TOL * max(1.0, abs(ref.corrected))

    @pytest.mark.parametrize("lam", [1.36, 1.30, 1.14])
    def test_reads_the_top_of_its_holding_set(self, scan_L40, lam):
        """On the L = 40 scan the corrected test holds on two runs at these
        lambda, and the bisection ended in the lower one (-0.864, -0.775 and
        -0.809).  The value now holds, and an 8001-point scan of the test over
        the bracket finds no holding a above it beyond BISECT_TOL * max(1, |v|)."""
        ops, lambdas, dec, etas, ests = scan_L40
        j = lambdas.index(min(lambdas, key=lambda x: abs(x - lam)))
        holds, top = _corrected_test(ops, dec, etas[j])
        v = ests[j].corrected
        grid = np.linspace(-top, top, 8001)
        ok = holds(grid)
        assert len(mourre._runs(ok)) == 2
        assert holds(np.array([v]))[0]
        assert not ok[grid > v + BISECT_TOL * max(1.0, abs(v))].any()

    def test_a_run_bounded_by_flag_flips_is_stepped_over(self, scan_L40):
        """The miss, pinned as it reads: at lambda = 1.76 on the L = 40 scan
        the upper holding run, whose top the 8001-point scan puts at -0.0048,
        is bounded by flag flips, and the Newton step from above lands below
        it.  The value is -2.0818, a holding point of the lower run."""
        ops, lambdas, dec, etas, ests = scan_L40
        j = lambdas.index(min(lambdas, key=lambda x: abs(x - 1.76)))
        holds, top = _corrected_test(ops, dec, etas[j])
        v = ests[j].corrected
        assert v == pytest.approx(-2.0818, abs=1e-4)
        assert holds(np.array([v]))[0]
        grid = np.linspace(-top, top, 8001)
        assert grid[holds(grid)].max() == pytest.approx(-0.0048, abs=1e-3)


def _corrected_test(ops, dec, eta):
    """(holds, top) for one eta: the estimator's corrected test on a 1-D array
    of a, on the compression of the eta's own support columns, and the top
    max |C_ij| + 1 of its bracket."""
    w = eta(dec.eigenvalues)
    cols = np.flatnonzero(support_mask(w))
    c, grams = _compress(dec.eigenvectors[:, cols], ops.commutator_iHA, ops.grid)
    ek = w[cols]
    m = ek[:, None] * c * ek[None, :]
    slack = mourre.PSD_RTOL * max(1.0, np.abs(m).max())

    def holds(a):
        eig, vec = np.linalg.eigh(m - a[:, None, None] * np.diag(ek**2))
        flags = _localization(vec, np.broadcast_to(grams, (a.size,) + grams.shape))[2]
        return np.where(flags, math.inf, eig).min(axis=1) >= -slack

    return holds, np.abs(c).max() + 1.0


@pytest.fixture(scope="module")
def scan_L40():
    """(ops, lambdas, dec, etas, estimates) of a rho scan at (L, n) = (40, 1601),
    lambda from -0.5 to 3.0 in steps of 0.02, eps = 0.1, where the corrected
    test holds on more than one run for 20 of the 155 eta."""
    ops = build_pair(make_steplike(make_grid(40.0, 1601), 0.0, 1.0))
    lambdas = [float(x) for x in np.arange(-0.5, 3.0 + 0.01, 0.02)]
    return (ops, lambdas) + _windowed_estimates(ops, lambdas, 0.1)


def test_corrected_test_is_not_monotone():
    """The corrected test holds on an interval of a, not below a supremum.
    On the rho-scan-L160 operators at lambda = 3.0, with the pairs of H in
    the window of eta, it fails at a = -5.3 (one flagged mode; the unflagged
    pencil has crossed), holds at 0, and holds at the corrected value, the
    upper edge of that interval, which the descent from the top of the
    bracket reaches and the bisection's midpoints replay."""
    ops = build_pair(make_steplike(make_grid(160.0, 1601), 0.0, 1.0))
    eta = bump(3.0, 0.1)
    dec = eigendecompose(ops.H, [eta.window])
    est = estimate_rho_eta(ops, dec, ops.commutator_iHA, eta)
    w = eta(dec.eigenvalues)
    assert w.size == 7 and np.all(w > 0)
    csub, grams = _compress(dec.eigenvectors, ops.commutator_iHA, ops.grid)
    m = w[:, None] * csub * w[None, :]
    slack = mourre.PSD_RTOL * max(1.0, np.abs(m).max())

    def holds(a):  # the estimator's corrected test, on one eta
        g = m - a * np.diag(w**2)
        eig, vec = np.linalg.eigh(0.5 * (g + g.conj().T))
        flags = _localization(vec[None], grams[None])[2][0]
        return bool(eig[~flags].min() >= -slack), int(flags.sum())

    assert holds(-5.3) == (False, 1)
    assert holds(0.0) == (True, 2)
    assert holds(est.corrected) == (True, est.n_discarded) == (True, 2)
    assert est.corrected == pytest.approx(3.98154, abs=1e-5)
    assert not holds(est.corrected + 2 * BISECT_TOL * est.corrected)[0]


class TestCompression:
    def test_region_grams_sum_row_slices(self, small_ops, dec_H):
        """The interaction region is one run of rows and the boundary region
        two; the Grams summed over their slices are those of the gathered rows."""
        x, L = np.abs(small_ops.grid.nodes), small_ops.grid.L
        masks = (x <= mourre.INTERACTION_RADIUS, x >= L - mourre.BOUNDARY_FRACTION * L)
        assert [len(mourre._runs(mask)) for mask in masks] == [1, 2]
        us = dec_H.eigenvectors[:, 30:70]
        _, grams = _compress(us, small_ops.commutator_iHA, small_ops.grid)
        for g, mask in zip(grams, masks):
            ref = us[mask].T @ us[mask]
            assert np.max(np.abs(g - ref)) <= ROUNDING_ULPS * small_ops.n * F64_EPS

    def test_memory_budget_per_window(self, monkeypatch):
        """On the rho-scan-L160 operators and samples, `_estimate_rho_batch`
        holds at most 2 blocks of n x w values, w the widest window of columns
        it compresses.  In row blocks a compression holds ROW_BLOCK x w scratch,
        and the scan peaks near 1.34 blocks; one n x w product, its
        per-diagonal temporary and a copy of the boundary rows took about 2.8."""
        ops, lambdas, eps = _golden_samples("rho-scan-L160")
        etas = [bump(lam, eps) for lam in lambdas]
        dec = eigendecompose(ops.H, [eta.window for eta in etas])
        widths, compress_window = [], mourre._compress

        def spy(us, comm, grid):
            widths.append(us.shape[1])
            return compress_window(us, comm, grid)

        monkeypatch.setattr(mourre, "_compress", spy)
        _estimate_rho_batch(ops, dec, ops.commutator_iHA, etas)  # warm-up: imports are not traced
        tracemalloc.start()
        try:
            _estimate_rho_batch(ops, dec, ops.commutator_iHA, etas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = ops.n * max(widths) * np.dtype(float).itemsize
        assert peak <= 2 * block, peak / block


class TestEtaEstimate:
    def test_raw_not_above_corrected(self, small_ops, dec_H):
        est = estimate_rho_eta(small_ops, dec_H, small_ops.commutator_iHA, bump(0.5, 0.2))
        assert est.raw_min <= est.corrected + 1e-9

    def test_eta_off_spectrum_rejected(self, small_ops, dec_H):
        with pytest.raises(ValueError):
            estimate_rho_eta(small_ops, dec_H, small_ops.commutator_iHA, bump(-50.0, 0.1))

    def test_estimator_and_support_share_one_rule(self, small_ops):
        # a weight 0 < eta <= 1e-12 max eta leaves the column out of both
        dec = eigendecompose(small_ops.H, [EnergyWindow(0.5, 0.3)])
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
        ops = build_pair(make_steplike(g, 0.0, 1.0))
        eta = bump(0.14, 0.1)
        dec = eigendecompose(ops.H, [EnergyWindow(0.14, 0.1)])
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
        from mourre_lab.grid import make_grid, make_steplike
        from mourre_lab.operators import build_pair
        from mourre_lab.spectral import dirichlet_decomposition

        g = make_grid(80.0, 801)
        ops = build_pair(make_steplike(g, 0.0, 0.0))
        dec_m = dirichlet_decomposition(g.n, g.dx, 0.0)
        est = estimate_rho_eta(ops, dec_m, ops.commutator_iH0A0, bump(1.0, 0.3))
        assert est.corrected > 1.0
        assert est.raw_min < 0  # the finite-box virial keeps the raw value down

    def test_fixed_eps_lies_between_the_closed_forms_at_lambda_and_lambda_minus_eps(
            self, monkeypatch):
        """What a fixed eps measures: at lambda = 0.5, eps = 0.1 (L = 160, n = 1601)
        the corrected rho lies strictly between rho0(lambda - eps) = 0.8 and
        rho0(lambda) = 1.0 (0.8753), since a mode at lambda + u eps is accepted
        once eta(u)^2 (rho0 - a) >= -PSD_RTOL ||eta M eta||.  A tighter PSD slack
        moves it toward rho0(lambda - eps) (0.8502 at 1e-4, 0.8277 at 1e-5), with
        the same one mode discarded."""
        ops = build_pair(make_steplike(make_grid(160.0, 1601), 0.0, 1.0))
        eta = bump(0.5, 0.1)
        dec = eigendecompose(ops.H, [eta.window])
        below, at = (analytic_rho(0.0, 1.0, lam) for lam in (0.4, 0.5))
        assert (below, at) == pytest.approx((0.8, 1.0), rel=1e-12)
        values = []
        for rtol in (mourre.PSD_RTOL, 1e-4, 1e-5):
            monkeypatch.setattr(mourre, "PSD_RTOL", rtol)
            est = estimate_rho_eta(ops, dec, ops.commutator_iHA, eta)
            assert est.n_discarded == 1
            values.append(est.corrected)
        assert below < values[2] < values[1] < values[0] < at


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
        ops = build_pair(pot)
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


@pytest.fixture(scope="module")
def well_801():
    """Criterion 8's well at L = 40, n = 801: its bound state lies near -0.84."""
    g = make_grid(40.0, 801)
    return build_pair(make_steplike(g, 0.0, 1.0, bump=-2.0 * bump(0.0, 2.0)(g.nodes)))


class TestTransfer:
    def test_threshold_samples_excluded(self, small_ops):
        rep = transfer_verify(small_ops, [0.5, 1.05], 0.1, 5.0)
        assert rep.excluded == [1.05]
        assert rep.lambda_samples == [0.5]

    def test_every_sample_excluded_is_an_error(self, small_ops):
        # a run that checks no sample has no verdict to give
        with pytest.raises(ValueError, match=r"excluded \[0.05, 1.02\] at eps=0.1"):
            transfer_verify(small_ops, [0.05, 1.02], 0.1, 0.2)

    def test_only_samples_below_the_spectrum_is_an_error(self, well_801):
        # rho0 = +inf below both thresholds, so no margin is finite and nothing is checked
        with pytest.raises(ValueError, match=r"\[-0.84\] lies below both thresholds"):
            transfer_verify(well_801, [-0.84], 0.1, 0.2)

    def test_sample_below_the_spectrum_beside_a_checked_one(self, well_801):
        rep = transfer_verify(well_801, [-0.84, 0.5], 0.1, 0.2)
        assert math.isnan(rep.margins[0]) and math.isfinite(rep.margins[1])

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
        from the tails solve on the eta windows that transfer_verify runs."""
        lambdas, eps = [0.3, 0.5, 1.5, 2.0], 0.1
        rep = transfer_verify(small_ops, lambdas, eps, 0.2)
        lo, hi = min(lambdas) - eps, max(lambdas) + eps
        dec_win = eigendecompose(small_ops.H, [_window(lo, hi)])

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
    """The windows mourre passes to eigendecompose, one list per call, in call order."""
    calls = []

    def recording(op, windows=None):
        calls.append(windows)
        return eigendecompose(op, windows)

    monkeypatch.setattr(mourre, "eigendecompose", recording)
    return calls


def _window(lo, hi):
    """The window of the open interval (lo, hi)."""
    return EnergyWindow(0.5 * (lo + hi), 0.5 * (hi - lo))


class TestSupportRuns:
    """The scan and the transfer check take the eigenpairs of H on the union
    of the eta supports: one `eigendecompose` call on the windows of their eta,
    unmerged and in sample order, which returns each pair once."""

    def test_transfer_one_call_on_the_eta_windows(self, small_ops, monkeypatch):
        calls = _record_windows(monkeypatch)
        lambdas, eps = [0.3, 0.5, 1.5, 2.0], 0.1
        transfer_verify(small_ops, lambdas, eps, 0.2)
        assert calls == [[EnergyWindow(lam, eps) for lam in lambdas]]

    @pytest.mark.parametrize("lambdas, eps", [
        ([0.25 + 0.15 * j for j in range(12)], 0.1),  # step 0.15 < 2 eps
        ([2.0, 0.2, 1.1, 0.65, 1.55], 0.25),           # unsorted, step 0.45 < 2 eps
        ([0.7, 0.5], 0.1)])                            # supports that only touch
    def test_overlapping_supports_give_the_span(self, small_ops, monkeypatch, lambdas, eps):
        calls = _record_windows(monkeypatch)
        dec = _windowed_estimates(small_ops, lambdas, eps)[0]
        assert calls == [[EnergyWindow(lam, eps) for lam in lambdas]]
        span = eigendecompose(small_ops.H, [_window(min(lambdas) - eps, max(lambdas) + eps)])
        assert dec.eigenvalues.size == span.eigenvalues.size > 0
        assert np.max(np.abs(dec.eigenvalues - span.eigenvalues)) <= 1e-12

    def test_union_is_the_span_masked_to_the_supports(self, small_ops):
        lambdas, eps = [2.0, 0.3, 1.5, 0.5, 0.7, 2.3], 0.1
        dec = _windowed_estimates(small_ops, lambdas, eps)[0]
        lo, hi = min(lambdas) - eps, max(lambdas) + eps
        span = eigendecompose(small_ops.H, [_window(lo, hi)])
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
        "from mourre_lab import (build_pair, make_grid, make_steplike, rho_scan,\n"
        "                        transfer_verify)\n"
        "g = make_grid(10.0, 101)\n"
        "ops = build_pair(make_steplike(g, 0.0, 1.0))\n"
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
