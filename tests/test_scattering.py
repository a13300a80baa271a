import dataclasses
import math

import numpy as np
import pytest

from conftest import channel_bases, well_bump
from mourre_lab import scattering
from mourre_lab.grid import make_cutoffs, make_grid, make_steplike
from mourre_lab.operators import build_pair
from mourre_lab.scattering import (
    completeness_probe,
    gaussian_averaged_oracle,
    make_channel_packet,
    scattering_coefficients,
    sharp_step_oracle,
    wave_operator_probe,
)
from mourre_lab.spectral import eigendecompose, propagate, scattering_projector

F64_EPS = np.finfo(float).eps
ROUNDING_ULPS = 16.0  # as in test_golden: an eigenbasis is orthonormal to a modest multiple of n*eps


@pytest.fixture(scope="module")
def box():
    g = make_grid(40.0, 801)
    cut = make_cutoffs(g)
    pot = make_steplike(g, 0.0, 1.0, profile="sharp_step")
    ops = build_pair(g, pot, cut)
    return ops, eigendecompose(ops.H)


@pytest.fixture(scope="module")
def well_box():
    """A smooth step with a well deep enough to bind a state below the spectrum of H0."""
    g = make_grid(40.0, 801)
    pot = make_steplike(g, 0.0, 1.0, bump=well_bump(g, -2.0, 2.0))
    ops = build_pair(g, pot, make_cutoffs(g))
    return ops, eigendecompose(ops.H)


def _outgoing(ops):
    pk = make_channel_packet(ops.grid, "+", 10.0, 1.5, 2.0)
    psi = ops.apply_J(pk.phi_minus, pk.phi_plus)
    return psi / (math.sqrt(ops.grid.dx) * np.linalg.norm(psi))


def _bound_state(ops, dec_H):
    bs = dec_H.eigenvectors[:, 0].astype(complex)
    return bs / (math.sqrt(ops.grid.dx) * np.linalg.norm(bs))


@pytest.fixture(scope="module")
def free_box():
    g = make_grid(40.0, 801)
    cut = make_cutoffs(g)
    pot = make_steplike(g, 0.0, 0.0)
    ops = build_pair(g, pot, cut)
    return ops, eigendecompose(ops.H)


class TestPackets:
    def test_normalized_single_channel(self):
        g = make_grid(40.0, 801)
        pk = make_channel_packet(g, "-", -25.0, 1.2, 3.0)
        assert pk.norm() == pytest.approx(1.0, rel=1e-12)
        assert np.all(pk.phi_plus == 0.0)

    def test_support_guard(self):
        g = make_grid(40.0, 801)
        with pytest.raises(ValueError):
            make_channel_packet(g, "-", -30.0, 1.2, 3.0)

    def test_channel_side_guard(self):
        g = make_grid(40.0, 801)
        with pytest.raises(ValueError):
            make_channel_packet(g, "-", 10.0, 1.2, 3.0)
        with pytest.raises(ValueError):
            make_channel_packet(g, "+", -10.0, 1.2, 3.0)

    def test_zero_momentum_rejected(self):
        g = make_grid(40.0, 801)
        with pytest.raises(ValueError):
            make_channel_packet(g, "-", -20.0, 0.0, 3.0)

    def test_mean_energy(self, free_box):
        ops, _ = free_box
        g = ops.grid
        k0, sigma = 1.2, 3.0
        pk = make_channel_packet(g, "-", -20.0, k0, sigma)
        h = ops.channel_hamiltonian("-")
        mean = g.dx * np.real(pk.phi_minus.conj() @ (h @ pk.phi_minus))
        # Gaussian closed form: <k^2> = k0^2 + 1/(4 sigma^2)
        assert mean == pytest.approx(k0**2 + 1.0 / (4 * sigma**2), abs=5e-3)


class TestOracles:
    def test_sharp_step_closed_form(self):
        c = sharp_step_oracle(2.0, 0.0, 1.0)
        k, kp = math.sqrt(2.0), 1.0
        assert c.reflection == pytest.approx(((k - kp) / (k + kp)) ** 2, rel=1e-14)
        assert c.reflection == pytest.approx(0.029437251522859434, rel=1e-10)
        assert c.transmission == pytest.approx(0.970562748477141, rel=1e-10)
        assert c.flux_defect < 1e-14

    def test_no_step_no_reflection(self):
        c = sharp_step_oracle(2.0, 0.7, 0.7)
        assert c.reflection == 0.0 and c.transmission == 1.0

    def test_closed_channel_rejected(self):
        with pytest.raises(ValueError):
            sharp_step_oracle(0.5, 0.0, 1.0)

    def test_reflection_decreases_with_energy(self):
        rs = [sharp_step_oracle(lam, 0.0, 1.0).reflection for lam in (2.0, 4.0, 8.0)]
        assert rs[0] > rs[1] > rs[2]

    def test_gaussian_averaging_converges_to_sharp(self):
        sharp = sharp_step_oracle(2.0, 0.0, 1.0)
        wide = gaussian_averaged_oracle(2.0, 0.0, 1.0, sigma=50.0)
        assert wide.reflection == pytest.approx(sharp.reflection, abs=1e-4)

    def test_gaussian_averaging_unitary(self):
        avg = gaussian_averaged_oracle(2.0, 0.0, 1.0, sigma=3.0)
        assert avg.flux_defect < 1e-6


class TestScatteringCoefficients:
    def test_free_transmission(self, free_box):
        ops, dec_H = free_box
        c = scattering_coefficients(ops, dec_H, 2.0)
        assert c.reflection < 0.01
        assert c.transmission == pytest.approx(1.0, abs=0.01)

    def test_sharp_step_matches_averaged_oracle(self, box):
        ops, dec_H = box
        c = scattering_coefficients(ops, dec_H, 2.0)
        avg = gaussian_averaged_oracle(2.0, 0.0, 1.0, sigma=3.0)
        assert abs(c.reflection - avg.reflection) < 0.02
        assert abs(c.transmission - avg.transmission) < 0.02
        assert c.flux_defect < 1e-2

    def test_closed_channel_rejected(self, box):
        ops, dec_H = box
        with pytest.raises(ValueError, match="closed channel"):
            scattering_coefficients(ops, dec_H, 0.5)


class TestWaveOperatorProbe:
    def test_free_identity_case(self, free_box):
        # with v == 0 the glued evolution matches the channel evolution, so
        # the approximant stays at the embedded packet
        ops, dec_H = free_box
        pk = make_channel_packet(ops.grid, "+", 15.0, 1.0, 3.0)
        times = np.linspace(0.0, 4.0, 9)
        rep = wave_operator_probe(ops, dec_H, pk, "+", times)
        emb = ops.apply_J(pk.phi_minus, pk.phi_plus)
        defect = math.sqrt(ops.grid.dx * np.sum(np.abs(rep.image - emb) ** 2))
        assert defect < 0.02
        assert rep.isometry_ratio == pytest.approx(1.0, abs=0.03)

    def test_step_isometry(self, box):
        ops, dec_H = box
        pk = make_channel_packet(ops.grid, "-", -20.0, 1.5, 3.0)
        times = np.linspace(0.0, 1.6, 9)
        rep = wave_operator_probe(ops, dec_H, pk, "-", times)
        assert 0.97 <= rep.isometry_ratio <= 1.03

    def test_no_admissible_time_raises(self, box):
        ops, dec_H = box
        pk = make_channel_packet(ops.grid, "-", -20.0, 1.5, 3.0)
        # at every sampled time the packet bulk sits within 5 sigma of +L
        # (group velocity 2 k0 = 3, so the center is past x = 28 by t = 16)
        with pytest.raises(RuntimeError, match="increase L"):
            wave_operator_probe(ops, dec_H, pk, "+", [16.0, 17.0, 18.0, 19.0])

    def test_invalid_direction(self, box):
        ops, dec_H = box
        pk = make_channel_packet(ops.grid, "-", -20.0, 1.5, 3.0)
        with pytest.raises(ValueError):
            wave_operator_probe(ops, dec_H, pk, "0", [0.0, 1.0])

    def test_packet_without_width_rejected(self, box):
        # the boundary guard is 5 sigma, so a packet without sigma has none
        ops, dec_H = box
        pk = dataclasses.replace(make_channel_packet(ops.grid, "-", -20.0, 1.5, 3.0), sigma=None)
        with pytest.raises(ValueError, match="sigma"):
            wave_operator_probe(ops, dec_H, pk, "-", np.linspace(0.0, 1.6, 9))


class TestCompletenessProbe:
    def test_outgoing_packet_passes(self, box):
        ops, dec_H = box
        rep = completeness_probe(ops, dec_H, _outgoing(ops), np.linspace(0.0, 8.0, 17))
        assert rep.verdict
        assert min(rep.froufrou_norms) < 0.05
        assert min(rep.converse_norms) < 0.05
        assert rep.range_defect < 0.05

    def test_bound_state_fails(self, well_box):
        ops, dec_H = well_box
        assert dec_H.eigenvalues[0] < -0.1  # a genuine bound state exists
        rep = completeness_probe(ops, dec_H, _bound_state(ops, dec_H), np.linspace(0.0, 8.0, 17))
        assert not rep.verdict
        assert min(rep.froufrou_norms) > 0.5

    @pytest.mark.parametrize("case", ["outgoing", "bound-state"])
    def test_range_defect_from_one_propagation(self, box, well_box, monkeypatch, case):
        """The probe propagates once, and its range defect, read from the best
        glued column g, equals that of the image e^{itH} g built from g by the
        closed-form channel bases, one propagation by H and the projector."""
        ops, dec_H = box if case == "outgoing" else well_box
        psi = _outgoing(ops) if case == "outgoing" else _bound_state(ops, dec_H)
        times = np.linspace(0.0, 8.0, 17)
        calls = []

        def counted(*args):
            calls.append(args)
            return propagate(*args)

        monkeypatch.setattr(scattering, "propagate", counted)
        rep = completeness_probe(ops, dec_H, psi, times)
        assert len(calls) == 1

        t = times[int(np.argmin(np.where(rep.admissible, rep.froufrou_norms, np.inf)))]
        fm, fp = ops.apply_J_star(psi)
        dec_m, dec_p = channel_bases(ops)
        g = ops.apply_J(propagate(dec_m, fm, [t])[:, 0], propagate(dec_p, fp, [t])[:, 0])
        image = propagate(dec_H, g, [-t])[:, 0]
        pot = ops.potential
        low = image - scattering_projector(dec_H, image, min(pot.v_minus, pot.v_plus))
        ref = _l2_one(ops.grid, low) / _l2_one(ops.grid, image)
        assert abs(rep.range_defect - ref) <= _rounding(ops.n) * max(1.0, ref)


class TestChainRule:
    def test_composition_consistency(self, box):
        # the JJ*-approximant agrees with the composition of the J- and
        # J*-approximants evaluated at different stabilization times
        ops, dec_H = box
        g = ops.grid
        pk = make_channel_packet(g, "+", 10.0, 1.5, 2.0)
        psi = ops.apply_J(pk.phi_minus, pk.phi_plus)
        psi /= math.sqrt(g.dx) * np.linalg.norm(psi)
        t1, t2 = 2.0, 3.0
        dec_m, dec_p = channel_bases(ops)

        def approx_jjstar(t):
            ev = propagate(dec_H, psi, [t])
            fm, fp = ops.apply_J_star(ev[:, 0])
            return propagate(dec_H, ops.apply_J(fm, fp), [-t])

        def approx_composed(t_a, t_b):
            # inner: J* probe toward H0; outer: J probe back toward H
            ev = propagate(dec_H, psi, [t_a])
            fm, fp = ops.apply_J_star(ev[:, 0])
            fm = propagate(dec_m, fm, [t_b - t_a])
            fp = propagate(dec_p, fp, [t_b - t_a])
            return propagate(dec_H, ops.apply_J(fm, fp), [-t_b])

        direct = approx_jjstar(t1)
        composed = approx_composed(t1, t2)
        diff = math.sqrt(g.dx * np.sum(np.abs(direct - composed) ** 2))
        assert diff < 0.05


# The per-time loops that the blocked probes replaced, kept as references:
# one propagation per time, channels moved in their closed-form sine basis.

def _propagate_one(dec, state, t):
    u = dec.eigenvectors
    return u @ (np.exp(-1j * t * dec.eigenvalues) * (u.T @ state))


def _l2_one(grid, vec):
    return math.sqrt(grid.dx * float(np.sum(np.abs(vec) ** 2)))


def _bulk_radius_one(grid, density, fraction=0.99):
    total = density.sum()
    if total == 0:
        return 0.0
    order = np.argsort(np.abs(grid.nodes))
    cum = np.cumsum(density[order]) / total
    idx = min(np.searchsorted(cum, fraction), grid.n - 1)
    return float(np.abs(grid.nodes[order][idx]))


def _loop_wave_probe(ops, dec_H, packet, direction, times):
    sign = 1.0 if direction == "+" else -1.0
    grid, (dec_m, dec_p) = ops.grid, channel_bases(ops)
    guard = 5 * packet.sigma

    def free(t):
        return (_propagate_one(dec_m, packet.phi_minus, t),
                _propagate_one(dec_p, packet.phi_plus, t))

    approximants, margins = [], []
    for tau in times:
        pm, pp = free(sign * tau)
        density = grid.dx * (np.abs(pm) ** 2 + np.abs(pp) ** 2)
        margins.append(grid.L - _bulk_radius_one(grid, density, fraction=0.5))
        approximants.append(_propagate_one(dec_H, ops.apply_J(pm, pp), -sign * tau))
    admissible = [m >= guard for m in margins]
    cauchy = [_l2_one(grid, approximants[k + 1] - approximants[k])
              for k in range(len(times) - 1)]
    best = None
    for k in range(len(times) - 1):
        if admissible[k] and admissible[k + 1] and (best is None or cauchy[k] < cauchy[best]):
            best = k
    image = approximants[best + 1]
    p0_sq = 0.0
    for dec, phi, v in ((dec_m, packet.phi_minus, ops.potential.v_minus),
                        (dec_p, packet.phi_plus, ops.potential.v_plus)):
        u = dec.eigenvectors[:, dec.eigenvalues > v + 0.01]
        p0_sq += grid.dx * float(np.sum(np.abs(u @ (u.T @ phi)) ** 2))
    defects = []
    for tau in times:
        pm, pp = free(sign * tau)
        defects.append(_l2_one(grid, _propagate_one(dec_H, image, sign * tau)
                               - ops.apply_J(pm, pp)))
    return {"defects": defects, "cauchy_ladder": cauchy, "boundary_margins": margins,
            "admissible": admissible, "best_time": sign * times[best + 1],
            "isometry_ratio": _l2_one(grid, image) / math.sqrt(p0_sq), "image": image}


def _loop_scattering(ops, dec_H, lam, x0=-25.0, sigma=3.0, capture_radius=4.0):
    """(reflection, transmission, columns scanned before the boundary stop)."""
    grid, pot = ops.grid, ops.potential
    k0 = math.sqrt(lam - pot.v_minus)
    packet = make_channel_packet(grid, "-", x0, k0, sigma)
    psi0 = ops.cutoffs.j_minus * packet.phi_minus
    psi0 = psi0 / _l2_one(grid, psi0)
    kp = math.sqrt(lam - pot.v_plus)
    max_time = (abs(x0) + capture_radius + 6 * sigma) / (2 * min(k0, kp))
    x = grid.nodes
    mid, left, right = np.abs(x) <= capture_radius, x < -capture_radius, x > capture_radius
    best, peak, scanned = None, 0.0, 0
    for t in np.linspace(0.0, max_time, 60)[1:]:
        dens = grid.dx * np.abs(_propagate_one(dec_H, psi0, t)) ** 2
        if grid.L - _bulk_radius_one(grid, dens) < 2.0:
            break
        scanned += 1
        mid_mass = float(dens[mid].sum())
        peak = max(peak, mid_mass)
        if peak > 0.05 and mid_mass < 0.5 * peak and (best is None or mid_mass < best[1]):
            best = (t, mid_mass, dens)
    assert best is not None and best[1] <= 0.01
    return float(best[2][left].sum()), float(best[2][right].sum()), scanned


@pytest.fixture(scope="module")
def step_321():
    g = make_grid(40.0, 321)
    ops = build_pair(g, make_steplike(g, 0.0, 1.0, profile="sharp_step"), make_cutoffs(g))
    return ops, eigendecompose(ops.H)


def _rounding(n):
    return ROUNDING_ULPS * n * F64_EPS


class TestBlockedProbesMatchLoops:
    @pytest.mark.parametrize("channel,x0,k0,direction,times", [
        ("-", -20.0, 1.5, "-", np.linspace(0.0, 1.6, 9)),
        ("-", -20.0, 1.5, "+", np.linspace(0.0, 16.0, 17)),  # the bulk nears +L late
        # v_plus = 1 gives the channel phase weight; a slow packet weights the modes
        # that the initial-set projection drops
        ("+", 20.0, 0.1, "-", np.linspace(0.0, 1.6, 9)),
    ])
    def test_wave_operator_probe(self, step_321, channel, x0, k0, direction, times):
        ops, dec_H = step_321
        pk = make_channel_packet(ops.grid, channel, x0, k0, 3.0)
        rep = wave_operator_probe(ops, dec_H, pk, direction, times)
        ref = _loop_wave_probe(ops, dec_H, pk, direction, times)
        tol = _rounding(ops.n)
        assert rep.boundary_margins == ref["boundary_margins"]
        assert rep.admissible == ref["admissible"]
        assert rep.best_time == ref["best_time"]
        for key in ("defects", "cauchy_ladder"):
            assert np.max(np.abs(np.subtract(getattr(rep, key), ref[key]))) <= tol
        assert rep.isometry_ratio == pytest.approx(ref["isometry_ratio"], abs=tol)
        assert np.max(np.abs(rep.image - ref["image"])) <= tol
        if direction == "+":
            assert not all(rep.admissible)

    def test_scattering_coefficients(self, step_321):
        # the ladder reaches the boundary before its last time (59 later times)
        ops, dec_H = step_321
        refl, trans, scanned = _loop_scattering(ops, dec_H, 2.0)
        assert scanned == 50
        c = scattering_coefficients(ops, dec_H, 2.0)
        tol = _rounding(ops.n)
        assert c.reflection == pytest.approx(refl, abs=tol)
        assert c.transmission == pytest.approx(trans, abs=tol)
