import math
import tracemalloc

import numpy as np
import pytest

from conftest import channel_bases
from mourre_lab import scattering
from mourre_lab.grid import make_grid, make_steplike, sharp_step, smooth_step
from mourre_lab.operators import Band, build_pair
from mourre_lab.scattering import (
    completeness_probe,
    continuum_oracle,
    gaussian_averaged_oracle,
    make_channel_packet,
    outgoing_band,
    outgoing_root,
    scattering_coefficients,
    stationary_coefficients,
    wave_operator_probe,
)
from mourre_lab.spectral import (
    bump,
    eigendecompose,
    propagate,
    resolvent,
    scattering_projector,
)

F64_EPS = np.finfo(float).eps
ROUNDING_ULPS = 16.0  # as in test_golden: an eigenbasis or a banded solve rounds to a few n*eps


def _l2_one(grid, vec):
    return math.sqrt(grid.dx * float(np.sum(np.abs(vec) ** 2)))


def _rounding(n):
    return ROUNDING_ULPS * n * F64_EPS


def _well_ops(L, n):
    """Criterion 8's well: the smooth step 0 -> 1 plus -2 bump(0, 2), deep enough
    to bind a state below the spectrum of H0."""
    g = make_grid(L, n)
    return build_pair(make_steplike(g, 0.0, 1.0, bump=-2.0 * bump(0.0, 2.0)(g.nodes)))


@pytest.fixture(scope="module")
def box():
    g = make_grid(40.0, 801)
    ops = build_pair(make_steplike(g, 0.0, 1.0, profile="sharp_step"))
    return ops, eigendecompose(ops.H)


@pytest.fixture(scope="module")
def well_box():
    ops = _well_ops(40.0, 801)
    return ops, eigendecompose(ops.H)


def _outgoing(ops):
    return make_channel_packet(ops, 10.0, 1.5, 2.0)


def _bound_state(ops, dec_H):
    bs = dec_H.eigenvectors[:, 0].astype(complex)
    return bs / (math.sqrt(ops.grid.dx) * np.linalg.norm(bs))


def _best_time(rep, times, n):
    """The probe's best time: the first admissible one whose forward norm is
    within 16 n eps of the smallest admissible forward norm."""
    scores = np.where(rep.admissible, rep.froufrou_norms, np.inf)
    return times[np.flatnonzero(scores <= scores.min() + _rounding(n))[0]]


@pytest.fixture(scope="module")
def free_box():
    g = make_grid(40.0, 801)
    return build_pair(make_steplike(g, 0.0, 0.0))


class TestPackets:
    def test_normalized_single_channel(self, free_box):
        """J glues the Gaussian into the channel on the side of x0: the state has
        unit norm and is exactly 0 where that channel's cutoff is (x >= -1)."""
        ops = free_box
        psi = make_channel_packet(ops, -25.0, 1.2, 3.0)
        assert _l2_one(ops.grid, psi) == pytest.approx(1.0, rel=1e-12)
        assert np.all(psi[ops.grid.nodes >= -1.0] == 0.0)

    def test_support_guard(self, free_box):
        with pytest.raises(ValueError, match="boundary"):
            make_channel_packet(free_box, -30.0, 1.2, 3.0)

    def test_channel_side_guard(self, free_box):
        # the side of x0 picks the channel, and x0 must lie in its flat region
        for x0 in (-4.0, 0.0, 4.0):
            with pytest.raises(ValueError, match="flat region"):
                make_channel_packet(free_box, x0, 1.2, 3.0)

    def test_zero_momentum_rejected(self, free_box):
        with pytest.raises(ValueError, match="momentum"):
            make_channel_packet(free_box, -20.0, 0.0, 3.0)

    def test_mean_energy(self, free_box):
        ops = free_box
        k0, sigma = 1.2, 3.0
        psi = make_channel_packet(ops, -20.0, k0, sigma)
        h = ops.channel_hamiltonian("-")
        mean = ops.grid.dx * np.real(psi.conj() @ (h @ psi))
        # Gaussian closed form: <k^2> = k0^2 + 1/(4 sigma^2)
        assert mean == pytest.approx(k0**2 + 1.0 / (4 * sigma**2), abs=5e-3)


def _sharp(x, v_minus=0.0, v_plus=1.0):
    """V of the sharp step, as the continuum oracle reads it."""
    return sharp_step(x, v_minus, v_plus)[0]


def _sharp_oracle(lam, v_minus=0.0, v_plus=1.0):
    """The sharp step's oracle: `continuum_oracle` at its reach 0."""
    return continuum_oracle(lam, v_minus, v_plus, lambda x: _sharp(x, v_minus, v_plus), 0.0)


def _sharp_averaged(lam, sigma=3.0):
    return gaussian_averaged_oracle(lam, 0.0, 1.0, sigma, _sharp, 0.0)


class TestOracles:
    """At reach 0 `continuum_oracle` takes no RK4 step: the sharp step's R and T
    are the plane-wave matching at x = 0."""

    @pytest.mark.parametrize("v_minus,v_plus", [(0.0, 1.0), (1.0, 0.0), (0.3, 0.7),
                                                (0.7, 0.7)])
    def test_reach_zero_is_plane_wave_matching(self, v_minus, v_plus):
        """Incoming momentum k, outgoing k': R = ((k - k') / (k + k'))^2 and
        T = 4 k k' / (k + k')^2, over E in (1, 50]."""
        for lam in np.linspace(1.0, 50.0, 99)[1:]:
            c = _sharp_oracle(lam, v_minus, v_plus)
            k, kp = math.sqrt(lam - v_minus), math.sqrt(lam - v_plus)
            assert abs(c.reflection - ((k - kp) / (k + kp)) ** 2) <= 1e-15
            assert abs(c.transmission - 4 * k * kp / (k + kp) ** 2) <= 1e-15

    def test_sharp_step_closed_form(self):
        c = _sharp_oracle(2.0)
        k, kp = math.sqrt(2.0), 1.0
        assert c.reflection == pytest.approx(((k - kp) / (k + kp)) ** 2, rel=1e-14)
        assert c.reflection == pytest.approx(0.029437251522859434, rel=1e-10)
        assert c.transmission == pytest.approx(0.970562748477141, rel=1e-10)
        assert c.flux_defect < 1e-14

    def test_no_step_no_reflection(self):
        c = _sharp_oracle(2.0, 0.7, 0.7)
        assert c.reflection == 0.0 and c.transmission == 1.0

    def test_closed_channel_rejected(self):
        with pytest.raises(ValueError):
            _sharp_oracle(0.5)

    def test_reflection_decreases_with_energy(self):
        rs = [_sharp_oracle(lam).reflection for lam in (2.0, 4.0, 8.0)]
        assert rs[0] > rs[1] > rs[2]

    def test_gaussian_averaging_converges_to_sharp(self):
        sharp = _sharp_oracle(2.0)
        wide = _sharp_averaged(2.0, sigma=50.0)
        assert wide.reflection == pytest.approx(sharp.reflection, abs=1e-4)

    def test_gaussian_averaging_unitary(self):
        avg = _sharp_averaged(2.0)
        assert avg.flux_defect < 1e-6


def _smooth(x):
    """V of the smooth step 0 -> 1, as the continuum oracle reads it."""
    return smooth_step(x, 0.0, 1.0)[0]


class TestContinuumOracle:
    """R and T of the continuum potential by RK4, the oracle of a smooth profile."""

    def test_lattice_converges_at_second_order(self):
        """The smooth step at lambda = 2, sigma = 3 (the default scatter config) on
        L = 8 at dx = 0.05, 0.025 and 0.0125: the stationary solve is the infinite
        lattice, so its error against the continuum is the O(dx^2) of the
        stencil, and halving dx divides it by 4."""
        cont = gaussian_averaged_oracle(2.0, 0.0, 1.0, 3.0, _smooth, 1.0)
        assert cont.reflection == pytest.approx(0.0228610734, abs=1e-10)
        errors = []
        for n in (321, 641, 1281):
            c = scattering_coefficients(_step_ops(n, L=8.0, profile="smooth_step"), 2.0, 3.0)
            errors.append((c.reflection - cont.reflection, c.transmission - cont.transmission))
        errors = np.array(errors)
        ratios = errors[:-1] / errors[1:]
        assert np.all((ratios > 3.5) & (ratios < 4.5)), ratios
        assert np.abs(errors[-1]).max() < 1e-7

    def test_bump_case(self):
        """A bump of amplitude 0.5 and width 2 reaches past the step: the oracle
        integrates across |x| <= 2 and the lattice at dx = 0.025 agrees to O(dx^2),
        while the bump moves R by more than 0.05."""
        def with_bump(x):
            return _smooth(x) + 0.5 * bump(0.0, 2.0)(x)

        cont = gaussian_averaged_oracle(2.0, 0.0, 1.0, 3.0, with_bump, 2.0)
        g = make_grid(8.0, 641)
        ops = build_pair(make_steplike(g, 0.0, 1.0, bump=0.5 * bump(0.0, 2.0)(g.nodes)))
        c = scattering_coefficients(ops, 2.0, 3.0)
        assert abs(c.reflection - cont.reflection) < 5e-6
        assert abs(c.transmission - cont.transmission) < 5e-6
        plain = gaussian_averaged_oracle(2.0, 0.0, 1.0, 3.0, _smooth, 1.0)
        assert cont.reflection - plain.reflection > 0.05

    def test_flat_potential_transmits(self):
        c = continuum_oracle(2.0, 0.7, 0.7, lambda x: np.full_like(x, 0.7), 1.0)
        assert c.reflection < 1e-24 and c.transmission == pytest.approx(1.0, abs=1e-12)

    def test_flux_conserved_across_energies(self):
        for lam in (1.05, 2.0, 8.0):
            assert continuum_oracle(lam, 0.0, 1.0, _smooth, 1.0).flux_defect < 1e-12

    def test_approaches_the_sharp_step_as_it_narrows(self):
        """V rising over [-d, d]: as d -> 0 the continuum R tends to the sharp step's."""
        sharp = _sharp_oracle(2.0).reflection
        gaps = [abs(continuum_oracle(2.0, 0.0, 1.0, lambda x, d=d: _smooth(x / d), 1.0)
                    .reflection - sharp) for d in (0.2, 0.05)]
        assert gaps[1] < gaps[0] and gaps[1] < 1e-3

    def test_closed_channel_rejected(self):
        with pytest.raises(ValueError, match="closed channel"):
            continuum_oracle(0.5, 0.0, 1.0, _smooth, 1.0)


def _step_ops(n, v_minus=0.0, v_plus=1.0, L=40.0, profile="sharp_step"):
    g = make_grid(L, n)
    return build_pair(make_steplike(g, v_minus, v_plus, profile=profile))


class TestScatteringCoefficients:
    def test_free_transmission(self, free_box):
        ops = free_box
        c = scattering_coefficients(ops, 2.0)
        assert c.reflection < 0.01
        assert c.transmission == pytest.approx(1.0, abs=0.01)

    def test_sharp_step_matches_averaged_oracle(self, box):
        ops, _ = box
        c = scattering_coefficients(ops, 2.0)
        avg = _sharp_averaged(2.0)
        assert abs(c.reflection - avg.reflection) < 0.02
        assert abs(c.transmission - avg.transmission) < 0.02
        assert c.flux_defect < 1e-2

    def test_criterion_7_config_within_a_thousandth(self):
        # criterion 7's sharp step at (40, 1601): the lattice R(E) differs from the
        # plane-wave one by O(dx^2), and each solve conserves flux to rounding
        c = scattering_coefficients(_step_ops(1601), 2.0, sigma=3.0)
        avg = _sharp_averaged(2.0)
        assert abs(c.reflection - avg.reflection) <= 1e-3
        assert abs(c.transmission - avg.transmission) <= 1e-3
        assert c.flux_defect <= 1e-12

    def test_closed_channel_rejected(self, box):
        ops, _ = box
        with pytest.raises(ValueError, match="closed channel"):
            scattering_coefficients(ops, 0.5)

    def test_average_differs_from_oracle_only_in_what_it_averages(self, box, monkeypatch):
        """With the sharp-step (R, T) put in place of the stationary solve, the
        packet average is the averaged oracle, bit for bit."""
        ops, _ = box

        def plane_wave(opset, lam):
            return _sharp_oracle(lam)

        monkeypatch.setattr(scattering, "stationary_coefficients", plane_wave)
        for lam in (1.2, 2.0, 3.0):  # at 1.2 some momenta of the packet are closed
            assert scattering_coefficients(ops, lam) == _sharp_averaged(lam)


class TestOutgoingBoundary:
    @pytest.mark.parametrize("profile", ["sharp_step", "smooth_step"])
    def test_corner_identity(self, profile):
        """The corner-modified band is the infinite lattice restricted to the box:
        its resolvent at z = 2 + 0.05i matches the centre rows of a box with
        EXTRA more nodes on each side, where the outgoing wave has decayed by
        about e^-17 (dx = 0.05)."""
        extra, z = 20000, 2.0 + 0.05j
        ops = _step_ops(1601, profile=profile)
        h = ops.H.entries
        diag = np.concatenate([np.full(extra, h[1, 0]), h[1], np.full(extra, h[1, -1])])
        off = np.full(diag.size - 1, h[2, 0])
        longer = Band(np.array([np.r_[0.0, off], diag, np.r_[off, 0.0]]))
        rng = np.random.default_rng(3)
        f = rng.standard_normal((ops.n, 3)) + 1j * rng.standard_normal((ops.n, 3))
        f[[0, -1], 0] = 1.0  # the box ends carry a source
        got = resolvent(outgoing_band(ops, z), z, f)
        padded = np.zeros((diag.size, 3), dtype=complex)
        padded[extra:extra + ops.n] = f
        ref = resolvent(longer, z, padded)[extra:extra + ops.n]
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("z", [2.0 + 0.05j, 2.0 - 0.05j, -0.5, 2000.0, 2.0])
    def test_outgoing_root(self, z):
        dx, v = 0.05, 1.0
        xi = outgoing_root(z, v, dx)
        assert xi + 1 / xi == pytest.approx(2 - dx**2 * (z - v), rel=1e-14)
        if z.imag == 0 and v < z < v + 4 / dx**2:  # the limit from Im z > 0
            assert abs(xi) == pytest.approx(1.0, rel=1e-15) and xi.imag > 0
            assert outgoing_root(z + 1e-9j, v, dx) == pytest.approx(xi, abs=1e-8)
        else:
            assert abs(xi) < 1


class TestStationaryCoefficients:
    @pytest.mark.parametrize("v_minus,v_plus", [(0.0, 1.0), (1.0, 0.0)])
    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_flux_conserved(self, lam, v_minus, v_plus):
        c = stationary_coefficients(_step_ops(801, v_minus, v_plus), lam)
        assert c.flux_defect <= 1e-12
        assert 0 < c.reflection < 0.1

    def test_free_box_reflects_nothing(self):
        c = stationary_coefficients(_step_ops(801, 0.7, 0.7, profile="smooth_step"), 2.0)
        assert c.reflection <= 1e-20
        assert c.transmission == pytest.approx(1.0, abs=1e-12)

    def test_converges_to_sharp_step_as_dx_squared(self):
        # dx = 0.1, 0.05, 0.025 at L = 40
        errors = [abs(stationary_coefficients(_step_ops(n), 2.0).reflection
                      - _sharp_oracle(2.0).reflection)
                  for n in (801, 1601, 3201)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    @pytest.mark.parametrize("lam", [1.0, 0.5, 1000.0])
    def test_closed_channel_rejected(self, lam):
        # at or below v_plus = 1, and above the lattice band v + 4/dx^2 = 400 + v
        with pytest.raises(ValueError, match="closed channel"):
            stationary_coefficients(_step_ops(801), lam)


def _test_state(grid):
    x = grid.nodes
    return np.exp(-(x - 0.5) ** 2 / 2) * (1 + 0.3 * x)


def _image_terms(rep, grid, f):
    """|<psi, f>|^2 / (2 pi d lam / dk) for each incoming image psi."""
    overlaps = grid.dx * (rep.images.conj().T @ f)
    return np.abs(overlaps) ** 2 / (2 * math.pi * np.array(rep.flux))


@pytest.fixture(scope="module")
def well_1601():
    return _well_ops(40.0, 1601)


class TestWaveOperatorProbe:
    @pytest.mark.parametrize("lam,n_open", [(0.5, 1), (2.0, 2), (3.0, 2)])
    def test_outgoing_waves_map_to_zero(self, well_1601, lam, n_open):
        rep = wave_operator_probe(well_1601, lam, _test_state(well_1601.grid))
        assert rep.images.shape == (well_1601.n, n_open)
        assert len(rep.outgoing_residuals) == n_open
        assert max(rep.outgoing_residuals) <= 1e-11

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])  # at 0.5 only channel - is open
    def test_density_identity(self, well_1601, lam):
        """Im <f, R(lam + i0) f> / pi is the sum over the incoming images, and
        misses by a clear margin when any one image is left out."""
        f = _test_state(well_1601.grid)
        rep = wave_operator_probe(well_1601, lam, f)
        assert rep.density > 0
        assert abs(rep.density - rep.image_density) <= 1e-10 * rep.density
        terms = _image_terms(rep, well_1601.grid, f)
        assert terms.sum() == pytest.approx(rep.image_density, rel=1e-14)
        for k in range(terms.size):
            assert abs(rep.density - (terms.sum() - terms[k])) >= 0.1 * rep.density

    def test_free_identity_case(self, free_box):
        # with v == 0, H J - J H0 is the commutator [H, j] only, and W- is the
        # identity on incoming waves: each image is the full-line plane wave
        ops = free_box
        g = ops.grid
        for lam in (0.5, 2.0):
            rep = wave_operator_probe(ops, lam, _test_state(g))
            kdx = np.angle(outgoing_root(lam, 0.0, g.dx))
            steps = np.arange(g.n)
            plane = np.column_stack([np.exp(1j * kdx * steps), np.exp(-1j * kdx * steps)])
            assert np.max(np.abs(rep.images - plane)) <= 1e-12
            assert max(rep.outgoing_residuals) <= 1e-12

    @pytest.mark.parametrize("profile", ["sharp_step", "smooth_step"])
    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_channel_minus_image_is_the_stationary_solution(self, profile, lam):
        """The image of the wave coming in on channel - is the solution that
        `stationary_coefficients` reads R and T from (its row-0 source), and
        R and T read from the image agree with it."""
        ops = _step_ops(1601, profile=profile)
        dx = ops.grid.dx
        image = wave_operator_probe(ops, lam, _test_state(ops.grid)).images[:, 0]
        xi_m, xi_p = outgoing_root(lam, 0.0, dx), outgoing_root(lam, 1.0, dx)
        source = np.zeros(ops.n, dtype=complex)
        source[0] = (1 / xi_m - xi_m) / dx**2
        u = resolvent(outgoing_band(ops, lam), lam, source)
        tol = _rounding(ops.n)
        assert np.max(np.abs(image - u)) <= tol
        c = stationary_coefficients(ops, lam)
        assert abs(abs(image[0] - 1) ** 2 - c.reflection) <= tol
        assert abs(abs(image[-1]) ** 2 * xi_p.imag / xi_m.imag - c.transmission) <= tol

    @pytest.mark.parametrize("lam", [-0.5, 0.0])
    def test_closed_channel_rejected(self, well_1601, lam):
        with pytest.raises(ValueError, match="closed channel"):
            wave_operator_probe(well_1601, lam, _test_state(well_1601.grid))

    def test_density_identity_at_n_12801(self):
        ops = _well_ops(640.0, 12801)
        f = _test_state(ops.grid)
        rep = wave_operator_probe(ops, 2.0, f)
        assert abs(rep.density - rep.image_density) <= 1e-10 * rep.density
        assert max(rep.outgoing_residuals) <= 1e-11


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

        t = _best_time(rep, times, ops.n)
        fm, fp = ops.apply_J_star(psi)
        dec_m, dec_p = channel_bases(ops)
        g = ops.apply_J(propagate(dec_m, fm, [t])[:, 0], propagate(dec_p, fp, [t])[:, 0])
        image = propagate(dec_H, g, [-t])[:, 0]
        pot = ops.potential
        low = image - scattering_projector(dec_H, image, min(pot.v_minus, pot.v_plus))
        ref = _l2_one(ops.grid, low) / _l2_one(ops.grid, image)
        assert abs(rep.range_defect - ref) <= _rounding(ops.n) * max(1.0, ref)


class TestStreamedLadder:
    """The probe walks its time ladder in blocks of LADDER_BLOCK times."""

    @pytest.mark.parametrize("case", ["outgoing", "bound-state"])
    @pytest.mark.parametrize("width", [1, 7, scattering.LADDER_BLOCK])
    def test_blocks_match_one_block(self, box, well_box, monkeypatch, case, width):
        """Any block width gives the report of the whole ladder in one block:
        norms to rounding, margins and flags exactly.  The range defect is that
        of the glued column at the best time of the report's own norms, and
        the one-block value to rounding: a bound state's forward norm is the
        same at every time up to rounding, and the tie rule of the best time
        keeps rounding from picking it."""
        ops, dec_H = box if case == "outgoing" else well_box
        psi = _outgoing(ops) if case == "outgoing" else _bound_state(ops, dec_H)
        times = np.linspace(0.0, 8.0, 41)
        monkeypatch.setattr(scattering, "LADDER_BLOCK", times.size + 5)
        whole = completeness_probe(ops, dec_H, psi, times)
        monkeypatch.setattr(scattering, "LADDER_BLOCK", width)
        rep = completeness_probe(ops, dec_H, psi, times)
        tol = _rounding(ops.n)
        for key in ("froufrou_norms", "converse_norms"):
            got, ref = np.array(getattr(rep, key)), np.array(getattr(whole, key))
            assert np.all(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref))), key
        best = _best_time(rep, times, ops.n)
        fm, fp = ops.apply_J_star(psi)
        dec_m, dec_p = channel_bases(ops)
        g = ops.apply_J(propagate(dec_m, fm, [best])[:, 0], propagate(dec_p, fp, [best])[:, 0])
        pot = ops.potential
        low = g - scattering_projector(dec_H, g, min(pot.v_minus, pot.v_plus))
        ref = _l2_one(ops.grid, low) / _l2_one(ops.grid, g)
        assert abs(rep.range_defect - ref) <= tol * max(1.0, ref)
        assert abs(rep.range_defect - whole.range_defect) <= tol * max(1.0, ref)
        assert rep.boundary_margins == whole.boundary_margins
        assert rep.admissible == whole.admissible
        assert rep.verdict == whole.verdict

    def test_bound_state_range_defect_does_not_follow_the_block_width(self, well_box,
                                                                     monkeypatch):
        """On the (40, 801) well the bound state's forward norms agree to
        rounding at every time, so its best time is the first admissible one
        at any block width, and the range defect is the same."""
        ops, dec_H = well_box
        psi, times = _bound_state(ops, dec_H), np.linspace(0.0, 8.0, 41)
        defects = []
        for width in (1, 32):
            monkeypatch.setattr(scattering, "LADDER_BLOCK", width)
            rep = completeness_probe(ops, dec_H, psi, times)
            assert _best_time(rep, times, ops.n) == times[rep.admissible.index(True)]
            defects.append(rep.range_defect)
        assert defects[0] == defects[1]

    def test_one_propagation_per_block(self, box, monkeypatch):
        ops, dec_H = box
        times = np.linspace(0.0, 8.0, 161)
        calls = []

        def counted(*args):
            calls.append(args[2].size)
            return propagate(*args)

        monkeypatch.setattr(scattering, "propagate", counted)
        completeness_probe(ops, dec_H, _outgoing(ops), times)
        assert len(calls) == math.ceil(times.size / scattering.LADDER_BLOCK)
        assert sum(calls) == times.size and max(calls) <= scattering.LADDER_BLOCK

    def test_memory_does_not_grow_with_the_ladder(self):
        """The probe's traced peak at four times as many times stays within 1.25x."""
        g = make_grid(40.0, 321)
        ops = build_pair(make_steplike(g, 0.0, 1.0))
        dec_H = eigendecompose(ops.H)
        psi = make_channel_packet(ops, 10.0, 1.5, 2.0)
        peaks = []
        for count in (161, 4 * 161):
            times = np.linspace(0.0, 8.0, count)
            tracemalloc.start()
            try:
                completeness_probe(ops, dec_H, psi, times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_memory_budget_per_block(self):
        """At the benchmark's (40, 601) and 161 times the probe's traced peak stays
        within 9 blocks of n x LADDER_BLOCK complex values.  Each block's arrays
        are released before the next is built and the converse defect is
        reduced in place: about 6 blocks, where a block that kept its channel
        pair, glued block and J* copies into the next one took about 12."""
        g = make_grid(40.0, 601)
        ops = build_pair(make_steplike(g, 0.0, 1.0))
        dec_H = eigendecompose(ops.H)
        psi, times = make_channel_packet(ops, 10.0, 1.5, 2.0), np.linspace(0.0, 8.0, 161)
        completeness_probe(ops, dec_H, psi, times)  # warm-up: imports are not traced
        tracemalloc.start()
        try:
            completeness_probe(ops, dec_H, psi, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = ops.n * scattering.LADDER_BLOCK * np.dtype(complex).itemsize
        assert peak <= 9 * block, peak / block


class TestChainRule:
    def test_composition_consistency(self, box):
        # the JJ*-approximant agrees with the composition of the J- and
        # J*-approximants evaluated at different stabilization times
        ops, dec_H = box
        g = ops.grid
        psi = _outgoing(ops)
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

