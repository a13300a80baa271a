import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mourre_lab.grid import (
    make_cutoffs,
    make_grid,
    make_steplike,
    mollifier,
    mollifier_derivative,
    smoothstep,
)


class TestMakeGrid:
    def test_basic_layout(self):
        g = make_grid(20.0, 321)
        assert g.n == 321
        assert g.dx == pytest.approx(40.0 / 320)
        assert g.nodes[0] == -20.0 and g.nodes[-1] == 20.0
        assert 0.0 in g.nodes

    def test_zero_is_exact_node(self):
        g = make_grid(17.0, 257)
        assert g.nodes[g.n // 2] == 0.0

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            make_grid(20.0, 320)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            make_grid(20.0, 8)

    def test_rejects_nonpositive_L(self):
        with pytest.raises(ValueError):
            make_grid(0.0, 321)


class TestMollifier:
    def test_zero_on_nonpositive(self):
        assert mollifier(np.array([-1.0, 0.0])).tolist() == [0.0, 0.0]

    def test_value_at_one(self):
        assert mollifier(np.array([1.0]))[0] == pytest.approx(np.exp(-1.0))

    def test_derivative_matches_finite_difference(self):
        t = np.linspace(0.1, 3.0, 50)
        h = 1e-6
        fd = (mollifier(t + h) - mollifier(t - h)) / (2 * h)
        assert np.allclose(mollifier_derivative(t), fd, atol=1e-6)


class TestSmoothstep:
    def test_endpoint_values(self):
        x = np.array([-5.0, 1.0, 2.0, 5.0])
        s, _ = smoothstep(x, 1.0, 2.0)
        assert s[0] == 0.0 and s[1] == 0.0
        assert s[2] == 1.0 and s[3] == 1.0

    def test_monotone(self):
        x = np.linspace(0.0, 3.0, 400)
        s, ds = smoothstep(x, 1.0, 2.0)
        assert np.all(np.diff(s) >= 0)
        assert np.all(ds >= 0)

    def test_derivative_matches_finite_difference(self):
        x = np.linspace(0.5, 2.5, 200)
        h = 1e-6
        _, ds = smoothstep(x, 1.0, 2.0)
        fd = (smoothstep(x + h, 1.0, 2.0)[0] - smoothstep(x - h, 1.0, 2.0)[0]) / (2 * h)
        assert np.allclose(ds, fd, atol=1e-5)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            smoothstep(np.zeros(3), 2.0, 1.0)


class TestCutoffs:
    def test_plateaus(self):
        g = make_grid(20.0, 321)
        cut = make_cutoffs(g)
        x = g.nodes
        assert np.all(cut.j_plus[x <= 1.0] == 0.0)
        assert np.all(cut.j_plus[x >= 2.0] == 1.0)
        assert np.all(cut.j_minus[x >= -1.0] == 0.0)
        assert np.all(cut.j_minus[x <= -2.0] == 1.0)

    def test_reflection_symmetry_exact(self):
        g = make_grid(20.0, 321)
        cut = make_cutoffs(g)
        assert np.array_equal(cut.j_minus, cut.j_plus[::-1])

    def test_j_vanishes_between_transitions(self):
        g = make_grid(20.0, 321)
        cut = make_cutoffs(g)
        inside = np.abs(g.nodes) <= 1.0
        assert np.all(cut.j[inside] == 0.0)

    def test_sum_of_squares_is_one_outside_transitions(self):
        g = make_grid(20.0, 321)
        cut = make_cutoffs(g)
        outside = np.abs(g.nodes) >= 2.0
        assert np.allclose(cut.jj_sum_sq[outside], 1.0)
        assert np.all(cut.jj_sum_sq <= 1.0 + 1e-15)

    def test_rejects_small_box(self):
        with pytest.raises(ValueError):
            make_cutoffs(make_grid(3.0, 321))

    @given(half=st.integers(min_value=80, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_reflection_symmetry_any_grid(self, half):
        g = make_grid(20.0, 2 * half + 1)
        cut = make_cutoffs(g)
        assert np.array_equal(cut.j_minus, cut.j_plus[::-1])
        assert np.array_equal(cut.j, cut.j[::-1])


class TestSteplike:
    def test_smooth_step_limits(self):
        g = make_grid(20.0, 321)
        pot = make_steplike(g, 0.0, 1.0)
        assert pot.v[0] == pytest.approx(0.0, abs=1e-12)
        assert pot.v[-1] == pytest.approx(1.0, abs=1e-12)
        assert pot.v_prime is not None

    def test_sharp_step_midpoint(self):
        g = make_grid(20.0, 321)
        pot = make_steplike(g, 0.0, 1.0, profile="sharp_step")
        assert pot.v[g.n // 2] == 0.5
        assert pot.v_prime is None

    def test_smooth_step_derivative_consistent(self):
        # second-order convergence of the centered difference to v'
        errors = []
        for n in (641, 1281, 2561):
            g = make_grid(20.0, n)
            pot = make_steplike(g, 0.0, 1.0)
            fd = np.gradient(pot.v, g.dx)
            interior = np.abs(g.nodes) < 0.95
            errors.append(np.max(np.abs(pot.v_prime[interior] - fd[interior])))
        assert errors[0] < 0.05
        assert errors[2] < errors[0] / 8

    def test_bump_support_enforced(self):
        g = make_grid(20.0, 321)
        wide = np.ones(g.n)
        with pytest.raises(ValueError):
            make_steplike(g, 0.0, 1.0, bump=wide)

    def test_sharp_step_refuses_bump(self):
        g = make_grid(20.0, 321)
        small = np.where(np.abs(g.nodes) < 1.0, 0.3, 0.0)
        with pytest.raises(ValueError, match="sharp_step takes no bump; use smooth_step$"):
            make_steplike(g, 0.0, 1.0, profile="sharp_step", bump=small)

    def test_smooth_step_adds_the_bump(self):
        g = make_grid(20.0, 321)
        small = 0.3 * np.exp(-g.nodes**2) * (np.abs(g.nodes) < 5.0)
        plain = make_steplike(g, 0.0, 1.0)
        pot = make_steplike(g, 0.0, 1.0, bump=small)
        assert np.array_equal(pot.v, plain.v + small)
        assert np.array_equal(pot.v_prime, plain.v_prime + np.gradient(small, g.dx))

    def test_unknown_profile(self):
        g = make_grid(20.0, 321)
        with pytest.raises(ValueError):
            make_steplike(g, 0.0, 1.0, profile="staircase")
        small = np.where(np.abs(g.nodes) < 1.0, 0.3, 0.0)
        with pytest.raises(ValueError, match="unknown profile 'smooth_step_plus_bump'"):
            make_steplike(g, 0.0, 1.0, profile="smooth_step_plus_bump", bump=small)
