"""Initial-condition and forcing presets."""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from enslab.errors import CFLError, CheckFailure, SolverError
from enslab.grid import (
    Grid,
    divergence,
    face_norm,
    integral,
    normal_trace,
    scalar_norm,
)
from enslab.scenarios import (
    FORCING_PRESETS,
    IC_PRESETS,
    eigen_divergence,
    eigen_lift,
    forcing_field,
    initial_velocity,
    march,
    mms_forcing,
    mms_velocity,
    perturbation_field,
    stream_vortex,
)

GRID = Grid(16)


class TestMarch:
    def test_yields_initial_state_then_each_step(self):
        assert list(march(lambda s: s + 0.25, 1.0, 3)) == [1.0, 1.25, 1.5, 1.75]
        assert list(march(lambda s: s + 0.25, 1.0, 0)) == [1.0]

    def test_steps_only_when_asked(self):
        calls = []

        def step(s):
            calls.append(s)
            return s + 1

        states = march(step, 0, 5)
        assert next(states) == 0 and calls == []
        assert next(states) == 1 and calls == [0]

    @pytest.mark.parametrize("error", [CFLError, CheckFailure, SolverError])
    def test_step_error_names_the_step_and_its_start_time(self, error):
        def step(s):
            if s.time >= 0.2:
                raise error("dt too large")
            return SimpleNamespace(time=s.time + 0.1)

        states = march(step, SimpleNamespace(time=0.0), 5)
        assert [next(states).time for _ in range(3)] == pytest.approx([0.0, 0.1, 0.2])
        with pytest.raises(error, match=r"^step 3, t = 0\.2: dt too large$") as caught:
            next(states)
        assert type(caught.value) is error
        assert type(caught.value.__cause__) is error

    def test_other_errors_pass_unchanged(self):
        def step(s):
            raise ValueError("not a package error")

        with pytest.raises(ValueError, match="^not a package error$"):
            list(march(step, SimpleNamespace(time=0.0), 2))


class TestRegistry:
    def test_preset_names(self):
        assert set(IC_PRESETS) == {
            "zero", "vortex", "eigenmode_div", "boundary_flux",
            "lift_plus_flow", "mms", "random_solenoidal",
        }
        assert set(FORCING_PRESETS) == {"zero", "rotational", "mms"}

    def test_every_ic_preset_builds(self):
        for preset in IC_PRESETS:
            system = "sr" if preset == "boundary_flux" else "jl"
            u = initial_velocity(GRID, system, preset)
            assert np.isfinite(u.u).all() and np.isfinite(u.v).all()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            initial_velocity(GRID, "jl", "swirl")
        with pytest.raises(ValueError, match="preset"):
            forcing_field(GRID, "wind")


class TestSolenoidalPresets:
    @pytest.mark.parametrize("preset", ["zero", "vortex", "random_solenoidal"])
    def test_divergence_free_jl(self, preset):
        u = initial_velocity(GRID, "jl", preset, amplitude=2.0, seed=3)
        assert scalar_norm(divergence(u)) <= 1e-12 * max(1.0, face_norm(u))

    def test_boundary_flux_solenoidal_with_open_walls(self):
        u = initial_velocity(GRID, "sr", "boundary_flux", amplitude=1.5)
        assert scalar_norm(divergence(u)) <= 1e-12
        trace = normal_trace(u)
        assert trace.max_abs() > 1.0
        # balanced: what enters on the left leaves on the right
        assert abs(np.sum(trace.left) + np.sum(trace.right)) <= 1e-12

    def test_boundary_flux_needs_sr(self):
        with pytest.raises(ValueError, match="sr"):
            initial_velocity(GRID, "jl", "boundary_flux")

    def test_vortex_walls_closed(self):
        # stream values on the walls are O(1e-32) round-off of sin(pi)^2
        u = stream_vortex(GRID, amplitude=3.0)
        assert normal_trace(u).max_abs() <= 1e-14
        assert np.max(np.abs(u.u[0, :])) <= 1e-14
        assert np.max(np.abs(u.u[-1, :])) <= 1e-14

    def test_vortex_amplitude_scales_linearly(self):
        one = stream_vortex(GRID, 1.0)
        three = stream_vortex(GRID, 3.0)
        assert np.allclose(three.u, 3.0 * one.u, rtol=0.0, atol=1e-13)

    def test_perturbation_unit_norm_and_solenoidal(self):
        w = perturbation_field(GRID)
        assert abs(face_norm(w) - 1.0) <= 1e-12
        assert scalar_norm(divergence(w)) <= 1e-12
        assert normal_trace(w).max_abs() <= 1e-14

    def test_random_solenoidal_deterministic_by_seed(self):
        a = initial_velocity(GRID, "jl", "random_solenoidal", seed=11)
        b = initial_velocity(GRID, "jl", "random_solenoidal", seed=11)
        c = initial_velocity(GRID, "jl", "random_solenoidal", seed=12)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert not np.array_equal(a.u, c.u)
        assert abs(face_norm(a) - 1.0) <= 1e-12


class TestEigenmodeData:
    def test_jl_mode_is_cosine_product(self):
        g = eigen_divergence(GRID, "jl", eps=0.5, mode=2)
        x = GRID.cells()[:, None]
        y = GRID.cells()[None, :]
        expected = 0.5 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        assert np.allclose(g.values, expected, rtol=0.0, atol=1e-15)

    def test_sr_mode_is_sine_product(self):
        g = eigen_divergence(GRID, "sr", eps=0.25, mode=1)
        x = GRID.cells()[:, None]
        y = GRID.cells()[None, :]
        expected = 0.25 * np.sin(np.pi * x) * np.sin(np.pi * y)
        assert np.allclose(g.values, expected, rtol=0.0, atol=1e-15)

    def test_jl_lift_reproduces_divergence(self):
        g0, z0 = eigen_lift(GRID, "jl", eps=0.01, mode=1)
        assert scalar_norm(divergence(z0) - g0) <= 1e-10
        assert normal_trace(z0).max_abs() <= 1e-12

    def test_sr_lift_mass_matched(self):
        g0, z0 = eigen_lift(GRID, "sr", eps=0.01, mode=1)
        assert scalar_norm(divergence(z0) - g0) <= 1e-10
        trace = normal_trace(z0)
        # wall flux integral equals the interior mass of g0
        flux = GRID.h * (np.sum(trace.left) + np.sum(trace.right)
                         + np.sum(trace.bottom) + np.sum(trace.top))
        assert abs(flux - integral(g0)) <= 1e-12

    def test_lift_plus_flow_carries_same_divergence(self):
        u = initial_velocity(GRID, "jl", "lift_plus_flow", eps=0.02, mode=1)
        g0, _ = eigen_lift(GRID, "jl", eps=0.02, mode=1)
        assert scalar_norm(divergence(u) - g0) <= 1e-10


class TestManufactured:
    def test_velocity_matches_closed_form_samples(self):
        u = mms_velocity(GRID)
        xs = GRID.nodes()
        ys = GRID.cells()
        i, j = 5, 9
        expected = np.sin(np.pi * xs[i]) ** 2 * np.sin(2 * np.pi * ys[j])
        assert abs(u.u[i, j] - expected) <= 1e-15
        xv = GRID.cells()
        yv = GRID.nodes()
        expected_v = -np.sin(2 * np.pi * xv[i]) * np.sin(np.pi * yv[j]) ** 2
        assert abs(u.v[i, j] - expected_v) <= 1e-15

    def test_velocity_no_slip_walls(self):
        u = mms_velocity(GRID)
        assert normal_trace(u).max_abs() <= 1e-14
        # tangential speed half a cell off the wall is at most sin(pi*h)
        bound = np.sin(np.pi * GRID.h) * 1.0000001
        assert np.max(np.abs(u.u[:, 0])) <= bound
        assert np.max(np.abs(u.u[:, -1])) <= bound
        assert np.max(np.abs(u.v[0, :])) <= bound
        assert np.max(np.abs(u.v[-1, :])) <= bound

    def test_velocity_discretely_divergence_free(self):
        # the sin^2 face differences telescope to sin(pi*h)*sin(2*pi*x_c),
        # which cancels exactly between the two terms of the divergence
        assert scalar_norm(divergence(mms_velocity(Grid(16)))) <= 5e-14
        assert scalar_norm(divergence(mms_velocity(Grid(32)))) <= 5e-14

    def test_forcing_holds_flow_steady(self):
        # one viscous-advective step of the governed flow barely moves it
        from enslab.ens_jl import jl_state, step_direct
        from enslab.reference import Flow

        grid = Grid(32)
        u0 = mms_velocity(grid)
        nu = 0.05
        step = partial(step_direct, Flow(nu, 1e-3, mms_forcing(grid, nu)))
        hist = list(march(step, jl_state(u0, decomposed=False), 10))
        drift = face_norm(hist[-1].u - u0)
        assert drift <= 5e-3 * face_norm(u0)

    def test_forcing_scales_with_nu(self):
        f1 = mms_forcing(GRID, 0.1)
        f2 = mms_forcing(GRID, 0.2)
        lap = f2.u - f1.u  # = -0.1 * lap_u1 samples
        assert np.max(np.abs(lap)) > 0.1


class TestForcingPresets:
    def test_zero_is_zero(self):
        f = forcing_field(GRID, "zero")
        assert f.grid == GRID and f.max_abs() == 0.0

    def test_rotational_scales_with_amplitude(self):
        a = forcing_field(GRID, "rotational", amplitude=1.0)
        b = forcing_field(GRID, "rotational", amplitude=2.5)
        assert np.allclose(b.u, 2.5 * a.u, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(a.u)) > 0.5

    def test_mms_preset_matches_mms_forcing(self):
        a = forcing_field(GRID, "mms", nu=0.07)
        b = mms_forcing(GRID, 0.07)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)

    def test_overflowing_force_fails_the_initial_check(self):
        # nu Lap u* overflows; sampled with no warning and scanned once
        with pytest.raises(CheckFailure, match=r"^non-finite forcing at t = 0$"):
            forcing_field(GRID, "mms", nu=1e307)
