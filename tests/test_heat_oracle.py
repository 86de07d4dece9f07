"""Divergence heat dynamics: analytic amplitudes, conservation, estimates."""

import math

import numpy as np
import pytest

from enslab.diagnostics import convergence_order, fit_decay_rate, passes
from enslab.errors import CheckFailure
from enslab.grid import Grid, ScalarField, integral, scalar_inner, scalar_norm
from enslab import heat_oracle
from enslab.heat_oracle import DivergenceState, HeatEstimates, heat_march
from oracles import fold_heat_estimates

NU = 0.1


def coscos(grid, k=1, m=1):
    x = grid.cells()[:, None]
    y = grid.cells()[None, :]
    return ScalarField(grid, np.cos(k * np.pi * x) * np.cos(m * np.pi * y))


def sinsin(grid, k=1, m=1):
    x = grid.cells()[:, None]
    y = grid.cells()[None, :]
    return ScalarField(grid, np.sin(k * np.pi * x) * np.sin(m * np.pi * y))


def one_step(g, bc, dt):
    """The initial state of g and the state one step on."""
    return list(heat_march(g, bc, NU, dt, 1))


class TestStates:
    def test_bad_bc_rejected(self):
        # the closure is checked by the one solver the call builds
        with pytest.raises(ValueError, match="unknown bc 'robin'"):
            heat_march(ScalarField.zeros(Grid(8)), "robin", NU, 1e-3, 1)

    @pytest.mark.parametrize("nu", [0.0, -1.0, math.inf])
    def test_bad_nu_rejected(self, nu):
        # raised by the call, before any state is made
        with pytest.raises(ValueError, match="viscosity must be positive and finite"):
            heat_march(ScalarField.zeros(Grid(8)), "neumann", nu, 1e-3, 1)

    def test_mass_drift_rejected(self, monkeypatch):
        g = Grid(8)
        monkeypatch.setattr(heat_oracle, "heat_step",
                            lambda f, solve: ScalarField(g, f.values + 1.0))
        states = heat_march(ScalarField(g, np.ones(g.shape_cell)), "neumann", NU, 1e-3, 1)
        next(states)
        with pytest.raises(CheckFailure) as exc:
            next(states)
        assert str(exc.value).startswith(
            "step 1, t = 0: zero-flux divergence state lost mass")


class TestHeatStep:
    def test_constant_neumann_fixed(self):
        g = Grid(16)
        s, s1 = one_step(ScalarField(g, np.full(g.shape_cell, 3.0)), "neumann", 1e-2)
        assert np.allclose(s1.g.values, 3.0, atol=1e-13)
        assert s1.time == 1e-2

    def test_neumann_eigenmode_amplitude_frozen(self):
        # one step of the first zero-flux mode matches exp(-2 pi^2 nu dt)
        g = Grid(64)
        dt = 1e-3
        s, s1 = one_step(coscos(g), "neumann", dt)
        ratio = scalar_inner(s1.g, s.g) / scalar_inner(s.g, s.g)
        exact = math.exp(-2.0 * math.pi ** 2 * NU * dt)
        assert abs(ratio - exact) <= 1e-6 * exact

    def test_dirichlet_eigenmode_amplitude_frozen(self):
        g = Grid(64)
        dt = 1e-3
        s, s1 = one_step(sinsin(g), "dirichlet", dt)
        ratio = scalar_inner(s1.g, s.g) / scalar_inner(s.g, s.g)
        exact = math.exp(-2.0 * math.pi ** 2 * NU * dt)
        assert abs(ratio - exact) <= 1e-6 * exact

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_contraction_random_field(self, bc):
        g = Grid(32)
        rng = np.random.default_rng(3)
        hist = list(heat_march(ScalarField(g, rng.standard_normal(g.shape_cell)), bc, NU,
                               2e-3, 5))
        for s, s1 in zip(hist, hist[1:]):
            assert scalar_norm(s1.g) <= scalar_norm(s.g) * (1 + 1e-12)

    def test_neumann_mass_conserved_along_run(self):
        g = Grid(32)
        rng = np.random.default_rng(4)
        g0 = ScalarField(g, rng.standard_normal(g.shape_cell))
        for state in heat_march(g0, "neumann", NU, 1e-3, 100):
            assert abs(integral(state.g) - integral(g0)) <= 1e-12

    def test_bad_dt_rejected(self):
        # raised by the call, before any state is made
        with pytest.raises(ValueError, match="dt must be positive, got 0.0"):
            heat_march(ScalarField.zeros(Grid(8)), "neumann", NU, 0.0, 1)

    def test_decay_rate_matches_eigenvalue(self):
        g = Grid(64)
        hist = list(heat_march(coscos(g), "neumann", NU, 5e-3, 40))
        rate = fit_decay_rate([h.time for h in hist], [scalar_norm(h.g) for h in hist])
        assert abs(rate + 2.0 * math.pi ** 2 * NU) <= 0.01 * 2.0 * math.pi ** 2 * NU


class TestEstimates:
    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            fold_heat_estimates([], "neumann", NU)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_non_increasing_time_rejected(self, dt):
        g = Grid(8)
        estimates = HeatEstimates("neumann", NU)
        estimates.add(DivergenceState(ScalarField.zeros(g), 1e-3), 0.0)
        with pytest.raises(ValueError, match="non-increasing times"):
            estimates.add(DivergenceState(ScalarField.zeros(g), 1e-3 + dt), 0.0)

    def test_single_constant_state(self):
        g = Grid(16)
        s = DivergenceState(ScalarField(g, np.full(g.shape_cell, 2.0)), 0.0)
        rec = fold_heat_estimates([s], "neumann", NU)
        assert rec["grad_energy_integral"] == 0.0
        assert rec["sup_margin"] >= 0.0 and rec["grad_margin"] >= 0.0
        assert passes(rec["sup_margin"], rec["initial_l2"])
        assert passes(rec["grad_margin"], rec["initial_l2"])

    def test_zero_initial_data_tight(self):
        g = Grid(16)
        rec = fold_heat_estimates(heat_march(ScalarField.zeros(g), "neumann", NU, 1e-3, 3),
                                  "neumann", NU)
        assert rec["initial_l2"] == 0.0
        assert rec["sup_margin"] == 0.0 and rec["grad_margin"] == 0.0

    def test_record_holds_the_metrics_its_readers_read(self):
        # `enslab heat` reads the first norm and the two asserted margins,
        # these tests the gradient integral
        g = Grid(16)
        hist = list(heat_march(coscos(g), "neumann", NU, 1e-3, 4))
        rec = fold_heat_estimates(hist, "neumann", NU)
        assert set(rec) == {
            "initial_l2", "grad_energy_integral", "sup_margin", "grad_margin"}
        assert rec["initial_l2"] == scalar_norm(hist[0].g)
        assert rec["sup_margin"] == rec["initial_l2"] - max(scalar_norm(s.g) for s in hist)

    @pytest.mark.parametrize("bc,mode", [("neumann", coscos), ("dirichlet", sinsin)])
    def test_eigen_decay_margins_nonnegative(self, bc, mode):
        g = Grid(32)
        rec = fold_heat_estimates(heat_march(mode(g), bc, NU, 2e-3, 50), bc, NU)
        assert passes(rec["sup_margin"], rec["initial_l2"])
        assert passes(rec["grad_margin"], rec["initial_l2"])


class TestSelfConvergence:
    def test_second_order_in_dt(self):
        g = Grid(32)
        T = 0.1
        g0 = coscos(g)
        ref = list(heat_march(g0, "neumann", NU, T / 256, 256))[-1].g
        errs = []
        for n in (8, 16, 32):
            got = list(heat_march(g0, "neumann", NU, T / n, n))[-1].g
            errs.append(scalar_norm(got - ref))
        est = convergence_order(*errs)
        assert est.monotone and abs(est.mean - 2.0) <= 0.1

    def test_second_order_in_h(self):
        # one step, dt small enough that the O(dt^2) trapezoidal error cannot
        # mask the O(h^2) eigenvalue defect (they carry opposite signs)
        dt = 2e-3
        errs = []
        for n in (16, 32, 64):
            g = Grid(n)
            s, s1 = one_step(coscos(g), "neumann", dt)
            ratio = scalar_inner(s1.g, s.g) / scalar_inner(s.g, s.g)
            errs.append(abs(ratio - math.exp(-2.0 * math.pi ** 2 * NU * dt)))
        est = convergence_order(*errs)
        assert est.monotone and abs(est.mean - 2.0) <= 0.15
