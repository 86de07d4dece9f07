"""Divergence heat dynamics: analytic amplitudes, conservation, estimates."""

import math

import numpy as np
import pytest

from enslab.diagnostics import convergence_order, fit_decay_rate, passes
from enslab.errors import CheckFailure
from enslab.grid import Grid, ScalarField, integral, scalar_inner, scalar_norm
from enslab.heat_oracle import (
    DivergenceState,
    divergence_state,
    heat_step,
    step_divergence,
)
from enslab.scenarios import march
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


class TestStates:
    def test_bad_bc_rejected(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            divergence_state(ScalarField.zeros(g), "robin", NU)

    def test_bad_nu_rejected(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            divergence_state(ScalarField.zeros(g), "neumann", -1.0)

    def test_mass_drift_rejected(self):
        g = Grid(8)
        f = ScalarField(g, np.ones(g.shape_cell))
        with pytest.raises(CheckFailure):
            DivergenceState(g=f, time=0.0, bc="neumann", nu=NU, m0=2.0)


class TestHeatStep:
    def test_constant_neumann_fixed(self):
        g = Grid(16)
        s = divergence_state(ScalarField(g, np.full(g.shape_cell, 3.0)), "neumann", NU)
        s1 = step_divergence(s, 1e-2)
        assert np.allclose(s1.g.values, 3.0, atol=1e-13)
        assert s1.time == 1e-2

    def test_neumann_eigenmode_amplitude_frozen(self):
        # one step of the first zero-flux mode matches exp(-2 pi^2 nu dt)
        g = Grid(64)
        dt = 1e-3
        s = divergence_state(coscos(g), "neumann", NU)
        s1 = step_divergence(s, dt)
        ratio = scalar_inner(s1.g, s.g) / scalar_inner(s.g, s.g)
        exact = math.exp(-2.0 * math.pi ** 2 * NU * dt)
        assert abs(ratio - exact) <= 1e-6 * exact

    def test_dirichlet_eigenmode_amplitude_frozen(self):
        g = Grid(64)
        dt = 1e-3
        s = divergence_state(sinsin(g), "dirichlet", NU)
        s1 = step_divergence(s, dt)
        ratio = scalar_inner(s1.g, s.g) / scalar_inner(s.g, s.g)
        exact = math.exp(-2.0 * math.pi ** 2 * NU * dt)
        assert abs(ratio - exact) <= 1e-6 * exact

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_contraction_random_field(self, bc):
        g = Grid(32)
        rng = np.random.default_rng(3)
        s = divergence_state(ScalarField(g, rng.standard_normal(g.shape_cell)), bc, NU)
        for _ in range(5):
            s1 = step_divergence(s, 2e-3)
            assert scalar_norm(s1.g) <= scalar_norm(s.g) * (1 + 1e-12)
            s = s1

    def test_neumann_mass_conserved_along_run(self):
        g = Grid(32)
        rng = np.random.default_rng(4)
        s = divergence_state(ScalarField(g, rng.standard_normal(g.shape_cell)), "neumann", NU)
        for state in march(step_divergence, s, 1e-3, 100):
            assert abs(integral(state.g) - s.m0) <= 1e-12

    def test_bad_dt_rejected(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            heat_step(ScalarField.zeros(g), NU, 0.0, "neumann")

    def test_decay_rate_matches_eigenvalue(self):
        g = Grid(64)
        s = divergence_state(coscos(g), "neumann", NU)
        hist = list(march(step_divergence, s, 5e-3, 40))
        rate = fit_decay_rate([h.time for h in hist], [scalar_norm(h.g) for h in hist])
        assert abs(rate + 2.0 * math.pi ** 2 * NU) <= 0.01 * 2.0 * math.pi ** 2 * NU


class TestEstimates:
    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            fold_heat_estimates([])

    def test_single_constant_state(self):
        g = Grid(16)
        s = divergence_state(ScalarField(g, np.full(g.shape_cell, 2.0)), "neumann", NU)
        rec = fold_heat_estimates([s])
        assert rec["grad_energy_integral"] == 0.0
        assert rec["sup_margin"] >= 0.0 and rec["grad_margin"] >= 0.0
        assert passes(rec["sup_margin"], rec["initial_l2"])
        assert passes(rec["grad_margin"], rec["initial_l2"])

    def test_zero_initial_data_tight(self):
        g = Grid(16)
        s = divergence_state(ScalarField.zeros(g), "neumann", NU)
        rec = fold_heat_estimates(march(step_divergence, s, 1e-3, 3))
        assert rec["initial_l2"] == 0.0
        assert rec["sup_margin"] == 0.0 and rec["grad_margin"] == 0.0

    def test_record_holds_the_metrics_its_readers_read(self):
        # `enslab heat` reads the first norm and the two asserted margins,
        # these tests the gradient integral
        g = Grid(16)
        hist = list(march(step_divergence, divergence_state(coscos(g), "neumann", NU), 1e-3, 4))
        rec = fold_heat_estimates(hist)
        assert set(rec) == {
            "initial_l2", "grad_energy_integral", "sup_margin", "grad_margin"}
        assert rec["initial_l2"] == scalar_norm(hist[0].g)
        assert rec["sup_margin"] == rec["initial_l2"] - max(scalar_norm(s.g) for s in hist)

    @pytest.mark.parametrize("bc,mode", [("neumann", coscos), ("dirichlet", sinsin)])
    def test_eigen_decay_margins_nonnegative(self, bc, mode):
        g = Grid(32)
        s = divergence_state(mode(g), bc, NU)
        rec = fold_heat_estimates(march(step_divergence, s, 2e-3, 50))
        assert passes(rec["sup_margin"], rec["initial_l2"])
        assert passes(rec["grad_margin"], rec["initial_l2"])


class TestSelfConvergence:
    def test_second_order_in_dt(self):
        g = Grid(32)
        T = 0.1
        s0 = divergence_state(coscos(g), "neumann", NU)
        ref = list(march(step_divergence, s0, T / 256, 256))[-1].g
        errs = []
        for n in (8, 16, 32):
            got = list(march(step_divergence, s0, T / n, n))[-1].g
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
            s = divergence_state(coscos(g), "neumann", NU)
            s1 = step_divergence(s, dt)
            ratio = scalar_inner(s1.g, s.g) / scalar_inner(s.g, s.g)
            errs.append(abs(ratio - math.exp(-2.0 * math.pi ** 2 * NU * dt)))
        est = convergence_order(*errs)
        assert est.monotone and abs(est.mean - 2.0) <= 0.15
