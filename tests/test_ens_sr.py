import dataclasses
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enslab.advection import skew_advect
from enslab.diagnostics import GAP_DECAY_TOL
from enslab.errors import CFLError, CheckFailure, CompatibilityError, SolvabilityError
from enslab.grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    _tangential_laplacian,
    divergence,
    face_norm,
    integral,
    normal_trace,
    scalar_from_function,
    scalar_norm,
    vector_from_stream,
    with_normal_trace,
)
from enslab.reference import step_nse_projection
from enslab.scenarios import forcing_field, initial_velocity, march
from enslab.stokes_lift import lift_divergence
from enslab import cli, ens_sr, grid as grid_module
from enslab.config import Config
from enslab.ens_sr import (
    SRFlow,
    SRState,
    compat_constant,
    evolve_h,
    solvability_gap,
    sr_gap_run,
    sr_state,
    step_constructive,
    step_direct_sr,
)
from oracles import (
    apply_cell, boundary_divergence_max, compat_constant_laplacian, duhamel_closed_form,
    duhamel_quadrature, flow, laplacian_dirichlet_matrix, neumann_solve, step_average_constant,
    step_nse_splitting,
)


# every grid size up to 64 that Grid accepts (it rejects 49, whose 1/n * n != 1)
GRID_SIZES = st.integers(4, 64).filter(lambda n: (1.0 / n) * n == 1.0)


def vortex(grid, amplitude=1.0):
    x = grid.nodes()[:, None]
    y = grid.nodes()[None, :]
    psi = amplitude * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2 / np.pi
    return vector_from_stream(grid, psi)


def sinsin(grid, eps=1.0):
    return scalar_from_function(
        grid, lambda x, y: eps * np.sin(np.pi * x) * np.sin(np.pi * y))


def matched_lift(grid, eps):
    """Eigenmode divergence, boundary trace a constant carrying its mass."""
    g0 = sinsin(grid, eps)
    h0 = BoundaryTrace.constant(grid, integral(g0) / 4.0)
    z0 = lift_divergence(g0, h0)
    return g0, h0, z0


def through_flow(grid):
    """Divergence-free field with nonzero balanced wall-normal trace."""
    profile = np.sin(2 * np.pi * (np.arange(grid.n) + 0.5) * grid.h)
    u = np.tile(profile[None, :], (grid.n + 1, 1))
    return VectorField(grid, u, np.zeros(grid.shape_v))


def trace_gap(a: BoundaryTrace, b: BoundaryTrace) -> float:
    return (a - b).max_abs()


def constant_of(g, nu, lam):
    """The compatibility constant of the divergence g, with lambda
    multiplying its integral."""
    return compat_constant(g, nu, lam, integral(g))


def random_vector(grid, rng):
    return VectorField(grid, rng.standard_normal(grid.shape_u),
                       rng.standard_normal(grid.shape_v))


def literal_source(p, s, fa):
    """The pressure source of the run p assembled from whole fields: the
    tangential vector Laplacian, and the wall data folded in as the
    divergence of a field that carries it on its wall faces."""
    grid = s.u.grid
    cc = constant_of(divergence(s.u), p.nu, p.lam)
    lap = VectorField(grid, *_tangential_laplacian(s.u.u, s.u.v)) * (p.nu / grid.h ** 2)
    b = lap + s.u * p.lam + fa
    btr = normal_trace(b) - BoundaryTrace.constant(grid, cc)
    rhs = divergence(fa) - divergence(with_normal_trace(VectorField.zeros(grid), btr))
    return rhs, integral(rhs)


class TestCompatConstant:
    def test_zero_divergence_gives_zero(self):
        g = Grid(16)
        gs = ScalarField.zeros(g)
        assert constant_of(gs, 0.1, 1.0) == 0.0
        assert compat_constant_laplacian(gs, 0.1, 1.0) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(n=GRID_SIZES, seed=st.integers(0, 2 ** 32 - 1),
           nu=st.floats(1e-3, 1.0), lam=st.floats(1e-2, 1e2))
    def test_wall_sum_matches_laplacian_oracle(self, n, seed, nu, lam):
        # the Laplacian's fluxes telescope to the wall sum; the scale is the
        # size of the terms the oracle's integrals add up
        g = Grid(n)
        rng = np.random.default_rng(seed)
        gs = ScalarField(g, rng.standard_normal(g.shape_cell))
        got = constant_of(gs, nu, lam)
        want = compat_constant_laplacian(gs, nu, lam)
        lap = apply_cell(laplacian_dirichlet_matrix(g), gs)
        scale = (nu * integral(ScalarField(g, np.abs(lap.values)))
                 + lam * integral(ScalarField(g, np.abs(gs.values))))
        assert abs(got - want) <= 1e-13 * scale

    def test_eigenmode_value_at_64(self):
        g = Grid(64)
        nu, lam = 0.01, 1.0
        expected = 0.25 * (lam - 2 * math.pi ** 2 * nu) * (4 / math.pi ** 2)
        got = constant_of(sinsin(g), nu, lam)
        assert abs(got - expected) <= 0.01 * abs(expected)

    def test_cancellation_when_lam_matches_eigenvalue(self):
        g = Grid(64)
        nu = 0.01
        got = constant_of(sinsin(g), nu, 2 * math.pi ** 2 * nu)
        # discrete-eigenvalue defect only: O(h^2), measured 4.0e-6
        assert abs(got) <= 2e-5


class TestEvolveH:
    def test_pure_decay_is_exact(self):
        g = Grid(16)
        rng = np.random.default_rng(3)
        h0 = BoundaryTrace(g, rng.standard_normal(g.n), rng.standard_normal(g.n),
                           rng.standard_normal(g.n), rng.standard_normal(g.n))
        lam, dt = 1.3, 0.05
        h = h0
        for n in range(1, 41):
            h = evolve_h(h, 0.0, 0.0, lam, dt)
            exact = h0 * math.exp(-lam * n * dt)
            assert trace_gap(h, exact) <= 1e-12

    def test_relaxation_to_equilibrium_is_exact(self):
        # masses whose step average constant is c at every step
        g = Grid(16)
        lam, dt, c = 2.0, 0.1, 0.7
        decay = math.exp(-lam * dt)
        h, m = BoundaryTrace.zeros(g), 0.0
        for n in range(1, 31):
            mp = decay * m + 4.0 * c * (1.0 - decay) / lam
            assert step_average_constant(m, mp, lam, dt) == pytest.approx(c, rel=1e-13)
            h, m = evolve_h(h, m, mp, lam, dt), mp
            level = (c / lam) * (1.0 - math.exp(-lam * n * dt))
            exact = BoundaryTrace.constant(g, level)
            assert trace_gap(h, exact) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1),
           lam=st.floats(1e-2, 1e2), dt=st.floats(1e-4, 1e-1),
           masses=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=41))
    def test_composed_updates_match_duhamel_closed_form(self, n, seed, lam, dt, masses):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        h0 = BoundaryTrace(g, *(rng.standard_normal(n) for _ in range(4)))
        h = h0
        for m0, m1 in zip(masses, masses[1:]):
            h = evolve_h(h, m0, m1, lam, dt)
        cbars = [step_average_constant(m0, m1, lam, dt) for m0, m1 in zip(masses, masses[1:])]
        scale = max(h0.max_abs(), max(abs(m) for m in masses))
        assert trace_gap(h, duhamel_closed_form(h0, cbars, lam, dt)) <= 1e-13 * scale


class TestSRStateConstruction:
    def test_builds_consistent_decomposed_state(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        u0 = vortex(g) + z0
        s = sr_state(u0)
        assert s.decomposed
        assert np.array_equal(s.g.values, divergence(u0).values)
        assert (s.u - (s.v + s.z)).max_abs() <= 1e-13
        assert trace_gap(normal_trace(s.u), s.h) == 0.0

    def test_plain_state_has_no_cache(self):
        g = Grid(16)
        s = sr_state(through_flow(g), decomposed=False)
        assert not s.decomposed

    def test_state_holds_only_what_evolves(self):
        assert [f.name for f in dataclasses.fields(SRState)] == ["time", "u", "g", "h", "v", "z"]

    @pytest.mark.parametrize("nu", [0.0, -1.0, np.inf])
    def test_rejects_viscosity_that_is_not_positive_and_finite(self, nu):
        # checked once per run, by its SRFlow
        with pytest.raises(ValueError, match="viscosity must be positive and finite"):
            SRFlow(1.0, nu, 1e-3, VectorField.zeros(Grid(16)))

    def test_rejects_wall_data_mismatch(self):
        g = Grid(16)
        u = through_flow(g)
        with pytest.raises(CheckFailure):
            SRState(0.0, u, divergence(u), BoundaryTrace.zeros(g))

    def test_rejects_divergence_drift(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        u = vortex(g) + z0
        with pytest.raises(CheckFailure):
            SRState(0.0, u, ScalarField.zeros(g), normal_trace(u))

    def test_rejects_partial_cache(self):
        g = Grid(16)
        u = through_flow(g)
        with pytest.raises(ValueError):
            SRState(0.0, u, divergence(u), normal_trace(u), v=u, z=None)

    def test_rejects_nonpositive_relaxation_rate(self):
        # checked once per run, by its SRFlow
        with pytest.raises(ValueError, match="relaxation rate must be positive, got 0.0"):
            SRFlow(0.0, 0.02, 1e-3, VectorField.zeros(Grid(16)))


class TestStepConstructive:
    def test_reduction_matches_reference_per_step(self):
        g = Grid(32)
        u0 = vortex(g)
        nu, dt = 0.01, 2e-3
        p = flow(g, nu, dt, lam=1.0)
        s = sr_state(u0)
        ref = u0
        for _ in range(5):
            s = step_constructive(p, s)
            ref = step_nse_projection(ref, dt, nu)
            assert (s.u - ref).max_abs() <= 1e-8

    def test_reduction_is_lambda_independent(self):
        g = Grid(32)
        u0 = vortex(g)
        finals = []
        for lam in (0.5, 1.0, 5.0):
            p = flow(g, 0.01, 2e-3, lam=lam)
            s = sr_state(u0)
            for _ in range(5):
                s = step_constructive(p, s)
            finals.append(s.u)
        assert (finals[0] - finals[1]).max_abs() <= 1e-8
        assert (finals[1] - finals[2]).max_abs() <= 1e-8

    def test_solvability_gap_stays_at_roundoff(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        p = flow(g, 0.02, 4e-3, lam=1.0)
        s = sr_state(vortex(g) + z0)
        assert abs(solvability_gap(s.g, s.h)) <= 1e-12
        for _ in range(25):
            s = step_constructive(p, s)
            assert abs(solvability_gap(s.g, s.h)) <= 1e-9
            scale = max(1.0, s.u.max_abs())
            assert trace_gap(normal_trace(s.u), s.h) <= 1e-8 * scale

    def test_boundary_relaxation_decays_exactly(self):
        g = Grid(16)
        u0 = through_flow(g)
        lam, dt = 5.0, 0.02
        p = flow(g, 0.01, dt, lam=lam)
        s = sr_state(u0)
        h0 = s.h
        for n in range(1, 101):
            s = step_constructive(p, s)
            assert scalar_norm(s.g) <= 1e-12
            exact = h0 * math.exp(-lam * n * dt)
            assert trace_gap(s.h, exact) <= 1e-12
            assert trace_gap(normal_trace(s.u), s.h) <= 1e-12
        # by t = 10/lam the normal flux is gone to 1e-4
        assert s.h.max_abs() <= 1e-4

    def test_dirichlet_divergence_decay_rate(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        nu, T, n = 0.02, 0.2, 100
        p = flow(g, nu, T / n, lam=1.0)
        s = sr_state(vortex(g) + z0)
        d0 = scalar_norm(divergence(s.u))
        for _ in range(n):
            s = step_constructive(p, s)
        ratio = scalar_norm(divergence(s.u)) / d0
        analytic = math.exp(-2 * math.pi ** 2 * nu * T)
        assert abs(ratio / analytic - 1.0) <= 1e-3
        assert ratio <= analytic * 1.01

    def test_detects_solvability_violation(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        u0 = vortex(g) + z0
        shifted = divergence(u0) - ScalarField(g, np.full(g.shape_cell, 1e-3))
        s = SRState(0.0, u0, shifted, normal_trace(u0), v=u0, z=VectorField.zeros(g))
        with pytest.raises(SolvabilityError):
            step_constructive(flow(g, 0.02, 1e-3, lam=1.0), s)

    def test_requires_cache_and_positive_step(self):
        g = Grid(16)
        s = sr_state(through_flow(g), decomposed=False)
        with pytest.raises(ValueError):
            step_constructive(flow(g, 0.02, 1e-3, lam=1.0), s)
        s2 = sr_state(through_flow(g))
        with pytest.raises(ValueError):
            step_constructive(flow(g, 0.02, 0.0, lam=1.0), s2)

    def test_cfl_violation_raises(self):
        g = Grid(16)
        s = sr_state(through_flow(g))
        with pytest.raises(CFLError):
            step_constructive(flow(g, 0.02, 1.0, lam=1.0), s)


class TestStepDirectSR:
    def test_reduction_matches_splitting_reference(self):
        g = Grid(32)
        u0 = vortex(g)
        nu, dt = 0.01, 2e-3
        p = flow(g, nu, dt, lam=1.0)
        s = sr_state(u0, decomposed=False)
        ref = u0
        for _ in range(50):
            s = step_direct_sr(p, s)
            ref = step_nse_splitting(ref, dt, nu)
        assert (s.u - ref).max_abs() <= 1e-7

    def test_cross_route_gap_is_first_order(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        u0 = vortex(g) + z0
        T = 0.1
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            n = round(T / dt)
            p = flow(g, 0.02, dt, lam=1.0)
            sc = sr_state(u0)
            sd = sr_state(u0, decomposed=False)
            for _ in range(n):
                sc = step_constructive(p, sc)
                sd = step_direct_sr(p, sd)
            errs.append(face_norm(sc.u - sd.u))
        assert math.log2(errs[0] / errs[1]) >= 0.9
        assert math.log2(errs[1] / errs[2]) >= 0.9

    def test_boundary_divergence_small_in_example_run(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-3)
        p = flow(g, 0.02, 1e-3, lam=1.0)
        s = sr_state(vortex(g) + z0, decomposed=False)
        worst = boundary_divergence_max(s)
        for _ in range(100):
            s = step_direct_sr(p, s)
            worst = max(worst, boundary_divergence_max(s))
        assert worst <= 1e-6

    def test_boundary_divergence_strict_at_fine_grid(self):
        g = Grid(64)
        _, _, z0 = matched_lift(g, 1e-3)
        p = flow(g, 0.02, 1e-3, lam=1.0)
        s = sr_state(vortex(g) + z0, decomposed=False)
        worst = boundary_divergence_max(s)
        for _ in range(100):
            s = step_direct_sr(p, s)
            worst = max(worst, boundary_divergence_max(s))
        assert worst <= 1e-7

    def test_walls_follow_relaxed_boundary_data(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        p = flow(g, 0.02, 1e-3, lam=2.0)
        s = sr_state(vortex(g) + z0, decomposed=False)
        for _ in range(10):
            s = step_direct_sr(p, s)
            assert trace_gap(normal_trace(s.u), s.h) == 0.0

    def test_misassembled_constant_is_detected(self, monkeypatch):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        s = sr_state(vortex(g) + z0, decomposed=False)
        real = ens_sr.compat_constant
        monkeypatch.setattr(ens_sr, "compat_constant",
                            lambda *args: real(*args) + 0.1)
        with pytest.raises(CompatibilityError):
            step_direct_sr(flow(g, 0.02, 1e-3, lam=1.0), s)

    @pytest.mark.parametrize("lam", [2.0, 1e12])
    def test_misassembled_constant_is_detected_on_flux_free_walls(self, lam, monkeypatch):
        # on the vortex's walls, which carry no flux, the lambda terms of the
        # wall data and of the constant cancel to round-off at lambda = 1e12
        # too: the step passes, and an offset of 0.1 is the net source 4 * 0.1
        g = Grid(32)
        p = flow(g, 0.02, 1e-3, lam=lam)
        s = step_direct_sr(p, sr_state(vortex(g), decomposed=False))
        real = ens_sr.compat_constant
        monkeypatch.setattr(ens_sr, "compat_constant", lambda *args: real(*args) + 0.1)
        with pytest.raises(CompatibilityError, match="net source 4.000e-01"):
            step_direct_sr(p, s)

    def test_constant_off_by_one_is_detected(self, monkeypatch):
        # the step assembles the pressure source with its own transport and
        # forcing and must still reject a compatibility constant that is off
        g = Grid(16)
        _, _, z0 = matched_lift(g, 1e-2)
        p = flow(g, 0.02, 1e-3, lam=1.0)
        s = sr_state(vortex(g) + z0, decomposed=False)
        step_direct_sr(p, s)
        real = ens_sr.compat_constant
        monkeypatch.setattr(ens_sr, "compat_constant",
                            lambda *args: real(*args) + 1.0)
        with pytest.raises(CompatibilityError):
            step_direct_sr(p, s)


class TestPressureSource:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_wall_row_assembly_matches_literal(self, n, seed):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        p = flow(g, 0.03, 1e-3, lam=1.5)
        s = sr_state(random_vector(g, rng), decomposed=False)
        fa = random_vector(g, rng)
        rhs, _, total, scale = ens_sr._pressure_source(p, s, fa)
        ref, ref_total = literal_source(p, s, fa)
        assert scalar_norm(rhs - ref) <= 1e-13 * scalar_norm(ref)
        assert abs(total - ref_total) <= 1e-13 * scale
        assert scale == max(1.0, scalar_norm(rhs))

    @pytest.mark.parametrize("n", [4, 7, 16])
    def test_overflowing_sum_of_squares_gives_a_finite_scale(self, n):
        # entries near 1e200 square past the float range; the scale is still
        # the norm of the source, with no numpy warning on the way
        g = Grid(n)
        rng = np.random.default_rng(n)
        s = sr_state(random_vector(g, rng), decomposed=False)
        fa = random_vector(g, rng) * 1e200
        rhs, _, total, scale = ens_sr._pressure_source(flow(g, 0.03, 1e-3, lam=1.5), s, fa)
        assert scale == pytest.approx(g.h * math.hypot(*rhs.values.ravel()), rel=1e-13)
        assert abs(total) <= 1e-8 * scale

    @pytest.mark.parametrize("cc", [math.inf, math.nan])
    def test_non_finite_net_source_is_incompatible(self, cc, monkeypatch):
        g = Grid(16)
        s = sr_state(vortex(g), decomposed=False)
        monkeypatch.setattr(ens_sr, "compat_constant", lambda *args: cc)
        with pytest.raises(CompatibilityError, match="net source"):
            ens_sr._pressure_source(flow(g, 0.02, 1e-3, lam=1.0), s, VectorField.zeros(g))

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_off_constant_is_detected_with_wall_flux_and_forcing(self, n, monkeypatch):
        g = Grid(n)
        u0 = initial_velocity(g, "sr", "boundary_flux")
        p = flow(g, 0.1, 1e-3, forcing_field(g, "rotational", 1.0, 0.1), lam=2.0)
        s = sr_state(u0, decomposed=False)
        step_direct_sr(p, s)
        real = ens_sr.compat_constant
        monkeypatch.setattr(ens_sr, "compat_constant",
                            lambda *args: real(*args) + 1.0)
        with pytest.raises(CompatibilityError, match="net source"):
            step_direct_sr(p, s)

    def test_direct_run_takes_three_divergences_a_step(self, monkeypatch):
        # a direct step needs div(f - a) for the pressure source, div u* for
        # the repair and div u+ for the new state; every other reader of
        # div u takes the state's copy
        real, calls = grid_module.divergence, []

        def counted(w):
            calls.append(w)
            return real(w)

        for name, module in list(sys.modules.items()):
            if name.startswith("enslab") and getattr(module, "divergence", None) is real:
                monkeypatch.setattr(module, "divergence", counted)
        g, n = Grid(16), 10
        cfg = Config(system="sr", nu=0.1, dt=1e-3, horizon=n * 1e-3, grid=16,
                     route="direct", lam=2.0)
        u0 = initial_velocity(g, "sr", "boundary_flux")
        p = flow(g, 0.1, 1e-3, forcing_field(g, "rotational", 1.0, 0.1), lam=2.0)
        for s in march(partial(step_direct_sr, p), sr_state(u0, decomposed=False), n):
            cli._field_metrics(cfg, s)
            boundary_divergence_max(s)
        assert len(calls) <= 3 * n + 2


class TestIntegrateSR:
    def test_history_includes_initial_state(self):
        g = Grid(16)
        s = sr_state(through_flow(g))
        hist = list(march(partial(step_constructive, flow(g, 0.02, 1e-2, lam=1.0)), s, 3))
        assert len(hist) == 4
        assert hist[0] is s
        assert abs(hist[-1].time - 3e-2) <= 1e-12


class TestGapSubsystem:
    def test_unbalanced_gap_decays_by_exact_factor(self):
        g = Grid(32)
        lam, dt = 1.5, 5e-3
        hist = sr_gap_run(sinsin(g), BoundaryTrace.zeros(g), flow(g, 0.02, dt, lam=lam), 40)
        gap0 = solvability_gap(hist[0][0], hist[0][1])
        assert abs(gap0) > 0.1
        for n, (gs, hs) in enumerate(hist):
            gap = solvability_gap(gs, hs)
            expected = math.exp(-lam * n * dt) * gap0
            assert abs(gap - expected) <= 1e-12 * max(1.0, abs(gap0))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1),
           lam=st.floats(1e-2, 1e2), dt=st.floats(1e-4, 1e-1), nu=st.floats(1e-3, 1.0))
    def test_gap_decays_by_exact_factor_each_step(self, n, seed, lam, dt, nu):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        g0 = ScalarField(g, rng.standard_normal(g.shape_cell))
        h0 = BoundaryTrace(g, *(rng.standard_normal(n) for _ in range(4)))
        hist = sr_gap_run(g0, h0, flow(g, nu, dt, lam=lam), 4)
        for (gs, hs), (gs1, hs1) in zip(hist, hist[1:]):
            scale = max(1.0, scalar_norm(gs), hs.max_abs())
            excess = solvability_gap(gs1, hs1) - math.exp(-lam * dt) * solvability_gap(gs, hs)
            assert abs(excess) <= GAP_DECAY_TOL * scale

    def test_runs_the_constructive_update(self):
        # criteria 8 and 9 judge sr_gap_run, so its (g, h) must be the
        # constructive route's own, bit for bit
        g = Grid(16)
        _, _, z0 = matched_lift(g, 1e-2)
        p = flow(g, 0.02, 4e-3, lam=1.5)
        s = sr_state(vortex(g) + z0)
        hist = sr_gap_run(s.g, s.h, p, 3)
        for gs, hs in hist[1:]:
            s = step_constructive(p, s)
            assert np.array_equal(s.g.values, gs.values)
            assert all(np.array_equal(a, b) for a, b in zip(s.h.arrays, hs.arrays))


class TestDuhamel:
    def test_closed_form_matches_stepped_updates(self):
        g = Grid(32)
        lam, nu, dt, n = 2.0, 0.05, 0.02, 10
        h0 = BoundaryTrace.constant(g, 0.3)
        hist = sr_gap_run(sinsin(g), h0, flow(g, nu, dt, lam=lam), n)
        cbars = [step_average_constant(integral(hist[k][0]), integral(hist[k + 1][0]),
                                       lam, dt)
                 for k in range(n)]
        closed = duhamel_closed_form(h0, cbars, lam, dt)
        assert trace_gap(closed, hist[-1][1]) <= 1e-8

    def test_stepped_update_is_second_order_against_quadrature(self):
        g = Grid(32)
        lam, nu, T = 2.0, 0.05, 0.2
        g0 = sinsin(g)
        h0 = BoundaryTrace.constant(g, 0.3)
        nfine = 160
        dtf = T / nfine
        fine = sr_gap_run(g0, h0, flow(g, nu, dtf, lam=lam), nfine)
        times = np.array([k * dtf for k in range(nfine + 1)])
        samples = np.array([compat_constant(gs, nu, lam, integral(gs)) for gs, _ in fine])
        href = duhamel_quadrature(h0, times, samples, lam)

        def stepped(dt):
            n = round(T / dt)
            hist = sr_gap_run(g0, h0, flow(g, nu, dt, lam=lam), n)
            return hist[-1][1]

        e1 = trace_gap(stepped(0.02), href)
        e2 = trace_gap(stepped(0.01), href)
        assert e1 / e2 == pytest.approx(4.0, abs=0.8)

    def test_quadrature_validates_samples(self):
        h0 = BoundaryTrace.zeros(Grid(16))
        with pytest.raises(ValueError):
            duhamel_quadrature(h0, [0.0, 0.1], [1.0, 2.0, 3.0], 1.0)
        with pytest.raises(ValueError):
            duhamel_quadrature(h0, [0.0, 0.1], [1.0, 2.0], 1.0)


class TestPressurePoisson:
    @staticmethod
    def solve(p, s):
        """The pressure source of the run's forcing and the state's
        transport, and the Neumann solve of it."""
        fa = p.forcing - skew_advect(s.u, s.u)
        rhs, _, total, scale = ens_sr._pressure_source(p, s, fa)
        return neumann_solve(rhs), total / scale

    def test_assembled_system_is_compatible(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        s = sr_state(vortex(g) + z0, decomposed=False)
        q, relative = self.solve(flow(g, 0.02, 1e-3, lam=1.0), s)
        assert abs(relative) <= 1e-10
        assert abs(integral(q)) <= 1e-12
        assert math.isfinite(scalar_norm(q))

    def test_compatibility_holds_along_direct_run(self):
        g = Grid(32)
        _, _, z0 = matched_lift(g, 1e-2)
        p = flow(g, 0.02, 1e-3, lam=1.0)
        s = sr_state(vortex(g) + z0, decomposed=False)
        for _ in range(5):
            s = step_direct_sr(p, s)
            assert abs(self.solve(p, s)[1]) <= 1e-10
