import sys

import numpy as np
import pytest

from enslab.errors import CFLError, CheckFailure
from enslab.grid import (
    Grid,
    ScalarField,
    VectorField,
    divergence,
    face_inner,
    face_norm,
    gradient,
    scalar_from_function,
    scalar_norm,
    vector_from_stream,
    vector_laplacian,
)
from enslab.heat_oracle import DivergenceState, divergence_state, heat_step
from enslab.reference import ForcingSpec, step_nse_projection
from enslab.scenarios import forcing_spec, initial_velocity, march
from enslab.stokes_lift import decompose, lift_divergence, leray_project
from enslab import ens_jl, linsolve
from oracles import (
    check_stokes_pressure, coercivity_probe, fold_energy_ledger, jl_direct_composed,
    stokes_pressure, unflatten_interior,
)


def vortex(grid, amplitude=1.0):
    x = grid.node_x()[:, None]
    y = grid.node_y()[None, :]
    psi = amplitude * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2 / np.pi
    return vector_from_stream(grid, psi)


def eigen_lift(grid, eps):
    g0 = scalar_from_function(
        grid, lambda x, y: eps * np.cos(np.pi * x) * np.cos(np.pi * y))
    z0 = lift_divergence(g0)
    return g0, z0


class TestJLState:
    def test_constructor_builds_consistent_state(self):
        g = Grid(16)
        s = ens_jl.jl_state(vortex(g), 0.1)
        assert s.decomposed
        assert s.g.bc == "neumann"
        assert (s.u - (s.v + s.z)).max_abs() == 0.0

    def test_direct_state_has_no_cache(self):
        g = Grid(16)
        s = ens_jl.jl_state(vortex(g), 0.1, decomposed=False)
        assert not s.decomposed

    def test_rejects_dirichlet_divergence_state(self):
        g = Grid(16)
        u = vortex(g)
        wrong = divergence_state(divergence(u), "dirichlet", 0.1)
        with pytest.raises(ValueError):
            ens_jl.JLState(0.0, u, wrong, 0.1, ForcingSpec.zero())

    def test_rejects_divergence_drift(self):
        g = Grid(16)
        _, z0 = eigen_lift(g, 1e-2)
        fake = divergence_state(ScalarField.zeros(g), "neumann", 0.1)
        with pytest.raises(CheckFailure):
            ens_jl.JLState(0.0, z0, fake, 0.1, ForcingSpec.zero())

    def test_rejects_partial_cache(self):
        g = Grid(16)
        u = vortex(g)
        gs = divergence_state(divergence(u), "neumann", 0.1)
        with pytest.raises(ValueError):
            ens_jl.JLState(0.0, u, gs, 0.1, ForcingSpec.zero(), v=u, z=None)

    def test_rejects_cache_that_does_not_reconstruct(self):
        g = Grid(16)
        u = vortex(g)
        s = ens_jl.jl_state(u, 0.1)
        with pytest.raises(CheckFailure):
            ens_jl.JLState(0.0, u, s.g, 0.1, s.forcing, s.v * 0.5, s.z)


class TestStepDecomposed:
    def test_divergence_free_reduction_matches_reference(self):
        g = Grid(32)
        u0 = vortex(g)
        s = ens_jl.jl_state(u0, 0.1)
        r = u0
        for k in range(5):
            s = ens_jl.step_decomposed(s, 1e-3)
            r = step_nse_projection(r, k * 1e-3, 1e-3, 0.1, None, order=2)
            assert (s.u - r).max_abs() <= 1e-8
            assert scalar_norm(divergence(s.u)) <= 1e-10

    def test_lift_divergence_tracks_heat_oracle(self):
        g = Grid(32)
        g0, z0 = eigen_lift(g, 1e-3)
        s = ens_jl.jl_state(z0, 0.1)
        assert face_norm(s.v) <= 1e-12
        hist = list(march(ens_jl.step_decomposed, s, 1e-3, 30))
        oracle = list(march(heat_step, divergence_state(g0, "neumann", 0.1), 1e-3, 30))
        for st, o in zip(hist, oracle):
            assert scalar_norm(divergence(st.u) - o.g) <= 1e-10

    def test_reconstruction_exact_along_trajectory(self):
        g = Grid(16)
        g0, z0 = eigen_lift(g, 1e-2)
        s = ens_jl.jl_state(vortex(g, 0.3) + z0, 0.1)
        for _ in range(5):
            s = ens_jl.step_decomposed(s, 1e-3)
            assert (s.u - (s.v + s.z)).max_abs() <= 1e-13 * max(1.0, s.u.max_abs())

    def test_lift_forms_no_pressure_and_decompose_keeps_it(self, monkeypatch):
        # every solve of a step passes pressure=False; decompose, whose q
        # becomes pressure_q.ensf, asks for it
        g = Grid(16)
        s = ens_jl.jl_state(vortex(g, 0.3) + eigen_lift(g, 1e-2)[1], 0.1)
        calls, real = [], linsolve.GeneralizedStokes.solve

        def spy(self, *args, pressure=True, **kwargs):
            calls.append((self.alpha, pressure))
            return real(self, *args, pressure=pressure, **kwargs)

        monkeypatch.setattr(linsolve.GeneralizedStokes, "solve", spy)
        ens_jl.step_decomposed(s, 1e-3)
        assert (0.0, False) in calls and all(not kept for _, kept in calls)
        calls.clear()
        dec = decompose(s.u)
        assert calls == [(0.0, True)] and scalar_norm(dec.q) > 0.0

    def test_cfl_violation_raises(self):
        g = Grid(16)
        s = ens_jl.jl_state(vortex(g), 0.1)
        with pytest.raises(CFLError):
            ens_jl.step_decomposed(s, 1.0)

    def test_nonpositive_dt_raises(self):
        g = Grid(16)
        s = ens_jl.jl_state(vortex(g), 0.1)
        with pytest.raises(ValueError):
            ens_jl.step_decomposed(s, 0.0)

    def test_missing_cache_raises(self):
        g = Grid(16)
        s = ens_jl.jl_state(vortex(g), 0.1, decomposed=False)
        with pytest.raises(ValueError):
            ens_jl.step_decomposed(s, 1e-3)

    def test_forced_run_carries_forcing(self):
        g = Grid(16)
        f = ForcingSpec(lambda x, y, t: np.sin(np.pi * x) * np.sin(2 * np.pi * y) * np.cos(t),
                        lambda x, y, t: 0.0 * x)
        s = ens_jl.jl_state(vortex(g, 0.1), 0.1, forcing=f)
        s2 = ens_jl.step_decomposed(s, 1e-3)
        s_un = ens_jl.jl_state(vortex(g, 0.1), 0.1)
        s2_un = ens_jl.step_decomposed(s_un, 1e-3)
        assert (s2.u - s2_un.u).max_abs() > 1e-7


class TestStepDirect:
    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_matches_composed_chain_each_step(self, n):
        g = Grid(n)
        u0 = initial_velocity(g, "jl", "lift_plus_flow")
        s = ens_jl.jl_state(u0, 0.1, forcing_spec("rotational"), decomposed=False)
        dt = 0.25 * g.h / u0.max_abs()
        for _ in range(4):
            got, want = ens_jl.step_direct(s, dt), jl_direct_composed(s, dt)
            assert got.time == want.time
            assert np.array_equal(got.g.g.values, want.g.g.values)
            assert (got.u - want.u).max_abs() <= 1e-13 * want.u.max_abs()
            s = got

    def test_one_generalized_stokes_solve_with_the_heat_step_as_data(self, monkeypatch):
        grid = Grid(16)
        s = ens_jl.jl_state(initial_velocity(grid, "jl", "lift_plus_flow"), 0.1,
                            forcing_spec("rotational"), decomposed=False)

        def forbidden(*args, **kwargs):
            raise AssertionError("the direct step formed a potential")
        for name in ("neumann_poisson", "gradient", "vector_laplacian"):
            monkeypatch.setattr(ens_jl, name, forbidden, raising=False)
            for mod in [m for k, m in sys.modules.items() if k.startswith("enslab")]:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, forbidden)
        calls = []
        solve = linsolve.GeneralizedStokes.solve

        def counted(self, f=None, g=None, trace=None, **kwargs):
            calls.append((self.alpha, self.c, f, g, trace, kwargs))
            return solve(self, f, g, trace, **kwargs)
        monkeypatch.setattr(linsolve.GeneralizedStokes, "solve", counted)
        sp = ens_jl.step_direct(s, 1e-3)
        assert len(calls) == 1
        alpha, c, f, gdata, trace, kwargs = calls[0]
        assert (alpha, c, trace, kwargs) == (1.0, 0.1 * 1e-3, None, {"pressure": False})
        assert f is not None and gdata is sp.g.g

    def test_zero_data_stays_zero(self):
        g = Grid(16)
        s = ens_jl.jl_state(VectorField.zeros(g), 0.1, decomposed=False)
        for _ in range(5):
            s = ens_jl.step_direct(s, 1e-3)
            assert s.u.max_abs() <= 1e-15

    def test_divergence_matches_state_g_tightly(self):
        g = Grid(32)
        g0, z0 = eigen_lift(g, 1e-2)
        s = ens_jl.jl_state(vortex(g, 0.5) + z0, 0.1, decomposed=False)
        for _ in range(10):
            s = ens_jl.step_direct(s, 1e-3)
            assert scalar_norm(divergence(s.u) - s.g.g) <= 1e-11

    def test_divergence_free_reduction_keeps_divergence(self):
        g = Grid(32)
        s = ens_jl.jl_state(vortex(g), 0.1, decomposed=False)
        for _ in range(10):
            s = ens_jl.step_direct(s, 1e-3)
        assert scalar_norm(divergence(s.u)) <= 1e-10

    def test_cross_route_gap_first_order_in_dt(self):
        g = Grid(32)
        g0, z0 = eigen_lift(g, 1e-1)
        u1 = vortex(g) + z0
        T = 0.08
        gaps = []
        for dt in (4e-3, 2e-3, 1e-3):
            sa = ens_jl.jl_state(u1, 0.1)
            sb = ens_jl.jl_state(u1, 0.1, decomposed=False)
            for _ in range(round(T / dt)):
                sa = ens_jl.step_decomposed(sa, dt)
                sb = ens_jl.step_direct(sb, dt)
            gaps.append(face_norm(sa.u - sb.u))
        assert gaps[0] > gaps[1] > gaps[2]
        assert np.log2(gaps[0] / gaps[1]) >= 0.9
        assert np.log2(gaps[1] / gaps[2]) >= 0.9

    def test_divergence_error_against_oracle_first_order(self):
        g = Grid(32)
        g0, z0 = eigen_lift(g, 1e-2)
        T = 0.05
        errs = []
        for dt in (5e-3, 2.5e-3, 1.25e-3):
            s = ens_jl.jl_state(z0, 0.1, decomposed=False)
            oracle = list(march(heat_step, divergence_state(g0, "neumann", 0.1), dt, round(T / dt)))
            for _ in range(round(T / dt)):
                s = ens_jl.step_direct(s, dt)
            errs.append(scalar_norm(divergence(s.u) - oracle[-1].g))
        assert errs[0] > errs[1] > errs[2]
        assert np.log2(errs[0] / errs[1]) >= 0.9


class TestStokesPressure:
    def test_gradient_matches_projection_complement_for_divergence_free(self):
        g = Grid(32)
        u = vortex(g)
        lap = vector_laplacian(u)
        target = lap - leray_project(lap)
        p = stokes_pressure(u)
        err = face_norm(gradient(p) - target)
        assert err <= 1e-10 * max(1.0, face_norm(lap))

    def test_harmonicity_interior_residual_small_for_smooth_stream_fields(self):
        for n, amp in ((32, 1.0), (64, 0.5)):
            g = Grid(n)
            rec = check_stokes_pressure(vortex(g, amp))
            assert rec["relative"] <= 1e-6

    def test_harmonicity_recorded_for_rough_fields(self):
        g = Grid(32)
        rng = np.random.default_rng(3)
        psi = np.zeros((33, 33))
        psi[2:-2, 2:-2] = rng.standard_normal((29, 29))
        rec = check_stokes_pressure(vector_from_stream(g, psi))
        assert np.isfinite(rec["residual_interior"])


class TestEnergyLedger:
    def test_unforced_divergence_free_run_decays(self):
        g = Grid(32)
        s = ens_jl.jl_state(vortex(g), 0.1)
        hist = list(march(ens_jl.step_decomposed, s, 1e-3, 20))
        rec = fold_energy_ledger(hist)
        assert rec["energy_increase_max"] <= 1e-10
        assert rec["envelope_margin_min"] >= -1e-12 * max(1.0, rec["envelope_final"])

    def test_imbalance_shrinks_at_second_order(self):
        g = Grid(32)
        g0, z0 = eigen_lift(g, 1e-1)
        u1 = vortex(g) + z0

        def imbalance(dt, n):
            hist = list(march(ens_jl.step_decomposed, ens_jl.jl_state(u1, 0.1), dt, n))
            return fold_energy_ledger(hist)["imbalance_max"]

        i1 = imbalance(2e-3, 10)
        i2 = imbalance(1e-3, 20)
        assert i1 / i2 >= 3.0

    def test_envelope_bounds_energy_for_pure_lift_data(self):
        g = Grid(32)
        g0, z0 = eigen_lift(g, 1e-3)
        hist = list(march(ens_jl.step_decomposed, ens_jl.jl_state(z0, 0.1), 1e-3, 50))
        rec = fold_energy_ledger(hist)
        assert rec["energy_final"] <= rec["envelope_final"]
        assert rec["envelope_margin_min"] >= -1e-12 * max(1.0, rec["envelope_final"])

    def test_record_holds_the_metrics_its_readers_read(self):
        # `enslab run` reads the envelope and the first energy, the lifecycle
        # demo the imbalance and the envelope margin, these tests the rest
        g = Grid(16)
        s = ens_jl.jl_state(vortex(g) + eigen_lift(g, 1e-2)[1], 0.1)
        hist = list(march(ens_jl.step_decomposed, s, 1e-3, 5))
        rec = fold_energy_ledger(hist)
        assert set(rec.metrics) == {
            "energy_initial", "energy_final", "envelope_final", "envelope_margin_min",
            "imbalance_max", "energy_increase_max"}
        assert rec.time == hist[-1].time
        assert rec["energy_initial"] == face_inner(hist[0].v, hist[0].v)
        assert rec["energy_final"] == face_inner(hist[-1].v, hist[-1].v)
        assert rec["envelope_margin_min"] <= rec["envelope_final"] - rec["energy_final"]

    def test_requires_cache_and_two_states(self):
        g = Grid(16)
        s = ens_jl.jl_state(vortex(g), 0.1, decomposed=False)
        with pytest.raises(ValueError):
            fold_energy_ledger([s, s])
        s2 = ens_jl.jl_state(vortex(g), 0.1)
        with pytest.raises(ValueError):
            fold_energy_ledger([s2])


class TestCoercivityProbe:
    def test_divergence_free_input_has_vanishing_remainder(self):
        g = Grid(32)
        rec = coercivity_probe(vortex(g))
        assert abs(rec["relative"]) <= 1e-8

    def test_lift_input_has_nonzero_remainder_with_recorded_sign(self):
        g = Grid(32)
        _, z0 = eigen_lift(g, 1e-1)
        rec = coercivity_probe(z0)
        assert abs(rec["remainder"]) > 0.0
        assert rec["sign"] in (-1.0, 1.0)

    def test_random_scan_finds_both_signs(self):
        g = Grid(32)
        rng = np.random.default_rng(42)
        n = (g.nx - 1) * g.ny + g.nx * (g.ny - 1)
        signs = set()
        for _ in range(100):
            u = unflatten_interior(g, rng.standard_normal(n))
            signs.add(np.sign(coercivity_probe(u)["remainder"]))
        assert 1.0 in signs and -1.0 in signs

    def test_rejects_nonzero_walls(self):
        g = Grid(16)
        u = np.ones(g.shape_u)
        v = np.zeros(g.shape_v)
        with pytest.raises(ValueError):
            coercivity_probe(VectorField(g, u, v))
