"""Linear solvers: assembled operators, cached factorizations, Stokes solves."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from enslab import linsolve

from enslab.errors import CompatibilityError, SolverError
from enslab.grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    divergence,
    gradient,
    integral,
    laplacian_dirichlet,
    laplacian_neumann,
    mean,
    scalar_norm,
    vector_laplacian,
)
from enslab.linsolve import (
    STOKES_TOL,
    NeumannPoisson,
    NoslipHelmholtz,
    dense_stokes_solve,
    divergence_matrix,
    flatten_interior,
    generalized_stokes,
    heat_solver,
    htilde_solver,
    laplacian_dirichlet_matrix,
    laplacian_neumann_matrix,
    neumann_poisson,
    noslip_viscous_matrix,
    unflatten_interior,
)
from enslab.stokes_lift import leray_project


class TestMatrixAssemblies:
    @pytest.mark.parametrize("n", [8, 16])
    def test_neumann_matrix_matches_grid_operator(self, n):
        g = Grid(n)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal(g.shape_cell)
        ref = laplacian_neumann(ScalarField(g, vals)).values
        got = (laplacian_neumann_matrix(g) @ vals.ravel()).reshape(g.shape_cell)
        assert np.allclose(got, ref, rtol=0, atol=1e-11 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("n", [8, 16])
    def test_dirichlet_matrix_matches_grid_operator(self, n):
        g = Grid(n)
        rng = np.random.default_rng(n + 1)
        vals = rng.standard_normal(g.shape_cell)
        ref = laplacian_dirichlet(ScalarField(g, vals)).values
        got = (laplacian_dirichlet_matrix(g) @ vals.ravel()).reshape(g.shape_cell)
        assert np.allclose(got, ref, rtol=0, atol=1e-11 * max(1.0, np.abs(ref).max()))

    def test_viscous_matrix_matches_grid_operator_on_interior(self):
        g = Grid(8)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(g.shape_u)
        v = rng.standard_normal(g.shape_v)
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
        w = VectorField(g, u, v)
        ref = -flatten_interior(vector_laplacian(w, "noslip"))
        got = noslip_viscous_matrix(g) @ flatten_interior(w)
        assert np.allclose(got, ref, rtol=0, atol=1e-11 * max(1.0, np.abs(ref).max()))

    def test_viscous_matrix_is_spd(self):
        g = Grid(8)
        K = noslip_viscous_matrix(g).toarray()
        assert np.abs(K - K.T).max() == 0.0
        assert np.linalg.eigvalsh(K).min() > 0.0

    def test_flatten_unflatten_roundtrip(self):
        g = Grid(8)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((g.nx - 1) * g.ny + g.nx * (g.ny - 1))
        assert np.array_equal(flatten_interior(unflatten_interior(g, x)), x)
        tr = BoundaryTrace.constant(g, 2.5)
        w = unflatten_interior(g, x, tr)
        assert np.all(w.u[0, :] == -2.5) and np.all(w.u[-1, :] == 2.5)


class TestNeumannPoisson:
    def test_compatible_solve_is_exact(self):
        g = Grid(16)
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal(g.shape_cell)
        rhs -= rhs.mean()
        sol = neumann_poisson(g).solve(ScalarField(g, rhs))
        assert abs(mean(sol)) <= 1e-13
        res = laplacian_neumann(sol).values - rhs
        assert np.abs(res).max() <= 1e-10 * np.abs(rhs).max()

    def test_incompatible_rhs_answers_mean_zero_part(self):
        g = Grid(8)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal(g.shape_cell) + 5.0
        sol = NeumannPoisson(g).solve(ScalarField(g, rhs))
        res = laplacian_neumann(sol).values - (rhs - rhs.mean())
        assert np.abs(res).max() <= 1e-10 * np.abs(rhs).max()

    def test_cache_returns_same_instance(self):
        g = Grid(8)
        assert neumann_poisson(g) is neumann_poisson(Grid(8))

    def test_htilde_solver_roundtrip(self):
        g = Grid(16)
        rng = np.random.default_rng(10)
        b = rng.standard_normal(g.nx * g.ny)
        x = htilde_solver(g)(b)
        field = ScalarField(g, x.reshape(g.shape_cell))
        back = x - laplacian_neumann(field).values.ravel()
        assert np.linalg.norm(back - b) <= 1e-10 * np.linalg.norm(b)


class TestHeatSolvers:
    def test_cn_neumann_conserves_mass(self):
        g = Grid(32)
        rng = np.random.default_rng(12)
        vals = rng.standard_normal(g.shape_cell)
        step = heat_solver(g, a=0.1 * 1e-3, bc="neumann", theta="cn")
        out = step(vals)
        m0 = integral(ScalarField(g, vals))
        m1 = integral(ScalarField(g, out))
        assert abs(m1 - m0) <= 1e-12

    def test_be_dirichlet_contracts(self):
        g = Grid(16)
        rng = np.random.default_rng(13)
        vals = rng.standard_normal(g.shape_cell)
        step = heat_solver(g, a=0.05, bc="dirichlet", theta="be")
        out = step(vals)
        assert scalar_norm(ScalarField(g, out)) < scalar_norm(ScalarField(g, vals))

    def test_unknown_bc_rejected(self):
        with pytest.raises(ValueError):
            heat_solver(Grid(8), a=0.1, bc="robin")


class TestNoslipHelmholtz:
    def test_homogeneous_solve_satisfies_equation(self):
        g = Grid(16)
        rng = np.random.default_rng(14)
        c = 0.01
        u = rng.standard_normal(g.shape_u)
        v = rng.standard_normal(g.shape_v)
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
        rhs = VectorField(g, u, v)
        x = NoslipHelmholtz(g, c).solve(rhs)
        lap = vector_laplacian(x, "noslip")
        res = flatten_interior(x) - c * flatten_interior(lap) - flatten_interior(rhs)
        assert np.abs(res).max() <= 1e-10 * max(1.0, np.abs(flatten_interior(rhs)).max())
        assert np.all(x.u[0, :] == 0.0) and np.all(x.v[:, 0] == 0.0)

    def test_wall_data_solve_recovers_manufactured_field(self):
        g = Grid(8)
        rng = np.random.default_rng(15)
        c = 0.02
        tr = BoundaryTrace(g, rng.standard_normal(g.ny), rng.standard_normal(g.ny),
                           rng.standard_normal(g.nx), rng.standard_normal(g.nx))
        y = rng.standard_normal((g.nx - 1) * g.ny + g.nx * (g.ny - 1))
        K = noslip_viscous_matrix(g)
        h2 = g.h * g.h
        bu = np.zeros((g.nx - 1, g.ny))
        bv = np.zeros((g.nx, g.ny - 1))
        bu[0, :] = -tr.left / h2
        bu[-1, :] = tr.right / h2
        bv[:, 0] = -tr.bottom / h2
        bv[:, -1] = tr.top / h2
        fold = np.concatenate([bu.ravel(), bv.ravel()])
        rhs_flat = y + c * (K @ y) - c * fold
        rhs = unflatten_interior(g, rhs_flat)
        x = NoslipHelmholtz(g, c).solve(rhs, tr)
        assert np.allclose(flatten_interior(x), y, atol=1e-10)
        assert np.allclose(x.u[0, :], -tr.left)
        assert np.allclose(x.v[:, -1], tr.top)


def coscos(grid, k=1, m=1):
    x = grid.cell_x()[:, None]
    y = grid.cell_y()[None, :]
    return ScalarField(grid, np.cos(k * np.pi * x) * np.cos(m * np.pi * y))


def lift(gsrc, trace=None):
    """The stationary Stokes lift: the generalized-Stokes solve at alpha = 0."""
    return generalized_stokes(gsrc.grid, 0.0, 1.0).solve(g=gsrc, trace=trace)


class TestStokesSolve:
    def test_zero_data_returns_zero(self):
        g = Grid(16)
        z, q, rep = lift(ScalarField(g, np.zeros(g.shape_cell)))
        assert np.all(z.u == 0.0) and np.all(z.v == 0.0) and np.all(q.values == 0.0)
        assert rep.iterations == 0

    def test_prescribed_divergence_residual(self):
        g = Grid(32)
        gsrc = coscos(g)
        z, q, rep = lift(gsrc)
        res = scalar_norm(divergence(z) - gsrc) / scalar_norm(gsrc)
        assert res <= 1e-9
        assert np.all(z.u[0, :] == 0.0) and np.all(z.v[:, -1] == 0.0)
        assert abs(mean(q)) <= 1e-12
        assert rep.residual <= 1e-9

    def test_momentum_residual_at_factorization_precision(self):
        g = Grid(16)
        gsrc = coscos(g)
        z, q, rep = lift(gsrc)
        K = noslip_viscous_matrix(g)
        mom = K @ flatten_interior(z) + flatten_interior(gradient(q))
        assert np.abs(mom).max() <= 1e-8 * max(1.0, np.abs(flatten_interior(z)).max() / g.h ** 2)

    def test_matches_dense_oracle(self):
        g = Grid(16)
        rng = np.random.default_rng(16)
        vals = rng.standard_normal(g.shape_cell)
        vals -= vals.mean()
        gsrc = ScalarField(g, vals)
        z1, q1, _ = lift(gsrc)
        z2, q2 = dense_stokes_solve(gsrc)
        assert np.abs(z1.u - z2.u).max() <= 1e-8 * max(1.0, np.abs(z2.u).max())
        assert np.abs(z1.v - z2.v).max() <= 1e-8 * max(1.0, np.abs(z2.v).max())
        assert np.abs(q1.values - q2.values).max() <= 1e-7 * max(1.0, np.abs(q2.values).max())

    def test_wall_data_flux_balance_solvable(self):
        # uniform source 4 balanced by unit outward boundary velocity
        g = Grid(16)
        gsrc = ScalarField(g, np.full(g.shape_cell, 4.0))
        tr = BoundaryTrace.constant(g, 1.0)
        z, q, rep = lift(gsrc, tr)
        assert rep.residual <= 1e-9
        assert np.allclose(z.u[-1, :], 1.0) and np.allclose(z.u[0, :], -1.0)
        res = scalar_norm(divergence(z) - gsrc) / scalar_norm(gsrc)
        assert res <= 1e-9

    def test_incompatible_data_raises(self):
        g = Grid(16)
        gsrc = ScalarField(g, np.zeros(g.shape_cell))
        with pytest.raises(CompatibilityError):
            lift(gsrc, BoundaryTrace.constant(g, 1.0))

    def test_wall_data_matches_dense_oracle(self):
        g = Grid(8)
        rng = np.random.default_rng(17)
        tr = BoundaryTrace(g, rng.standard_normal(g.ny), rng.standard_normal(g.ny),
                           rng.standard_normal(g.nx), rng.standard_normal(g.nx))
        flux = g.h * (tr.left.sum() + tr.right.sum() + tr.bottom.sum() + tr.top.sum())
        vals = rng.standard_normal(g.shape_cell)
        vals = vals - vals.mean() + flux  # cell volume integral = boundary flux
        gsrc = ScalarField(g, vals)
        z1, q1, _ = lift(gsrc, tr)
        z2, q2 = dense_stokes_solve(gsrc, tr)
        assert np.abs(z1.u - z2.u).max() <= 1e-8 * max(1.0, np.abs(z2.u).max())
        assert np.abs(q1.values - q2.values).max() <= 1e-7 * max(1.0, np.abs(q2.values).max())

    def test_dense_oracle_self_consistency(self):
        g = Grid(8)
        gsrc = coscos(g, 2, 1)
        z, q = dense_stokes_solve(gsrc)
        assert scalar_norm(divergence(z) - gsrc) <= 1e-10 * max(1.0, scalar_norm(gsrc))
        assert abs(mean(q)) <= 1e-12


def random_field(g, rng, walls=False):
    u = rng.standard_normal(g.shape_u)
    v = rng.standard_normal(g.shape_v)
    if not walls:
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
    return VectorField(g, u, v)


class TestGeneralizedStokes:
    @pytest.mark.parametrize("alpha,c", [(0.0, 1.0), (1.0, 0.03), (2.0, 0.0)])
    def test_velocity_block_matches_sparse_solve(self, alpha, c):
        g = Grid(16)
        rng = np.random.default_rng(20)
        b = rng.standard_normal((g.nx - 1) * g.ny + g.nx * (g.ny - 1))
        A = alpha * sp.identity(b.size) + c * noslip_viscous_matrix(g)
        x = spla.spsolve(A.tocsc(), b)
        got = generalized_stokes(g, alpha, c).velocity_solve(b)
        assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("c", [1e-3, 0.05])
    def test_matches_dense_alpha_one_oracle(self, c):
        # (I + c PKP) x = P f with P the Euclidean projector onto ker D
        g = Grid(16)
        rng = np.random.default_rng(21)
        f = random_field(g, rng, walls=True)
        D = divergence_matrix(g).toarray()
        P = np.eye(D.shape[1]) - D.T @ np.linalg.pinv(D @ D.T) @ D
        K = noslip_viscous_matrix(g).toarray()
        x = np.linalg.solve(np.eye(D.shape[1]) + c * P @ K @ P, P @ flatten_interior(f))
        u, _, rep = generalized_stokes(g, 1.0, c).solve(f)
        assert np.abs(flatten_interior(u) - x).max() <= 1e-11 * np.abs(x).max()
        assert np.all(u.u[0, :] == 0.0) and np.all(u.v[:, -1] == 0.0)
        assert rep.residual <= STOKES_TOL

    def test_exact_preconditioner_converges_in_one_iteration(self):
        # alpha = 1, c = 0: the preconditioner is the exact Schur inverse and
        # the solve is the Leray projection
        g = Grid(16)
        f = random_field(g, np.random.default_rng(22), walls=True)
        u, _, rep = generalized_stokes(g, 1.0, 0.0).solve(f)
        assert rep.iterations == 1
        ref = leray_project(f)
        assert np.abs(flatten_interior(u) - flatten_interior(ref)).max() <= 1e-12 * ref.max_abs()

    def test_zero_data_returns_zero_without_iterating(self):
        g = Grid(8)
        u, p, rep = generalized_stokes(g, 1.0, 0.01).solve(VectorField.zeros(g))
        assert rep.iterations == 0 and rep.residual == 0.0
        assert u.max_abs() == 0.0 and np.all(p.values == 0.0)

    def test_gradient_force_is_all_pressure(self):
        g = Grid(16)
        phi = coscos(g, 2, 3)
        u, p, _ = generalized_stokes(g, 1.0, 0.02).solve(gradient(phi))
        assert u.max_abs() <= 1e-12 * gradient(phi).max_abs()
        assert np.abs(p.values - (phi.values - phi.values.mean())).max() <= 1e-12 * np.abs(phi.values).max()

    def test_saddle_point_residuals_at_n256(self):
        # plain projected CG hit its iteration cap here
        g = Grid(256)
        c = 5e-3
        f = random_field(g, np.random.default_rng(23))
        u, p, rep = generalized_stokes(g, 1.0, c).solve(f)
        x = flatten_interior(u)
        mom = x + c * (noslip_viscous_matrix(g) @ x) + flatten_interior(gradient(p)) - flatten_interior(f)
        assert np.linalg.norm(mom) <= 1e-12 * np.linalg.norm(flatten_interior(f))
        D = divergence_matrix(g)
        div0 = D @ generalized_stokes(g, 1.0, c).velocity_solve(flatten_interior(f))
        assert np.linalg.norm(D @ x) <= STOKES_TOL * np.linalg.norm(div0)
        assert rep.iterations <= 30

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_nonfinite_data_raises(self):
        g = Grid(8)
        huge = VectorField(g, np.full(g.shape_u, 1e308), np.zeros(g.shape_v))
        with pytest.raises(SolverError, match="non-finite"):
            generalized_stokes(g, 1.0, 0.01).solve(huge)

    def test_nonconvergence_raises_naming_iterations_and_residual(self, monkeypatch):
        monkeypatch.setattr(linsolve, "STOKES_MAX_ITER", 2)
        g = Grid(16)
        f = random_field(g, np.random.default_rng(24))
        with pytest.raises(SolverError, match=r"2 iterations, residual \d\.\d+e-\d+ above tol"):
            generalized_stokes(g, 1.0, 0.01).solve(f)

    def test_rejects_degenerate_coefficients(self):
        with pytest.raises(ValueError):
            generalized_stokes(Grid(8), 0.0, 0.0)


def zero_wall_fields(n, seed):
    g = Grid(n)
    rng = np.random.default_rng(seed)
    return g, random_field(g, rng), ScalarField(g, rng.standard_normal(g.shape_cell))


class TestAssembledDivergence:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_grid_divergence_on_zero_wall_fields(self, n, seed):
        g, w, _ = zero_wall_fields(n, seed)
        ref = divergence(w).values.ravel()
        got = divergence_matrix(g) @ flatten_interior(w)
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_minus_transpose_is_grid_gradient(self, n, seed):
        g, _, p = zero_wall_fields(n, seed)
        ref = flatten_interior(gradient(p))
        got = -(divergence_matrix(g).T @ p.values.ravel())
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
