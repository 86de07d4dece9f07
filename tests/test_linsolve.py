"""Linear solvers: separable scalar solves and Stokes solves, checked against
the assembled operators and the dense solve of ``oracles``."""

import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enslab import linsolve

from enslab.errors import CompatibilityError, SolverError
from enslab.grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    _adopt,
    divergence,
    integral,
    normal_trace,
    scalar_norm,
    trace_integral,
    vector_from_stream,
    vector_laplacian,
    with_normal_trace,
)
from enslab.linsolve import (
    STOKES_TOL,
    GeneralizedStokes,
    NoslipHelmholtz,
    heat_solver,
    htilde_solver,
    neumann_poisson,
)
from enslab.reference import poincare_constant
from enslab.stokes_lift import leray_project
from oracles import (
    _tridiagonal,
    apply_cell,
    curl_matrix,
    dense_stokes_solve,
    divergence_matrix,
    flatten_interior,
    gradient,
    laplacian_dirichlet_matrix,
    laplacian_neumann_matrix,
    neumann_solve,
    noslip_viscous_matrix,
    poincare_constant_from_eigenbases,
    unflatten_interior,
    wall_faces,
    wall_rhs,
)


class TestMatrixAssemblies:
    # The cell Laplacians as the grid composes them: the divergence of the
    # face gradient, whose wall faces carry zero flux (Lap_N) or the
    # half-cell difference against the zero wall value (Lap_D).
    @pytest.mark.parametrize("n", [8, 16])
    def test_neumann_matrix_matches_grid_operator(self, n):
        g = Grid(n)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal(g.shape_cell)
        ref = divergence(gradient(ScalarField(g, vals))).values
        got = (laplacian_neumann_matrix(g) @ vals.ravel()).reshape(g.shape_cell)
        assert np.allclose(got, ref, rtol=0, atol=1e-11 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("n", [8, 16])
    def test_dirichlet_matrix_matches_grid_operator(self, n):
        g = Grid(n)
        rng = np.random.default_rng(n + 1)
        vals = rng.standard_normal(g.shape_cell)
        wall_flux = BoundaryTrace(g, vals[0, :], vals[-1, :], vals[:, 0], vals[:, -1]) * (-2.0 / g.h)
        ref = divergence(with_normal_trace(gradient(ScalarField(g, vals)), wall_flux)).values
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
        ref = -flatten_interior(vector_laplacian(w))
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
        x = rng.standard_normal((g.n - 1) * g.n + g.n * (g.n - 1))
        assert np.array_equal(flatten_interior(unflatten_interior(g, x)), x)
        tr = BoundaryTrace.constant(g, 2.5)
        w = unflatten_interior(g, x, tr)
        assert np.all(w.u[0, :] == -2.5) and np.all(w.u[-1, :] == 2.5)


class TestClosedFormEigenbases:
    # Worst values over every n = 4 ... 300 and kind: eigen-residual 2.2e-16
    # of max|lam|; orthonormality 6.0e-16, with the Gram matrix formed in
    # extended precision (in float64 the product's own round-off reaches
    # 7.7e-15, at n = 295); eigenvalues 2.1e-15 of max|lam| from eigvalsh,
    # a rounded solve itself; the difference identity 2.1e-15 of max|q|.
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 300), kind=st.sampled_from(["neumann", "cell", "node"]))
    @example(n=4, kind="neumann")
    @example(n=5, kind="cell")
    @example(n=295, kind="neumann")
    @example(n=300, kind="node")
    def test_eigenpairs_of_the_tridiagonal(self, n, kind):
        h = 1.0 / n
        with mock.patch.dict(linsolve._cache):
            lam, q = linsolve._tridiagonal_eigh(n, kind)
        t = _tridiagonal(n, h, kind)
        scale = np.abs(lam).max()
        assert np.abs(t @ q - q * lam).max() <= 1e-15 * scale
        wide = q.astype(np.longdouble)
        assert np.abs(wide.T @ wide - np.eye(lam.size)).max() <= 2e-15
        assert np.all(np.diff(lam) > 0.0)
        assert np.abs(lam - np.linalg.eigvalsh(t)).max() <= 1e-14 * scale
        if kind == "neumann":
            assert lam[-1] == 0.0
            assert np.all(q[:, -1] == q[0, -1])

    @pytest.mark.parametrize("n", [4, 5, 16, 33, 175])
    def test_cell_differences_map_neumann_onto_node_modes(self, n):
        # E^T q_k = h sigma_k qn_k with sigma_k > 0: the Stokes solve relies
        # on the signs of the two bases agreeing
        h = 1.0 / n
        q = linsolve._tridiagonal_eigh(n, "neumann")[1]
        qn = linsolve._tridiagonal_eigh(n, "node")[1]
        sigma = linsolve._difference_factors(n)
        assert np.all(sigma > 0.0)
        assert np.abs(q[:-1, :-1] - q[1:, :-1] - h * sigma * qn).max() <= 1e-14 * np.abs(q).max()


class TestNeumannPoisson:
    def test_compatible_solve_is_exact(self):
        g = Grid(16)
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal(g.shape_cell)
        rhs -= rhs.mean()
        sol = neumann_solve(ScalarField(g, rhs))
        assert abs(integral(sol)) <= 1e-13
        res = apply_cell(laplacian_neumann_matrix(g), sol).values - rhs
        assert np.abs(res).max() <= 1e-10 * np.abs(rhs).max()

    def test_incompatible_rhs_answers_mean_zero_part(self):
        g = Grid(8)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal(g.shape_cell) + 5.0
        sol = neumann_solve(ScalarField(g, rhs))
        res = apply_cell(laplacian_neumann_matrix(g), sol).values - (rhs - rhs.mean())
        assert np.abs(res).max() <= 1e-10 * np.abs(rhs).max()

    def test_cache_returns_same_instance(self):
        g = Grid(8)
        assert neumann_poisson(g) is neumann_poisson(Grid(8))

    @pytest.mark.parametrize("n", [4, 7, 32])
    def test_field_solve_deflates_by_whole_array_means(self, n):
        # a 2-D array, in any memory layout, is deflated by its mean over all
        # entries before and after the transform
        g = Grid(n)
        solver = neumann_poisson(g)
        rng = np.random.default_rng(n)
        for rhs in (rng.standard_normal(g.shape_cell) + 3.0, rng.standard_normal(g.shape_cell).T):
            ref = linsolve._diagonalized_solve(rhs - rhs.mean(), *solver._block)
            ref -= ref.mean()
            assert np.array_equal(solver.solve_values(rhs), ref)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(4, 32), m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_solve_equals_each_solve(self, n, m, seed):
        g = Grid(n)
        solver = neumann_poisson(g)
        rhs = np.random.default_rng(seed).standard_normal((m,) + g.shape_cell) + 3.0
        stacked = solver.solve_values(rhs)
        for j in range(m):
            single = solver.solve_values(rhs[j])
            assert np.abs(stacked[j] - single).max() <= 1e-14 * np.abs(single).max()

    def test_htilde_solver_roundtrip(self):
        g = Grid(16)
        rng = np.random.default_rng(10)
        b = rng.standard_normal(g.shape_cell)
        x = htilde_solver(g)(b)
        field = ScalarField(g, x)
        back = x - apply_cell(laplacian_neumann_matrix(g), field).values
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


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestSeparableScalarSolves:
    # Each eigenbasis solve against a sparse direct solve of the assembled matrix.
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_neumann_poisson_matches_pinned_sparse_solve(self, n, seed):
        g = Grid(n)
        b = np.random.default_rng(seed).standard_normal(n * n)
        b -= b.mean()
        A = laplacian_neumann_matrix(g).tolil()
        A[0, :] = 0.0
        A[0, 0] = 1.0
        pinned = b.copy()
        pinned[0] = 0.0
        ref = spla.spsolve(A.tocsc(), pinned)
        ref -= ref.mean()
        got = neumann_poisson(g).solve_values(b.reshape(g.shape_cell)).ravel()
        assert rel_err(got, ref) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_htilde_matches_sparse_solve(self, n, seed):
        g = Grid(n)
        b = np.random.default_rng(seed).standard_normal(n * n)
        A = sp.identity(n * n) - laplacian_neumann_matrix(g)
        ref = spla.spsolve(A.tocsc(), b)
        assert rel_err(htilde_solver(g)(b.reshape(g.shape_cell)).ravel(), ref) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1),
           a=st.floats(1e-5, 1.0), bc=st.sampled_from(["neumann", "dirichlet"]),
           theta=st.sampled_from(["cn", "be"]))
    def test_heat_step_matches_sparse_solve(self, n, seed, a, bc, theta):
        g = Grid(n)
        b = np.random.default_rng(seed).standard_normal(n * n)
        lap = laplacian_neumann_matrix(g) if bc == "neumann" else laplacian_dirichlet_matrix(g)
        eye = sp.identity(n * n)
        if theta == "cn":
            ref = spla.spsolve((eye - (a / 2.0) * lap).tocsc(), (eye + (a / 2.0) * lap) @ b)
        else:
            ref = spla.spsolve((eye - a * lap).tocsc(), b)
        got = heat_solver(g, a, bc, theta)(b.reshape(g.shape_cell))
        assert got.shape == g.shape_cell
        assert rel_err(got.ravel(), ref) <= 1e-12

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_poincare_constant_matches_sparse_eigensolve(self, n):
        g = Grid(n)
        ref = spla.eigsh(noslip_viscous_matrix(g).tocsc(), k=1, sigma=0.0, which="LM",
                         tol=1e-14, return_eigenvectors=False)[0]
        assert abs(poincare_constant(g) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [8, 9, 64, 127])
    def test_poincare_constant_is_the_eigenbases_maximum_and_builds_no_basis(self, n):
        g = Grid(n)
        with mock.patch.dict(linsolve._cache, clear=True):
            got = poincare_constant(g)
            assert not [k for k in linsolve._cache if k[0] == "tridiagonal_eigh"]
        assert got == poincare_constant_from_eigenbases(g)


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
        lap = vector_laplacian(x)
        res = flatten_interior(x) - c * flatten_interior(lap) - flatten_interior(rhs)
        assert np.abs(res).max() <= 1e-10 * max(1.0, np.abs(flatten_interior(rhs)).max())
        assert np.all(x.u[0, :] == 0.0) and np.all(x.v[:, 0] == 0.0)

    def test_wall_data_solve_recovers_manufactured_field(self):
        g = Grid(8)
        rng = np.random.default_rng(15)
        c = 0.02
        tr = BoundaryTrace(g, rng.standard_normal(g.n), rng.standard_normal(g.n),
                           rng.standard_normal(g.n), rng.standard_normal(g.n))
        y = rng.standard_normal((g.n - 1) * g.n + g.n * (g.n - 1))
        K = noslip_viscous_matrix(g)
        h2 = g.h * g.h
        bu = np.zeros((g.n - 1, g.n))
        bv = np.zeros((g.n, g.n - 1))
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

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), alpha=st.sampled_from([0.0, 1.0, 2.0]),
           c=st.one_of(st.just(0.0), st.floats(1e-5, 1.0)), walls=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_sparse_solve(self, n, alpha, c, walls, seed):
        # (alpha I + c K) x = f + c (the wall data's force), with the wall
        # faces of f ignored and those of the result set from the trace
        assume(alpha + c > 0.0)
        g = Grid(n)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng, walls=True)
        tr = BoundaryTrace(g, *(rng.standard_normal(n) for _ in range(4))) if walls else None
        b = flatten_interior(f) + (c * wall_rhs(g, tr) if walls else 0.0)
        A = alpha * sp.identity(b.size) + c * noslip_viscous_matrix(g)
        x = spla.spsolve(A.tocsc(), b)
        got = NoslipHelmholtz(g, c, alpha).solve(f, tr)
        assert np.abs(flatten_interior(got) - x).max() <= 1e-12 * np.abs(x).max()
        walls_ref = tr if walls else BoundaryTrace.zeros(g)
        assert all(np.array_equal(w, r) for w, r in zip(normal_trace(got).arrays, walls_ref.arrays))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), alpha=st.sampled_from([0.0, 1.0, 2.0]),
           c=st.floats(1e-5, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_wall_trace_solve_is_bit_identical_to_field_assembly(self, n, alpha, c, seed):
        # the solve sets the wall faces and adds their force in place; the
        # oracle builds the wall field whole, takes its force and solves into
        # fresh arrays
        g = Grid(n)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng, walls=True)
        tr = BoundaryTrace(g, *(rng.standard_normal(n) for _ in range(4)))
        solver = NoslipHelmholtz(g, c, alpha)
        walls = with_normal_trace(VectorField.zeros(g), tr)
        wu, wv = linsolve._wall_force(c, walls.u, walls.v, g.h)
        bu, bv = f.u[1:-1].copy(), f.v[:, 1:-1].copy()
        bu[[0, -1]] += wu
        bv[:, [0, -1]] += wv
        u, v = walls.u.copy(), walls.v.copy()
        (qx, qy, mx), (px, py, mv) = solver._blocks
        u[1:-1] = qx @ ((qx.T @ bu @ qy) * mx) @ qy.T
        v[:, 1:-1] = px @ ((px.T @ bv @ py) * mv) @ py.T
        got = solver.solve(f, tr)
        for a, b in zip(got.arrays, (u, v)):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def coscos(grid, k=1, m=1):
    x = grid.cells()[:, None]
    y = grid.cells()[None, :]
    return ScalarField(grid, np.cos(k * np.pi * x) * np.cos(m * np.pi * y))


def lift(gsrc, trace=None):
    """The stationary Stokes lift: the generalized-Stokes solve at alpha = 0."""
    return GeneralizedStokes(gsrc.grid, 0.0, 1.0).solve(g=gsrc, trace=trace)


class TestStokesSolve:
    def test_zero_data_returns_zero(self):
        g = Grid(16)
        z, q = lift(ScalarField(g, np.zeros(g.shape_cell)))
        assert np.all(z.u == 0.0) and np.all(z.v == 0.0) and np.all(q.values == 0.0)

    def test_prescribed_divergence_residual(self):
        g = Grid(32)
        gsrc = coscos(g)
        z, q = lift(gsrc)
        res = scalar_norm(divergence(z) - gsrc) / scalar_norm(gsrc)
        assert res <= 1e-9
        assert np.all(z.u[0, :] == 0.0) and np.all(z.v[:, -1] == 0.0)
        assert abs(integral(q)) <= 1e-12

    def test_momentum_residual_at_factorization_precision(self):
        g = Grid(16)
        gsrc = coscos(g)
        z, q = lift(gsrc)
        K = noslip_viscous_matrix(g)
        mom = K @ flatten_interior(z) + flatten_interior(gradient(q))
        assert np.abs(mom).max() <= 1e-8 * max(1.0, np.abs(flatten_interior(z)).max() / g.h ** 2)

    def test_matches_dense_oracle(self):
        g = Grid(16)
        rng = np.random.default_rng(16)
        vals = rng.standard_normal(g.shape_cell)
        vals -= vals.mean()
        gsrc = ScalarField(g, vals)
        z1, q1 = lift(gsrc)
        z2, q2 = dense_stokes_solve(gsrc)
        assert np.abs(z1.u - z2.u).max() <= 1e-8 * max(1.0, np.abs(z2.u).max())
        assert np.abs(z1.v - z2.v).max() <= 1e-8 * max(1.0, np.abs(z2.v).max())
        assert np.abs(q1.values - q2.values).max() <= 1e-7 * max(1.0, np.abs(q2.values).max())

    def test_wall_data_flux_balance_solvable(self):
        # uniform source 4 balanced by unit outward boundary velocity
        g = Grid(16)
        gsrc = ScalarField(g, np.full(g.shape_cell, 4.0))
        tr = BoundaryTrace.constant(g, 1.0)
        z, q = lift(gsrc, tr)
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
        tr = BoundaryTrace(g, rng.standard_normal(g.n), rng.standard_normal(g.n),
                           rng.standard_normal(g.n), rng.standard_normal(g.n))
        flux = g.h * (tr.left.sum() + tr.right.sum() + tr.bottom.sum() + tr.top.sum())
        vals = rng.standard_normal(g.shape_cell)
        vals = vals - vals.mean() + flux  # cell volume integral = boundary flux
        gsrc = ScalarField(g, vals)
        z1, q1 = lift(gsrc, tr)
        z2, q2 = dense_stokes_solve(gsrc, tr)
        assert np.abs(z1.u - z2.u).max() <= 1e-8 * max(1.0, np.abs(z2.u).max())
        assert np.abs(q1.values - q2.values).max() <= 1e-7 * max(1.0, np.abs(q2.values).max())

    def test_dense_oracle_self_consistency(self):
        g = Grid(8)
        gsrc = coscos(g, 2, 1)
        z, q = dense_stokes_solve(gsrc)
        assert scalar_norm(divergence(z) - gsrc) <= 1e-10 * max(1.0, scalar_norm(gsrc))
        assert abs(integral(q)) <= 1e-12

    @pytest.mark.parametrize("n", [65, 128])
    def test_wall_data_lift_residuals_at_large_n(self, n):
        # past the dense oracle's reach: the momentum equation K z + G q = 0
        # with the wall data folded into K, and the divergence residual of
        # the returned z
        g = Grid(n)
        _, gsrc, tr = random_stokes_data(g, np.random.default_rng(n), True)
        stokes = GeneralizedStokes(g, 0.0, 1.0)
        z, q = stokes.solve(g=gsrc, trace=tr)
        terms = (flatten_interior(gradient(q)), flatten_interior(vector_laplacian(z)),
                 wall_rhs(g, tr))
        mom = terms[0] - terms[1] - terms[2]
        assert np.linalg.norm(mom) <= 1e-12 * max(np.linalg.norm(t) for t in terms)
        fold = divergence(unflatten_interior(g, np.zeros(terms[2].size), tr)).values
        gprime = gsrc.values - fold
        r = gsrc.values - divergence(z).values
        r = np.linalg.norm(r - r.mean())
        norm_d = 2.0 * np.sqrt(2.0) / g.h * np.sin(np.pi * (n - 1) / (2 * n))
        assert r <= STOKES_TOL * max(np.linalg.norm(gprime), norm_d * np.linalg.norm(flatten_interior(z)))
        assert r <= STOKES_TOL * np.linalg.norm(gprime)
        # the velocity alone is the same velocity, bit for bit
        z2, q2 = stokes.solve(g=gsrc, trace=tr, pressure=False)
        assert q2 is None
        assert np.array_equal(z2.u, z.u) and np.array_equal(z2.v, z.v)


def random_field(g, rng, walls=False):
    u = rng.standard_normal(g.shape_u)
    v = rng.standard_normal(g.shape_v)
    if not walls:
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
    return VectorField(g, u, v)


def count_u0_solves(stokes, monkeypatch):
    """Record each call of the no-slip velocity solve behind the residual's
    second scale."""
    calls, real = [], stokes._noslip.solve
    monkeypatch.setattr(stokes._noslip, "solve", lambda *args: calls.append(args) or real(*args))
    return calls


class TestGeneralizedStokes:
    @pytest.mark.parametrize("alpha,c", [(0.0, 1.0), (1.0, 0.03), (2.0, 0.0)])
    def test_velocity_block_matches_sparse_solve(self, alpha, c):
        g = Grid(16)
        rng = np.random.default_rng(20)
        b = rng.standard_normal((g.n - 1) * g.n + g.n * (g.n - 1))
        A = alpha * sp.identity(b.size) + c * noslip_viscous_matrix(g)
        x = spla.spsolve(A.tocsc(), b)
        got = flatten_interior(NoslipHelmholtz(g, c, alpha).solve(unflatten_interior(g, b)))
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
        u, _ = GeneralizedStokes(g, 1.0, c).solve(f)
        assert np.abs(flatten_interior(u) - x).max() <= 1e-11 * np.abs(x).max()
        assert np.all(u.u[0, :] == 0.0) and np.all(u.v[:, -1] == 0.0)

    def test_zero_viscosity_is_leray_projection(self):
        # alpha = 1, c = 0: no wall correction, the free-slip solve is the
        # Leray projection
        g = Grid(16)
        f = random_field(g, np.random.default_rng(22), walls=True)
        u, _ = GeneralizedStokes(g, 1.0, 0.0).solve(f)
        ref = leray_project(f)
        assert np.abs(flatten_interior(u) - flatten_interior(ref)).max() <= 1e-12 * ref.max_abs()

    def test_zero_data_returns_zero_without_iterating(self):
        g = Grid(8)
        u, p = GeneralizedStokes(g, 1.0, 0.01).solve(VectorField.zeros(g))
        assert u.max_abs() == 0.0 and np.all(p.values == 0.0)

    @pytest.mark.parametrize("alpha,c", [(1.0, 1e-3), (0.0, 1.0)])
    def test_passing_solve_makes_no_u0_solve(self, alpha, c, monkeypatch):
        g = Grid(32)
        f, gsrc, tr = random_stokes_data(g, np.random.default_rng(26), True)
        stokes = GeneralizedStokes(g, alpha, c)
        calls = count_u0_solves(stokes, monkeypatch)
        for data in ((f,), (f, gsrc, tr)):
            stokes.solve(*data)
        assert calls == []

    def test_velocity_block_is_built_on_first_use(self):
        # the u0 solve behind the second residual scale is built only when
        # a solve needs that scale
        g = Grid(16)
        f = random_field(g, np.random.default_rng(25))
        stokes = GeneralizedStokes(g, 1.0, 0.02)
        stokes.solve(f)
        assert "_noslip" not in vars(stokes)
        stokes.solve(gradient(coscos(g, 2, 3)))
        assert isinstance(vars(stokes)["_noslip"], NoslipHelmholtz)

    def test_gradient_force_is_all_pressure(self, monkeypatch):
        # u and g' vanish to round-off, so only the second scale, with the
        # velocity u0 at p = 0, can pass the solve
        g = Grid(16)
        phi = coscos(g, 2, 3)
        stokes = GeneralizedStokes(g, 1.0, 0.02)
        calls = count_u0_solves(stokes, monkeypatch)
        u, p = stokes.solve(gradient(phi))
        assert len(calls) == 1
        assert u.max_abs() <= 1e-12 * gradient(phi).max_abs()
        assert np.abs(p.values - (phi.values - phi.values.mean())).max() <= 1e-12 * np.abs(phi.values).max()

    def test_saddle_point_residuals_at_n256(self):
        # plain projected CG hit its iteration cap here
        g = Grid(256)
        c = 5e-3
        f = random_field(g, np.random.default_rng(23))
        u, p = GeneralizedStokes(g, 1.0, c).solve(f)
        x = flatten_interior(u)
        mom = x + c * (noslip_viscous_matrix(g) @ x) + flatten_interior(gradient(p)) - flatten_interior(f)
        assert np.linalg.norm(mom) <= 1e-12 * np.linalg.norm(flatten_interior(f))
        D = divergence_matrix(g)
        div0 = D @ flatten_interior(NoslipHelmholtz(g, c).solve(f))
        assert np.linalg.norm(D @ x) <= STOKES_TOL * np.linalg.norm(div0)

    def test_nonfinite_data_raises(self):
        # fields built by the package's own operators may hold non-finite values
        g = Grid(8)
        solve = GeneralizedStokes(g, 1.0, 0.01).solve
        for bad in (np.inf, -np.inf, np.nan):
            u = np.zeros(g.shape_u)
            u[3, 4] = bad
            with pytest.raises(SolverError, match="generalized Stokes solve: non-finite data$"):
                solve(_adopt(VectorField, g, u, np.zeros(g.shape_v)))
            vals = np.zeros(g.shape_cell)
            vals[2, 5] = bad
            with pytest.raises(SolverError, match="non-finite data$"):
                solve(g=_adopt(ScalarField, g, vals))

    def test_finite_data_whose_measure_overflows_raises(self):
        g = Grid(8)
        solve = GeneralizedStokes(g, 1.0, 0.01).solve
        overflows = "the measure of finite data overflows (largest entry {})"
        with pytest.raises(SolverError, match=re.escape(overflows.format("1.000e+308"))):
            solve(VectorField(g, np.full(g.shape_u, 1e308), np.zeros(g.shape_v)))
        vals = np.full(g.shape_cell, 3e200)
        vals[::2] = -3e200
        with pytest.raises(SolverError, match=re.escape(overflows.format("3.000e+200"))):
            solve(g=ScalarField(g, vals))
        # a wall flux of 1e299 balanced by a source of 4e299: each finite
        tr = BoundaryTrace.constant(g, 1e299)
        with pytest.raises(SolverError, match=re.escape(overflows.format("4.000e+299"))):
            solve(g=ScalarField(g, np.full(g.shape_cell, 4e299)), trace=tr, pressure=False)

    def test_consecutive_solves_share_no_memory_with_the_workspaces(self):
        g = Grid(16)
        stokes = GeneralizedStokes(g, 1.0, 0.02)
        f1, g1, tr = random_stokes_data(g, np.random.default_rng(27), True)
        u1, p1 = stokes.solve(f1, g1, tr)
        kept = [a.copy() for a in (*u1.arrays, p1.values)]
        f2, g2, tr2 = random_stokes_data(g, np.random.default_rng(28), True)
        u2, p2 = stokes.solve(f2, g2, tr2)
        stokes.solve(f2, pressure=False)
        work = vars(linsolve._cache[("stokes_workspace", g.n)]).values()
        for old, new in zip(kept, (*u1.arrays, p1.values)):
            assert np.array_equal(old, new)
        for result in (*u1.arrays, p1.values, *u2.arrays, p2.values):
            assert not any(np.shares_memory(result, w) for w in work)

    def test_violated_postcondition_raises_naming_residual(self, monkeypatch):
        monkeypatch.setattr(linsolve, "STOKES_TOL", 0.0)
        g = Grid(16)
        f = random_field(g, np.random.default_rng(24))
        stokes = GeneralizedStokes(g, 1.0, 0.01)
        calls = count_u0_solves(stokes, monkeypatch)
        with pytest.raises(SolverError, match=r"divergence residual \d\.\d+e-\d+ above tol"):
            stokes.solve(f)
        assert len(calls) == 1

    def test_rejects_degenerate_coefficients(self):
        with pytest.raises(ValueError):
            GeneralizedStokes(Grid(8), 0.0, 0.0)


def random_stokes_data(g, rng, walls):
    """Random force, and divergence data compatible with a random or zero wall trace."""
    f = random_field(g, rng, walls=True)
    if walls:
        tr = BoundaryTrace(g, *(rng.standard_normal(g.n) for _ in range(4)))
    else:
        tr = BoundaryTrace.zeros(g)
    vals = rng.standard_normal(g.shape_cell)
    return f, ScalarField(g, vals - vals.mean() + trace_integral(tr)), tr


def reflect_x(w):
    """The mirror image in x = 1/2 of a field or trace."""
    if isinstance(w, VectorField):
        return VectorField(w.grid, -w.u[::-1, :], w.v[::-1, :])
    if isinstance(w, BoundaryTrace):
        return BoundaryTrace(w.grid, w.right, w.left, w.bottom[::-1], w.top[::-1])
    return ScalarField(w.grid, w.values[::-1, :])


def reflect_y(w):
    """The mirror image in y = 1/2 of a field or trace."""
    if isinstance(w, VectorField):
        return VectorField(w.grid, w.u[:, ::-1], -w.v[:, ::-1])
    if isinstance(w, BoundaryTrace):
        return BoundaryTrace(w.grid, w.left[::-1], w.right[::-1], w.top, w.bottom)
    return ScalarField(w.grid, w.values[:, ::-1])


def dense_capacitance(g, alpha, c):
    """I + c w U^T T U from the assembled operators, T the free-slip solution operator.

    P U = U - D^T (D D^T)^+ D U; D^T maps constants to 0, so the Poisson
    solve may pin one cell.  Both solves are sparse LU factorizations with
    one step of iterative refinement.
    """
    def solve(A, b):
        lu = spla.splu(A.tocsc())
        x = lu.solve(b)
        return x + lu.solve(b - A @ x)

    m = g.n - 1
    U = sp.identity(2 * g.n * m, format="csc")[:, wall_faces(g).ravel()]
    w = 2.0 / (g.h * g.h)
    K_fs = noslip_viscous_matrix(g) - w * (U @ U.T)
    D = divergence_matrix(g)
    pinned = (D @ D.T).tolil()
    pinned[0, :] = 0.0
    pinned[0, 0] = 1.0
    DU = (D @ U).toarray()
    DU[0] = 0.0
    PU = U.toarray() - D.T @ solve(pinned.tocsr(), DU)
    TU = solve(alpha * sp.identity(U.shape[0]) + c * K_fs, PU)
    return np.eye(4 * m) + c * w * (U.T @ TU)


def capacitance_solve(stokes, r):
    """C^{-1} r through the solver's factored form, r holding one column of
    wall values per wall (bottom, top, left, right)."""
    half = np.kron(np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    z = np.zeros((4, len(r) + 1))                     # rows padded by one column
    z[:, :-1] = (stokes._qn.T @ r @ half).T
    stokes._wall_modes_solve(z)                       # z <- -c w C^{-1} z
    return stokes._qn @ (z[:, :-1].T @ half) / (-2.0 * stokes.c / stokes.grid.h ** 2)


class TestDirectStokes:
    # The free-slip solve with the wall capacitance correction against the
    # bordered dense oracle, the square's symmetries and the dense capacitance.
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 16), alpha=st.sampled_from([0.0, 1.0, 2.0]), c=st.floats(1e-5, 1.0),
           walls=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_oracle(self, n, alpha, c, walls, seed):
        g = Grid(n)
        f, gsrc, tr = random_stokes_data(g, np.random.default_rng(seed), walls)
        u, p = GeneralizedStokes(g, alpha, c).solve(f, gsrc, tr)
        z, q = dense_stokes_solve(gsrc, tr, alpha, c, f)
        assert rel_err(np.concatenate([u.u.ravel(), u.v.ravel()]),
                       np.concatenate([z.u.ravel(), z.v.ravel()])) <= 1e-11
        assert rel_err(p.values, q.values) <= 1e-11

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(4, 16), alpha=st.sampled_from([0.0, 1.0, 2.0]), c=st.floats(1e-5, 1.0),
           seed=st.integers(0, 2 ** 32 - 1), reflect=st.sampled_from([reflect_x, reflect_y]))
    def test_reflected_data_give_reflected_solution(self, n, alpha, c, seed, reflect):
        g = Grid(n)
        f, gsrc, tr = random_stokes_data(g, np.random.default_rng(seed), True)
        solve = GeneralizedStokes(g, alpha, c).solve
        u, p = solve(f, gsrc, tr)
        u2, p2 = solve(reflect(f), reflect(gsrc), reflect(tr))
        ref_u = reflect(u)
        assert max(np.abs(u2.u - ref_u.u).max(), np.abs(u2.v - ref_u.v).max()) <= 1e-12 * u.max_abs()
        assert np.abs(p2.values - reflect(p).values).max() <= 1e-12 * np.abs(p.values).max()

    @pytest.mark.parametrize("n", [8, 9, 32])
    @pytest.mark.parametrize("alpha,c", [(0.0, 1.0), (1.0, 1e-3)])
    def test_factored_capacitance_matches_dense(self, n, alpha, c):
        g = Grid(n)
        r = np.random.default_rng(n).standard_normal((n - 1, 4))
        ref = np.linalg.solve(dense_capacitance(g, alpha, c), r.T.ravel())
        got = capacitance_solve(GeneralizedStokes(g, alpha, c), r)
        assert np.abs(got.T.ravel() - ref).max() <= 1e-13 * np.abs(ref).max()

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(4, 40), alpha=st.sampled_from([0.0, 1.0, 2.0]), c=st.floats(1e-5, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=40, alpha=1.0, c=1e-5, seed=0)
    def test_capacitance_solve_matches_dense_solve(self, n, alpha, c, seed):
        g = Grid(n)
        r = np.random.default_rng(seed).standard_normal((n - 1, 4))
        ref = np.linalg.solve(dense_capacitance(g, alpha, c), r.T.ravel())
        got = capacitance_solve(GeneralizedStokes(g, alpha, c), r)
        assert np.abs(got.T.ravel() - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_holds_no_sparse_matrix_and_nothing_of_wall_order(self):
        n = 32
        stokes = GeneralizedStokes(Grid(n), 1.0, 1e-3)
        ends, index, inverses = stokes._capacitance
        held = [ends, index, *inverses]
        held += [v for v in vars(stokes).values() if isinstance(v, np.ndarray) or sp.issparse(v)]
        assert not any(sp.issparse(a) for a in held)
        assert max(np.size(a) for a in held) < (2 * (n - 1)) ** 2

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("walls", [False, True])
    def test_returned_velocity_meets_the_residual_bound(self, alpha, walls):
        # recomputed from the returned velocity on the first-stage scale of a
        # passing solve: ||g' - D u|| / max(||g'||, ||D||_2 ||u||)
        g = Grid(16)
        c = 0.01
        f, gsrc, tr = random_stokes_data(g, np.random.default_rng(25), walls)
        u, _ = GeneralizedStokes(g, alpha, c).solve(f, gsrc, tr if walls else None)
        fold = divergence(unflatten_interior(g, np.zeros(flatten_interior(u).size), tr)).values
        gprime = (gsrc.values - fold).ravel()
        D = divergence_matrix(g)
        scale = max(np.linalg.norm(gprime), np.linalg.norm(D.toarray(), 2) * np.linalg.norm(flatten_interior(u)))
        true = np.linalg.norm(gsrc.values - divergence(u).values) / scale
        assert true <= STOKES_TOL


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


class TestCurlMatrix:
    # D C = 0 and rank C = (N-1)^2 = dim null(D), so the range of C is
    # exactly the divergence-free no-slip subspace.
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32))
    def test_divergence_of_curl_is_exactly_zero(self, n):
        g = Grid(n)
        assert not (divergence_matrix(g) @ curl_matrix(g)).toarray().any()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_grid_stream_function_curl(self, n, seed):
        g = Grid(n)
        psi = np.random.default_rng(seed).standard_normal((n - 1, n - 1))
        ref = flatten_interior(vector_from_stream(g, np.pad(psi, 1)))
        got = curl_matrix(g) @ psi.ravel()
        assert np.abs(got - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(4, 32))
    def test_full_column_rank(self, n):
        C = curl_matrix(Grid(n)).toarray()
        assert C.shape[1] == (n - 1) ** 2
        assert np.linalg.matrix_rank(C) == (n - 1) ** 2
