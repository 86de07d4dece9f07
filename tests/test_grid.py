"""Grid module: operators, exact adjointness, closures, eigenfunction checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enslab.advection import skew_advect
from enslab.errors import DimensionMismatchError
from enslab.grid import (
    BoundaryTrace,
    Grid,
    _divergence_values,
    _noslip_laplacian,
    _tangential_laplacian,
    ScalarField,
    VectorField,
    divergence,
    face_inner,
    face_norm,
    grad_inner,
    integral,
    normal_trace,
    rescaled_norm,
    scalar_from_function,
    scalar_grad_inner,
    scalar_inner,
    scalar_norm,
    trace_integral,
    vector_from_functions,
    vector_from_stream,
    vector_laplacian,
    with_normal_trace,
)
from oracles import (
    apply_cell, boundary_divergence_trace, gradient, laplacian_dirichlet_matrix,
    laplacian_neumann_matrix,
)


def tangential_laplacian(w):
    """The tangential closure of the vector Laplacian, as a field."""
    h2 = w.grid.h * w.grid.h
    return VectorField(w.grid, *(x / h2 for x in _tangential_laplacian(w.u, w.v)))


def random_vector(grid, rng, zero_walls=True):
    u = rng.standard_normal(grid.shape_u)
    v = rng.standard_normal(grid.shape_v)
    if zero_walls:
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
    return VectorField(grid, u, v)


def random_scalar(grid, rng):
    return ScalarField(grid, rng.standard_normal(grid.shape_cell))


class TestGridValidity:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid(2)

    def test_spacing_exact(self):
        g = Grid(32)
        assert g.h * g.n == 1.0

    def test_dof_counts(self):
        g = Grid(8)
        assert g.shape_u == (9, 8)
        assert g.shape_v == (8, 9)
        assert g.shape_cell == (8, 8)

    def test_field_shape_mismatch_rejected(self):
        g = Grid(8)
        with pytest.raises(DimensionMismatchError):
            ScalarField(g, np.zeros((8, 9)))
        with pytest.raises(DimensionMismatchError):
            VectorField(g, np.zeros((8, 8)), np.zeros((8, 9)))

    def test_nonfinite_rejected(self):
        g = Grid(8)
        vals = np.zeros((8, 8))
        vals[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(g, vals)

    def test_fields_immutable(self):
        g = Grid(8)
        p = ScalarField.zeros(g)
        with pytest.raises(ValueError):
            p.values[0, 0] = 1.0

    def test_public_construction_copies_its_input(self):
        g = Grid(8)
        rng = np.random.default_rng(4)
        vals, u, v = (rng.standard_normal(s) for s in (g.shape_cell, g.shape_u, g.shape_v))
        walls = [rng.standard_normal(8) for _ in range(4)]
        fields = (ScalarField(g, vals), VectorField(g, u, v), BoundaryTrace(g, *walls))
        before = [a.copy() for f in fields for a in (getattr(f, n) for n in f.ARRAYS)]
        for a in (vals, u, v, *walls):
            a[...] = np.nan
        after = [a for f in fields for a in (getattr(f, n) for n in f.ARRAYS)]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_public_constructors_reject_nonfinite(self, bad):
        g = Grid(8)
        cell, fu, fv, wall = (np.zeros(s) for s in (g.shape_cell, g.shape_u, g.shape_v, 8))
        cell[2, 5] = fu[0, 3] = fv[4, 8] = wall[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(g, cell)
        with pytest.raises(ValueError, match="non-finite"):
            VectorField(g, fu, np.zeros(g.shape_v))
        with pytest.raises(ValueError, match="non-finite"):
            VectorField(g, np.zeros(g.shape_u), fv)
        with pytest.raises(ValueError, match="non-finite"):
            BoundaryTrace(g, np.zeros(8), np.zeros(8), np.zeros(8), wall)

    def test_operator_outputs_are_read_only(self):
        g = Grid(8)
        rng = np.random.default_rng(6)
        w = random_vector(g, rng, zero_walls=False)
        p = random_scalar(g, rng)
        outputs = (divergence(w), gradient(p), p + p, p - p, 2.0 * p, -p,
                   w + w, w - w, w * 0.5, -w, skew_advect(w, w),
                   normal_trace(w))
        for f in outputs:
            for name in f.ARRAYS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(f, name).flat[0] = 1.0


FIELD_CLASSES = (ScalarField, VectorField, BoundaryTrace)


class TestFieldArithmetic:
    # the three field classes share one implementation; each operation must
    # be the plain array arithmetic, array by array, bit for bit

    @staticmethod
    def same(field, cls, want):
        assert type(field) is cls
        assert len(field.arrays) == len(want)
        for name, got, ref in zip(cls.ARRAYS, field.arrays, want):
            assert got is getattr(field, name)
            assert not got.flags.writeable
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1),
           cls=st.sampled_from(FIELD_CLASSES))
    def test_operations_equal_array_arithmetic(self, n, seed, cls):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        xa = [rng.standard_normal(s) for s in cls.shapes(g)]
        ya = [rng.standard_normal(s) for s in cls.shapes(g)]
        x, y = cls(g, *xa), cls(g, *ya)
        a, b = rng.standard_normal(2)
        self.same(x + y, cls, [p + q for p, q in zip(xa, ya)])
        self.same(x - y, cls, [p - q for p, q in zip(xa, ya)])
        self.same(x * a, cls, [p * float(a) for p in xa])
        self.same(a * x, cls, [p * float(a) for p in xa])
        self.same(-x, cls, [-p for p in xa])
        self.same(cls.zeros(g), cls, [np.zeros(s) for s in cls.shapes(g)])
        assert x.max_abs() == max(float(np.abs(p).max()) for p in xa)

    @pytest.mark.parametrize("cls", FIELD_CLASSES)
    def test_wrong_shape_rejected(self, cls):
        g = Grid(8)
        shapes = cls.shapes(g)
        for i in range(len(shapes)):
            arrays = [np.zeros(s) for s in shapes]
            arrays[i] = np.zeros((shapes[i][0] + 1,) + shapes[i][1:])
            with pytest.raises(DimensionMismatchError, match=cls.ARRAYS[i]):
                cls(g, *arrays)

    def test_mixed_operands_rejected(self):
        g = Grid(8)
        p, w, t = (cls.zeros(g) for cls in FIELD_CLASSES)
        with pytest.raises(TypeError):
            p + t
        with pytest.raises(TypeError):
            w - p
        with pytest.raises(TypeError):
            t - w
        with pytest.raises(DimensionMismatchError):
            p + ScalarField.zeros(Grid(16))


class TestDivergence:
    def test_zero_field(self):
        g = Grid(8)
        d = divergence(VectorField.zeros(g))
        assert np.all(d.values == 0.0)

    def test_constant_field(self):
        g = Grid(8)
        w = VectorField(g, np.ones(g.shape_u), np.zeros(g.shape_v))
        d = divergence(w)
        assert np.all(d.values[1:-1, :] == 0.0)

    def test_linear_profile_gives_unit_divergence(self):
        # u equal to the face x coordinate: (x_{i+1} - x_i)/h = 1 per cell
        g = Grid(8)
        u = np.repeat(g.nodes()[:, None], g.n, axis=1)
        w = VectorField(g, u, np.zeros(g.shape_v))
        d = divergence(w)
        np.testing.assert_allclose(d.values, 1.0, rtol=0, atol=1e-14)


class TestGradient:
    def test_constant_scalar(self):
        g = Grid(8)
        gp = gradient(ScalarField(g, np.full(g.shape_cell, 3.25)))
        assert np.all(gp.u == 0.0)
        assert np.all(gp.v == 0.0)

    def test_linear_scalar(self):
        g = Grid(8)
        p = scalar_from_function(g, lambda x, y: x + 0.0 * y)
        gp = gradient(p)
        np.testing.assert_allclose(gp.u[1:-1, :], 1.0, atol=1e-13)
        assert np.all(gp.u[0, :] == 0.0)
        assert np.all(gp.u[-1, :] == 0.0)
        np.testing.assert_allclose(gp.v, 0.0, atol=1e-13)

    def test_divergence_gradient_adjoint(self):
        # <div w, p> = -<w, grad p> exactly for w with zero wall-normal faces
        rng = np.random.default_rng(7)
        for n in (8, 16, 32):
            g = Grid(n)
            p = random_scalar(g, rng)
            w = random_vector(g, rng, zero_walls=True)
            lhs = scalar_inner(divergence(w), p)
            rhs = -face_inner(w, gradient(p))
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1e-30)


class TestLaplacians:
    # the assembled cell Laplacians of the oracles, against which the scalar
    # solvers are checked

    def test_neumann_annihilates_constants(self):
        g = Grid(16)
        lp = apply_cell(laplacian_neumann_matrix(g), ScalarField(g, np.full(g.shape_cell, 2.5)))
        np.testing.assert_allclose(lp.values, 0.0, atol=1e-11)

    def test_neumann_eigenfunction(self):
        g = Grid(64)
        p = scalar_from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        lp = apply_cell(laplacian_neumann_matrix(g), p)
        target = -2.0 * np.pi**2 * p.values
        rel = np.linalg.norm(lp.values - target) / np.linalg.norm(target)
        assert rel <= 2e-3

    def test_neumann_eigenfunction_exact_discrete(self):
        # cos(k pi x) cos(m pi y) at cell centers is an exact eigenfunction of
        # the zero-flux closure; the eigenvalue is the discrete symbol
        g = Grid(32)
        k, m = 3, 5
        p = scalar_from_function(g, lambda x, y: np.cos(k * np.pi * x) * np.cos(m * np.pi * y))
        lam = (4.0 / g.h**2) * (np.sin(k * np.pi * g.h / 2) ** 2 + np.sin(m * np.pi * g.h / 2) ** 2)
        lp = apply_cell(laplacian_neumann_matrix(g), p)
        np.testing.assert_allclose(lp.values, -lam * p.values, rtol=1e-11, atol=1e-9)

    def test_dirichlet_eigenfunction(self):
        g = Grid(64)
        p = scalar_from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        lp = apply_cell(laplacian_dirichlet_matrix(g), p)
        target = -2.0 * np.pi**2 * p.values
        rel = np.linalg.norm(lp.values - target) / np.linalg.norm(target)
        assert rel <= 2e-3

    def test_divergence_of_gradient_is_neumann_laplacian(self):
        rng = np.random.default_rng(11)
        g = Grid(16)
        p = random_scalar(g, rng)
        composed = divergence(gradient(p))
        direct = apply_cell(laplacian_neumann_matrix(g), p)
        np.testing.assert_allclose(composed.values, direct.values, rtol=0, atol=1e-9)

    def test_neumann_row_sums_zero(self):
        # row sums via action on the constant; column sums via symmetry
        g = Grid(8)
        rng = np.random.default_rng(3)
        ones = ScalarField(g, np.ones(g.shape_cell))
        lap = laplacian_neumann_matrix(g)
        assert np.max(np.abs(apply_cell(lap, ones).values)) <= 1e-11
        p, q = random_scalar(g, rng), random_scalar(g, rng)
        s1 = scalar_inner(apply_cell(lap, p), q)
        s2 = scalar_inner(p, apply_cell(lap, q))
        assert abs(s1 - s2) <= 1e-12 * max(abs(s1), 1.0)

    def test_dirichlet_symmetric_negative_definite(self):
        g = Grid(8)
        rng = np.random.default_rng(5)
        p, q = random_scalar(g, rng), random_scalar(g, rng)
        lap = laplacian_dirichlet_matrix(g)
        s1 = scalar_inner(apply_cell(lap, p), q)
        s2 = scalar_inner(p, apply_cell(lap, q))
        assert abs(s1 - s2) <= 1e-12 * max(abs(s1), 1.0)
        assert scalar_inner(apply_cell(lap, p), p) < 0.0

    def test_unknown_bc_flag(self):
        g = Grid(8)
        p = ScalarField.zeros(g)
        with pytest.raises(ValueError, match="unknown bc"):
            scalar_grad_inner(p, p, "slippery")


class TestVectorLaplacianClosures:
    def test_noslip_symmetric_on_interior_fields(self):
        rng = np.random.default_rng(13)
        g = Grid(12)
        a = random_vector(g, rng, zero_walls=True)
        b = random_vector(g, rng, zero_walls=True)
        s1 = face_inner(vector_laplacian(a), b)
        s2 = face_inner(a, vector_laplacian(b))
        assert abs(s1 - s2) <= 1e-11 * max(abs(s1), 1.0)

    def test_noslip_wall_rows_vanish(self):
        rng = np.random.default_rng(17)
        g = Grid(8)
        w = random_vector(g, rng, zero_walls=False)
        lw = vector_laplacian(w)
        assert np.all(lw.u[0, :] == 0.0) and np.all(lw.u[-1, :] == 0.0)
        assert np.all(lw.v[:, 0] == 0.0) and np.all(lw.v[:, -1] == 0.0)

    def test_grad_inner_matches_noslip_laplacian(self):
        rng = np.random.default_rng(19)
        g = Grid(12)
        a = random_vector(g, rng, zero_walls=True)
        b = random_vector(g, rng, zero_walls=True)
        lhs = grad_inner(a, b)
        rhs = -face_inner(vector_laplacian(a), b)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)

    def test_scalar_grad_inner_matches_laplacians(self):
        rng = np.random.default_rng(23)
        g = Grid(12)
        p, q = random_scalar(g, rng), random_scalar(g, rng)
        lhs_n = scalar_grad_inner(p, q, "neumann")
        rhs_n = -scalar_inner(apply_cell(laplacian_neumann_matrix(g), p), q)
        assert abs(lhs_n - rhs_n) <= 1e-11 * max(abs(lhs_n), 1.0)
        lhs_d = scalar_grad_inner(p, q, "dirichlet")
        rhs_d = -scalar_inner(apply_cell(laplacian_dirichlet_matrix(g), p), q)
        assert abs(lhs_d - rhs_d) <= 1e-11 * max(abs(lhs_d), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_divergence_commutes_with_tangential_laplacian(self, n, seed):
        # div(Lap_tangential w) == Lap_dirichlet(div w) exactly, including
        # fields with nonzero wall-normal faces: the vector heat flow drives
        # the divergence by the zero-value scalar heat flow.
        g = Grid(n)
        w = random_vector(g, np.random.default_rng(seed), zero_walls=False)
        left = divergence(tangential_laplacian(w))
        right = apply_cell(laplacian_dirichlet_matrix(g), divergence(w))
        scale = np.max(np.abs(right.values)) + 1.0
        np.testing.assert_allclose(left.values, right.values, rtol=0, atol=1e-10 * scale)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_noslip_is_tangential_on_zeroed_walls(self, n, seed):
        # the no-slip closure is the tangential one applied to the field with
        # its wall-normal faces zeroed, with the wall-normal rows then zeroed
        g = Grid(n)
        w = random_vector(g, np.random.default_rng(seed), zero_walls=False)
        lt = tangential_laplacian(with_normal_trace(w, BoundaryTrace.zeros(g)))
        lu, lv = lt.u.copy(), lt.v.copy()
        lu[[0, -1], :] = 0.0
        lv[:, [0, -1]] = 0.0
        ln = vector_laplacian(w)
        assert np.array_equal(ln.u, lu) and np.array_equal(ln.v, lv)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(4, 32), m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_stencils_give_each_field_its_own_result(self, n, m, seed):
        # the stencils act on the last two axes, entry by entry, so a stack
        # of fields gives each field's result bit for bit
        g = Grid(n)
        rng = np.random.default_rng(seed)
        fields = [random_vector(g, rng, zero_walls=False) for _ in range(m)]
        u, v = np.stack([w.u for w in fields]), np.stack([w.v for w in fields])
        h2 = g.h * g.h
        for closure, field_closure in ((_noslip_laplacian, vector_laplacian),
                                       (_tangential_laplacian, tangential_laplacian)):
            lu, lv = closure(u, v)
            for j, w in enumerate(fields):
                lap = field_closure(w)
                assert np.array_equal(lu[j] / h2, lap.u) and np.array_equal(lv[j] / h2, lap.v)
        div = _divergence_values(u, v, g.h)
        for j, w in enumerate(fields):
            assert np.array_equal(div[j], divergence(w).values)


class TestNormsAndTraces:
    def test_scalar_norm_constant(self):
        g = Grid(16)
        p = ScalarField(g, np.ones(g.shape_cell))
        assert abs(scalar_norm(p) - 1.0) <= 1e-14
        assert abs(integral(p) - 1.0) <= 1e-14

    def test_cosine_l2_norm(self):
        g = Grid(64)
        p = scalar_from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        assert abs(scalar_norm(p) - 0.5) <= 1e-3

    def test_face_norm_homogeneous(self):
        rng = np.random.default_rng(31)
        g = Grid(8)
        w = random_vector(g, rng, zero_walls=False)
        assert abs(face_norm(3.0 * w) - 3.0 * face_norm(w)) <= 1e-12 * face_norm(w)

    def test_rescaled_norm_is_the_norm_unless_it_overflows(self):
        rng = np.random.default_rng(41)
        g = Grid(16)
        p = random_scalar(g, rng)
        # finite norms are the plain norms, bit for bit
        assert rescaled_norm(scalar_norm, p) == scalar_norm(p)
        assert rescaled_norm(np.linalg.norm, p.values) == np.linalg.norm(p.values)
        bad = p.values.copy()
        bad[3, 4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the plain sums of squares overflow; the rescaled ones do not warn
            huge = p * 1e300
            assert rescaled_norm(scalar_norm, huge) == pytest.approx(1e300 * scalar_norm(p),
                                                                     rel=1e-14)
            assert rescaled_norm(np.linalg.norm, huge.values) == pytest.approx(
                1e300 * np.linalg.norm(p.values), rel=1e-14)
            assert not np.isfinite(rescaled_norm(np.linalg.norm, bad))

    def test_trace_roundtrip_and_signs(self):
        g = Grid(8)
        # uniform outflow of magnitude 1 on every wall
        w = with_normal_trace(VectorField.zeros(g), BoundaryTrace.constant(g, 1.0))
        assert np.all(w.u[0, :] == -1.0) and np.all(w.u[-1, :] == 1.0)
        assert np.all(w.v[:, 0] == -1.0) and np.all(w.v[:, -1] == 1.0)
        tr = normal_trace(w)
        assert np.all(tr.left == 1.0) and np.all(tr.bottom == 1.0)
        assert abs(trace_integral(tr) - 4.0) <= 1e-14

    def test_divergence_theorem_exact(self):
        rng = np.random.default_rng(37)
        g = Grid(16)
        w = random_vector(g, rng, zero_walls=False)
        vol = integral(divergence(w))
        flux = trace_integral(normal_trace(w))
        assert abs(vol - flux) <= 1e-12 * max(1.0, abs(flux))

    def test_boundary_divergence_trace_exact_for_quadratics(self):
        g = Grid(16)
        p = scalar_from_function(g, lambda x, y: 2.0 * x**2 - 3.0 * x + 1.0 + 0.0 * y)
        tr = boundary_divergence_trace(p)
        np.testing.assert_allclose(tr.left, 1.0, atol=1e-12)  # value at x = 0
        np.testing.assert_allclose(tr.right, 0.0, atol=1e-12)  # 2 - 3 + 1


class TestStreamFunction:
    def test_discrete_curl_is_divergence_free(self):
        rng = np.random.default_rng(41)
        g = Grid(16)
        psi = rng.standard_normal((g.n + 1, g.n + 1))
        w = vector_from_stream(g, psi)
        d = divergence(w)
        assert np.max(np.abs(d.values)) <= 1e-11 * (np.max(np.abs(psi)) / g.h**2)

    def test_zero_boundary_stream_gives_noflux_field(self):
        g = Grid(16)
        x = g.nodes()[:, None]
        y = g.nodes()[None, :]
        psi = np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
        w = vector_from_stream(g, psi)
        assert np.max(np.abs(w.u[0, :])) == 0.0
        assert np.max(np.abs(w.v[:, 0])) == 0.0

    def test_from_functions_sampling(self):
        g = Grid(8)
        w = vector_from_functions(g, lambda x, y: x + 0 * y, lambda x, y: 0 * x + y)
        np.testing.assert_allclose(w.u[:, 0], g.nodes(), atol=1e-14)
        np.testing.assert_allclose(w.v[0, :], g.nodes(), atol=1e-14)
