"""Lifting, decomposition, and projection invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enslab.diagnostics import SPLIT_RECONSTRUCT_TOL, SPLIT_TOL
from enslab.errors import CompatibilityError
from enslab import galerkin
from enslab.grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    _divergence_values,
    divergence,
    face_inner,
    face_norm,
    grad_inner,
    integral,
    scalar_norm,
    vector_from_stream,
)
from enslab.linsolve import GeneralizedStokes, neumann_poisson
from enslab.stokes_lift import (
    _remove_gradient,
    decompose,
    leray_project,
    lift_divergence,
)
from oracles import check_weak_lifting_bound, gradient, lifting_constant


def coscos(grid, k=1, m=1):
    x = grid.cells()[:, None]
    y = grid.cells()[None, :]
    return ScalarField(grid, np.cos(k * np.pi * x) * np.cos(m * np.pi * y))


def lift_pressure(g, trace=None):
    """The pressure of the lift of (g, trace), which the lift helpers do not form."""
    return GeneralizedStokes(g.grid, 0.0, 1.0).solve(g=g, trace=trace)[1]


def random_zero_wall_vector(grid, rng):
    u = rng.standard_normal(grid.shape_u)
    v = rng.standard_normal(grid.shape_v)
    u[0, :] = u[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    return VectorField(grid, u, v)


GRID_SIZES = st.integers(4, 64).filter(lambda n: (1.0 / n) * n == 1.0)


def remove_gradient_diff_form(grid, u, v):
    """The target-free gradient removal written with np.diff, not in place."""
    phi = neumann_poisson(grid).solve_values(_divergence_values(u, v, grid.h))
    u[..., 1:-1, :] -= np.diff(phi, axis=-2) / grid.h
    v[..., :, 1:-1] -= np.diff(phi, axis=-1) / grid.h


def stream_vector(grid, rng=None, seed=0):
    rng = rng or np.random.default_rng(seed)
    psi = np.zeros((grid.n + 1, grid.n + 1))
    psi[1:-1, 1:-1] = rng.standard_normal((grid.n - 1, grid.n - 1))
    return vector_from_stream(grid, psi)


class TestLerayProjection:
    def test_gradient_fields_are_annihilated(self):
        g = Grid(32)
        rng = np.random.default_rng(1)
        p = ScalarField(g, rng.standard_normal(g.shape_cell))
        w = gradient(p)
        pw = leray_project(w)
        assert face_norm(pw) <= 1e-9 * max(1.0, face_norm(w))

    def test_divergence_free_fields_unchanged(self):
        g = Grid(32)
        w = stream_vector(g, seed=2)
        pw = leray_project(w)
        assert face_norm(pw - w) <= 1e-10 * max(1.0, face_norm(w))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_idempotent(self, n, seed):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        w = VectorField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_v))
        p1 = leray_project(w)
        p2 = leray_project(p1)
        assert face_norm(p2 - p1) <= 1e-10 * max(1.0, face_norm(p1))

    def test_result_square_divergence_and_flux(self):
        g = Grid(16)
        rng = np.random.default_rng(4)
        w = VectorField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_v))
        pw = leray_project(w)
        assert np.all(pw.u[0, :] == 0.0) and np.all(pw.u[-1, :] == 0.0)
        assert np.all(pw.v[:, 0] == 0.0) and np.all(pw.v[:, -1] == 0.0)
        assert scalar_norm(divergence(pw)) <= 1e-10 * max(1.0, face_norm(w) / g.h)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(4, 32), m=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_projection_equals_each_projection(self, n, m, seed):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        fields = [random_zero_wall_vector(g, rng) for _ in range(m)]
        u, v = np.stack([w.u for w in fields]), np.stack([w.v for w in fields])
        _remove_gradient(g, u, v)
        for j, w in enumerate(fields):
            pw = leray_project(w)
            assert max(np.abs(u[j] - pw.u).max(), np.abs(v[j] - pw.v).max()) <= 1e-14 * pw.max_abs()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_l2_orthogonality(self, n, seed):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        w = VectorField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_v))
        pw = leray_project(w)
        inner = face_inner(pw, w - pw)
        assert abs(inner) <= 1e-9 * face_norm(w) ** 2


class TestRemoveGradient:
    @staticmethod
    def _data(n, m, seed):
        """Face arrays with nonzero wall faces, m stacked (m = 0: 2-D), and a
        divergence target of the natural size of their divergence."""
        g = Grid(n)
        rng = np.random.default_rng(seed)
        lead = (m,) if m else ()
        return (g, rng.standard_normal(lead + g.shape_u), rng.standard_normal(lead + g.shape_v),
                rng.standard_normal(g.shape_cell) / g.h)

    @settings(max_examples=25, deadline=None)
    @given(n=GRID_SIZES, m=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_wall_normal_faces_stay_bit_for_bit(self, n, m, seed):
        g, u, v, target = self._data(n, m, seed)
        u0, v0 = u.copy(), v.copy()
        _remove_gradient(g, u, v, target)
        assert np.array_equal(u[..., [0, -1], :], u0[..., [0, -1], :])
        assert np.array_equal(v[..., [0, -1]], v0[..., [0, -1]])

    @settings(max_examples=25, deadline=None)
    @given(n=GRID_SIZES, m=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_divergence_is_the_target_up_to_a_constant(self, n, m, seed):
        g, u, v, target = self._data(n, m, seed)
        _remove_gradient(g, u, v, target)
        r = _divergence_values(u, v, g.h) - target
        r -= r.mean(axis=(-2, -1), keepdims=True)
        scale = max(np.abs(target).max(), max(np.abs(u).max(), np.abs(v).max()) / g.h)
        assert np.abs(r).max() <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(n=GRID_SIZES, seed=st.integers(0, 2 ** 32 - 1))
    def test_leray_projection_is_the_difference_form_bit_for_bit(self, n, seed):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        w = VectorField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_v))
        u, v = w.u.copy(), w.v.copy()
        u[[0, -1]] = v[:, [0, -1]] = 0.0
        remove_gradient_diff_form(g, u, v)
        pw = leray_project(w)
        assert np.array_equal(pw.u, u) and np.array_equal(pw.v, v)

    def test_galerkin_eigen_residuals_are_the_difference_form_bit_for_bit(self, monkeypatch):
        basis = galerkin.build_basis(Grid(16), 16)
        got = galerkin._eigen_residuals(basis.grid, basis.stacked, basis.lam)
        monkeypatch.setattr(galerkin, "_remove_gradient", remove_gradient_diff_form)
        want = galerkin._eigen_residuals(basis.grid, basis.stacked, basis.lam)
        assert np.array_equal(got, want)


class TestLiftDivergence:
    def test_zero_gives_zero(self):
        g = Grid(16)
        z, q = lift_divergence(ScalarField.zeros(g)), lift_pressure(ScalarField.zeros(g))
        assert face_norm(z) == 0.0 and scalar_norm(q) == 0.0

    def test_divergence_of_random_flow_is_lifted(self):
        g = Grid(32)
        rng = np.random.default_rng(6)
        u = random_zero_wall_vector(g, rng)
        gsrc = divergence(u)
        z, q = lift_divergence(gsrc), lift_pressure(gsrc)
        assert scalar_norm(divergence(z) - gsrc) <= 1e-9 * scalar_norm(gsrc)
        assert abs(integral(q)) <= 1e-12

    def test_mean_zero_required(self):
        g = Grid(16)
        with pytest.raises(CompatibilityError):
            lift_divergence(ScalarField(g, np.ones(g.shape_cell)))

    def test_linearity(self):
        g = Grid(16)
        rng = np.random.default_rng(7)
        g1 = divergence(random_zero_wall_vector(g, rng))
        g2 = divergence(random_zero_wall_vector(g, rng))
        a, b = 2.0, -0.5
        z1, q1 = lift_divergence(g1), lift_pressure(g1)
        z2, q2 = lift_divergence(g2), lift_pressure(g2)
        zc, qc = lift_divergence(g1 * a + g2 * b), lift_pressure(g1 * a + g2 * b)
        comb = z1 * a + z2 * b
        scale = max(1.0, face_norm(comb))
        assert face_norm(zc - comb) <= 1e-8 * scale
        assert scalar_norm(qc - (q1 * a + q2 * b)) <= 1e-7 * max(1.0, scalar_norm(q1))

    def test_stability_constant_stable_under_refinement(self):
        cs = [lifting_constant(coscos(Grid(n))) for n in (16, 32, 64)]
        for c in cs:
            assert 0.8 * cs[0] <= c <= 1.2 * cs[0]


class TestLiftWithBoundary:
    def test_zero_data_zero_solution(self):
        g = Grid(16)
        z = lift_divergence(ScalarField.zeros(g), BoundaryTrace.zeros(g))
        q = lift_pressure(ScalarField.zeros(g), BoundaryTrace.zeros(g))
        assert face_norm(z) == 0.0 and scalar_norm(q) == 0.0

    def test_balanced_uniform_source_and_outflow(self):
        # volume integral 4 over the unit square equals perimeter flux 4 x 1
        g = Grid(32)
        gsrc = ScalarField(g, np.full(g.shape_cell, 4.0))
        z = lift_divergence(gsrc, BoundaryTrace.constant(g, 1.0))
        assert scalar_norm(divergence(z) - gsrc) <= 1e-9 * scalar_norm(gsrc)
        assert np.allclose(z.u[0, :], -1.0) and np.allclose(z.v[:, -1], 1.0)

    def test_unbalanced_data_rejected(self):
        g = Grid(16)
        with pytest.raises(CompatibilityError):
            lift_divergence(ScalarField.zeros(g), BoundaryTrace.constant(g, 1.0))


class TestDecompose:
    def test_divergence_free_input_passes_through(self):
        g = Grid(32)
        u = stream_vector(g, seed=8)
        dec = decompose(u)
        assert face_norm(dec.v - u) <= 1e-9 * max(1.0, face_norm(u))
        assert face_norm(dec.z) <= 1e-9 * max(1.0, face_norm(u))

    def test_pure_lift_input_has_no_flow_part(self):
        g = Grid(32)
        rng = np.random.default_rng(9)
        gsrc = divergence(random_zero_wall_vector(g, rng))
        z = lift_divergence(gsrc)
        dec = decompose(z)
        assert face_norm(dec.v) <= 1e-9 * max(1.0, face_norm(z))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_flow_invariants(self, n, seed):
        # H1 orthogonality of the split, on the product of the two parts'
        # gradient norms (never larger than validate()'s scale)
        g = Grid(n)
        u = random_zero_wall_vector(g, np.random.default_rng(seed))
        dec = decompose(u)  # validate() runs inside
        gv = math.sqrt(grad_inner(dec.v, dec.v))
        gz = math.sqrt(grad_inner(dec.z, dec.z))
        assert abs(grad_inner(dec.v, dec.z)) <= SPLIT_TOL * gv * gz
        rec = dec.v + dec.z
        assert max(np.abs(rec.u - u.u).max(), np.abs(rec.v - u.v).max()) \
            <= SPLIT_RECONSTRUCT_TOL * max(1.0, u.max_abs())

    def test_projection_pair_property(self):
        g = Grid(32)
        rng = np.random.default_rng(11)
        v = stream_vector(g, rng)
        gsrc = divergence(random_zero_wall_vector(g, rng))
        z = lift_divergence(gsrc)
        dec = decompose(v + z)
        assert face_norm(dec.v - v) <= 1e-8 * max(1.0, face_norm(v))

    def test_nonzero_wall_flux_rejected(self):
        g = Grid(16)
        u = np.zeros(g.shape_u)
        u[0, :] = 1.0
        with pytest.raises(CompatibilityError):
            decompose(VectorField(g, u, np.zeros(g.shape_v)))


class TestWeakLiftingBound:
    def test_zero_field_ratio_zero(self):
        rec = check_weak_lifting_bound(ScalarField.zeros(Grid(16)))
        assert rec["ratio"] == 0.0

    def test_low_mode_ratios_recorded_across_grids(self):
        ratios = []
        for n in (16, 32, 64):
            rec = check_weak_lifting_bound(coscos(Grid(n)))
            assert rec["ratio"] > 0.0
            ratios.append(rec["ratio"])
        # informational: values exist and stay the same order of magnitude
        assert max(ratios) <= 10.0 * min(ratios)

    def test_high_mode_ratio_recorded(self):
        rec = check_weak_lifting_bound(coscos(Grid(64), 8, 8))
        assert rec["ratio"] > 0.0
